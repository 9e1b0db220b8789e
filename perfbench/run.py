"""Run one benchmark workload and print its result as the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload crossfit_default --seed 1 --seconds 20 --trace 0

With `--trace 0` the result carries the end-to-end metrics, with `--trace 1`
the per-layer ones. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. Exit code 2 means the
run could not start (unknown workload, or no program sources next to the
benchmark).
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crossfit").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'crossfit'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print(f"error: --seconds must be positive, got {args.seconds}", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
