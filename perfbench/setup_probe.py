"""Time one cold start of the program, as a fresh interpreter sees it.

Usage: python3 setup_probe.py <src dir> <data dir> <config json>

Imports `crossfit.cli`, loads the dataset and its train split, and builds
the model under the CLI's float32 scope: everything the first training step
waits for. Prints one JSON line with the monotonic clock reading when ready
and the time each stage took.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    src, data_dir, cfg_json = sys.argv[1:4]
    t0 = _now()
    sys.path.insert(0, src)
    import crossfit.cli as cli
    t_import = _now()

    import numpy as np
    from crossfit import autodiff as ad
    from crossfit import synthdata as sd
    from crossfit.model import CrossFiTModel

    cfg = dict(cli._DEFAULTS)
    cfg.update(json.loads(cfg_json))
    model_cfg, train_cfg, frac = cli._build_configs(cfg)
    data = sd.load_dataset(data_dir, num_classes=model_cfg.num_classes)
    data.train_test_split(frac)
    t_load = _now()
    with ad.default_dtype_scope(np.float32):
        CrossFiTModel(ad.make_rng(train_cfg.seed), model_cfg)
    ready = _now()
    print(json.dumps({"ready": ready, "import_s": t_import - t0,
                      "load_s": t_load - t_import, "build_s": ready - t_load}))


if __name__ == "__main__":
    main()
