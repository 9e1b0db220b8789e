"""One benchmark run of one workload.

A run generates the workload's eyes from its seed and checks them after a
reload. It then trains with one `train_eval.train` call, after a warm-up
epoch, and between groups of epochs (from `on_epoch`) runs an interlude:
evaluation passes, one generation round, and now and then a cold start in a
fresh interpreter. Every metric thus samples the whole run: on a shared
2-vCPU host the speed of identical work drifts by 10-30% over seconds to
minutes, and windows run back to back would each catch a different part
of that drift. After training it checks the
model: checkpoint round-trip, a float64 gradient check, attention masking.
Everything runs in this process under the CLI's float32 scope and default
recipe, with BLAS threads left at the program's default.

An untraced run reports the end-to-end metrics; a traced run wraps the
program's entry points in spans (see `spans.py`) and reports per-layer ones.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from crossfit import autodiff as ad
from crossfit import synthdata as sd
from crossfit import train_eval as te
from crossfit.model import CrossFiTModel

from . import checks, spans
from .workloads import WORKLOADS, build_configs, cli_config

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"

GEN_SEED = 0             # `crossfit gen-data`'s default seed
GEN_ROUND_EYES = 32
SETUP_REPS = 3
GEN_ROUNDS = 2           # generation rounds per interlude
TRAIN_SLICE = 0.02       # least training time between interludes, share of --seconds
EVAL_SLICE = 0.014       # least evaluation time per interlude, share of --seconds
MIN_CYCLES = 3


def _now() -> float:
    return time.perf_counter()


def _timed(fn) -> float:
    t0 = _now()
    fn()
    return _now() - t0


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Run:
    """State of one run: inputs, samples, the ledger and the tracer."""

    def __init__(self, workload, seed: int, work: Path, ledger, tracer, train_set,
                 test_set, data_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.tracer = tracer
        self.train_set = train_set
        self.test_set = test_set
        self.data_dir = data_dir
        self.samples = {"setup": [], "gen": [], "eval": [], "epochs": []}
        self.gen_eyes = 0        # generated in measured rounds
        self.loaded_eyes = 0     # read back by every load_dataset call

    # -- single operations ----------------------------------------------------

    def setup_probe(self) -> dict:
        """One cold start in a fresh interpreter, up to the first training step."""
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC_DIR),
               str(self.data_dir), json.dumps(cli_config(self.workload))]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.splitlines()[-1])
        rec["setup_s"] = rec.pop("ready") - start
        return rec

    def gen_round(self, label: str) -> float | None:
        """`generate_dataset` + `write_dataset` of a fixed eye set, read back.

        Every round makes the same eyes: the ones `crossfit gen-data` makes at
        its default seed. Generation cost is heavy-tailed (a split-evidence
        grade-3 eye costs ~25x the median eye), so eye sets drawn per seed
        differ in cost by far more than the benchmark's bounds; a fixed set
        keeps the figure about the program. The seed draws the training data.
        """
        out = self.work / "gen"
        state = {}

        def one_round():
            t0 = _now()
            samples = sd.generate_dataset(GEN_SEED, GEN_ROUND_EYES)
            sd.write_dataset(samples, str(out))
            state["rate"] = GEN_ROUND_EYES / (_now() - t0)
            loaded = sd.load_dataset(str(out))
            self.loaded_eyes += len(loaded)
            return checks.dataset_roundtrip(samples, loaded)

        self.ledger.run(f"generation round {label}", one_round)
        shutil.rmtree(out, ignore_errors=True)
        return state.get("rate")

    def eval_passes(self, model, passes: int, label: str) -> list[float]:
        """`evaluate` passes, each equal to a report checked by brute force.

        Returns each pass's eyes per second.
        """
        test = self.test_set
        reports, rates = [], []

        def one_pass():
            t0 = _now()
            reports.append(te.evaluate(model, test))
            rates.append(len(test) / (_now() - t0))
            return True, ""

        for i in range(passes):
            self.ledger.run(f"evaluation pass {label}.{i}", one_pass)

        def brute_force():
            grades, probs = te.predict_dataset(model, test)
            ok, detail = checks.metrics_match(reports[0], test.grades, grades, probs,
                                              model.cfg.num_classes)
            for report in reports[1:]:
                if ok:
                    ok, detail = checks.reports_equal(report, reports[0])
            return ok, detail

        if reports:
            self.ledger.run(f"metrics against brute force {label}", brute_force)
        return rates

    # -- the measured training run --------------------------------------------

    def measure(self, model, train_cfg, seconds: float, setup_reps: int):
        """Warm up, size the cycles to `seconds`, then train with interludes."""
        t_start = _now()
        state = {}

        def warmup():
            # two epochs; the second, past first-call costs, sizes the cycles
            ends = [_now()]
            state["ckpt"], _ = te.train(model, self.train_set, replace(train_cfg, epochs=2),
                                        on_epoch=lambda *_: ends.append(_now()))
            state["t_epoch"] = ends[-1] - ends[-2]
            return _finite_checkpoint(state["ckpt"])

        with self.tracer.in_phase("warmup"):
            self.ledger.run("warm-up epochs", warmup)
            t_gen = _timed(lambda: self.gen_round("warm-up"))
            rates = self.eval_passes(model, 2, "warm-up")
            t_eval = len(self.test_set) / rates[-1] if rates else 1.0
            t_probe = _timed(lambda: self.samples["setup"].append(self.setup_probe()))
        t_epoch = state.get("t_epoch", 1.0)
        per_cycle = max(1, math.ceil(TRAIN_SLICE * seconds / t_epoch))
        passes = max(1, math.ceil(EVAL_SLICE * seconds / t_eval))
        # an interlude also runs one untimed brute-force pass over the split
        cycle_s = per_cycle * t_epoch + GEN_ROUNDS * t_gen + (passes + 1) * t_eval
        end = t_start + seconds
        planned = max(MIN_CYCLES, int((end - _now() - (setup_reps - 1) * t_probe) / cycle_s))
        # the warm-up cold start is the first of `setup_reps`; spread the rest
        probes = Counter((j + 1) * planned // setup_reps for j in range(setup_reps - 1))

        mark = {}

        def start_epoch():
            mark.update(start=_now(), cpu=time.process_time())

        def on_epoch(epoch, _loss):
            self.samples["epochs"].append({"start": mark["start"], "end": _now(),
                                           "cpu_s": time.process_time() - mark["cpu"]})
            if (epoch + 1) % per_cycle == 0:
                cycle = (epoch + 1) // per_cycle - 1
                self.interlude(model, cycle, passes, probes[cycle])
                pending = setup_reps - len(self.samples["setup"])
                if cycle + 1 >= MIN_CYCLES and _now() + pending * t_probe >= end:
                    raise _Deadline
            start_epoch()

        def measured():
            start_epoch()
            # twice the planned epochs: the deadline, not the estimate, ends
            # training, so a run lasts `seconds` however the host's speed moves
            try:
                te.train(model, self.train_set,
                         replace(train_cfg, epochs=2 * planned * per_cycle),
                         on_epoch=on_epoch)
            except _Deadline:
                pass
            state["ckpt"] = te.Checkpoint.from_model(model)
            return _finite_checkpoint(state["ckpt"])

        with self.tracer.in_phase("train"):
            self.ledger.run("measured training", measured)
        while len(self.samples["setup"]) < setup_reps:
            self.samples["setup"].append(self.setup_probe())
        return state.get("ckpt")

    def interlude(self, model, cycle: int, passes: int, probes: int) -> None:
        with self.tracer.in_phase("eval"):
            self.samples["eval"] += self.eval_passes(model, passes, str(cycle))
        for i in range(GEN_ROUNDS):
            with self.tracer.in_phase("gen"):
                rate = self.gen_round(f"{cycle}.{i}")
            if rate is not None:
                self.samples["gen"].append(rate)
                self.gen_eyes += GEN_ROUND_EYES
        for _ in range(probes):
            self.samples["setup"].append(self.setup_probe())

    # -- after training --------------------------------------------------------

    def model_checks(self, model, ckpt) -> None:
        """Checkpoint round-trip, float64 gradient check, attention masking."""
        test = self.test_set
        path = str(self.work / "model.ckpt")

        def roundtrip():
            te.save_checkpoint(ckpt, path)
            again = te.build_model_from_checkpoint(te.load_checkpoint(path))
            return checks.predictions_equal(te.predict_dataset(model, test),
                                            te.predict_dataset(again, test))

        def gradients():
            k = slice(0, checks.GRAD_EYES)
            batch = (test.images1[k], test.images2[k], test.od1[k], test.od2[k],
                     test.grades[k])
            with ad.default_dtype_scope(np.float64):
                model64 = te.build_model_from_checkpoint(te.load_checkpoint(path))
                return checks.gradient_check(model64, batch, self.seed)

        def attention():
            with ad.no_grad():
                _, extras = model.forward_batch(test.images1, test.images2, test.od1,
                                                test.od2, record=True)
            return checks.attention_masked(extras["attention"].layers,
                                           np.concatenate(extras["masks"], axis=1))

        self.ledger.run("checkpoint round-trip", roundtrip)
        self.ledger.run("gradient check", gradients)
        if model.cfg.strategy == "crossfit" and model.cfg.mask_enabled:
            self.ledger.run("masked attention", attention)

    def end_to_end(self) -> dict:
        n = len(self.train_set)
        epochs = self.samples["epochs"]
        return {
            "setup_s": (statistics.median(r["setup_s"] for r in self.samples["setup"]), "s"),
            "gen_eyes_per_s": (statistics.median(self.samples["gen"]), "eyes/s"),
            "train_eyes_per_s":
                (statistics.median(n / (e["end"] - e["start"]) for e in epochs), "eyes/s"),
            "train_cpu_ms_per_eye":
                (statistics.median(1e3 * e["cpu_s"] / n for e in epochs), "ms"),
            "eval_eyes_per_s": (statistics.median(self.samples["eval"]), "eyes/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        return spans.layer_metrics(
            self.tracer, self.samples["epochs"], self.gen_eyes, self.loaded_eyes,
            import_s=statistics.median(r["import_s"] for r in self.samples["setup"]))


class _Deadline(Exception):
    """Raised from `on_epoch` to end the measured training at the run's deadline."""


def _finite_checkpoint(ckpt) -> tuple[bool, str]:
    bad = [name for name, t in ckpt.tensors.items() if not np.isfinite(t).all()]
    return not bad, f"non-finite tensors {bad[:3]}"


def run(name: str, seed: int, seconds: float, trace: bool, *,
        eyes: int | None = None, setup_reps: int = SETUP_REPS) -> dict:
    """One run; returns the result object the command prints last."""
    workload = WORKLOADS[name]
    model_cfg, train_cfg, frac = build_configs(workload)
    eyes = eyes or workload.eyes
    ledger = checks.Ledger()
    tracer = spans.Tracer()
    work = WORK_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traced = spans.traced_modules(tracer) if trace else contextlib.nullcontext()
    try:
        with traced:
            data_dir = work / "data"
            samples = sd.generate_dataset(seed, eyes)
            sd.write_dataset(samples, str(data_dir))
            loaded = sd.load_dataset(str(data_dir), num_classes=model_cfg.num_classes)
            ledger.run("workload dataset", lambda: checks.dataset_roundtrip(samples, loaded))
            r = Run(workload, seed, work, ledger, tracer, *loaded.train_test_split(frac),
                    data_dir)
            r.loaded_eyes += len(loaded)
            with ad.default_dtype_scope(np.float32):
                model = CrossFiTModel(ad.make_rng(train_cfg.seed), model_cfg)
                with (spans.traced_model(tracer, model) if trace
                      else contextlib.nullcontext()):
                    ckpt = r.measure(model, train_cfg, seconds, setup_reps)
        if ckpt is not None:
            with ad.default_dtype_scope(np.float32):
                r.model_checks(model, ckpt)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = r.per_layer() if trace else r.end_to_end()
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}}
    _write_results(name, seed, seconds, trace, {
        "result": result, "machine": machine_facts(), "eyes": eyes,
        "train_eyes": len(r.train_set), "test_eyes": len(r.test_set),
        "failures": ledger.notes, **r.samples,
        "spans": tracer.spans if trace else None})
    return result


def _write_results(name, seed, seconds, trace, detail) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   **detail}, fh)
