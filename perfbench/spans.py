"""Spans timed around calls into the program, from the benchmark's own code.

A traced run replaces module-level names that the program looks up at call
time (`crossfit.autodiff.conv2d`, `crossfit.model.aligned_position_embeddings`,
...) and the model instance's layer attributes with wrappers that record a
span per call: name, start, end, parent span, phase and training step. Spans
stay in memory; the run writes them out when it ends. Nothing inside the
program records spans.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

from crossfit import autodiff as ad
from crossfit import model as model_mod
from crossfit import synthdata as sd
from crossfit import train_eval as te

# (module, attribute, span name): callees the program resolves at call time
MODULE_CALLS = (
    (sd, "generate_scene", "synthdata.generate_scene"),
    (sd, "render_field", "synthdata.render_field"),
    (sd, "write_dataset", "synthdata.write_dataset"),
    (sd, "load_dataset", "synthdata.load_dataset"),
    (ad, "conv2d", "autodiff.conv2d"),
    (ad, "backward", "autodiff.backward"),
    (model_mod, "masks_from_features", "attention.masks_from_features"),
    (model_mod, "aligned_position_embeddings", "geometry.aligned_position_embeddings"),
    (te, "sgd_momentum_step", "train_eval.sgd_momentum_step"),
    (te, "metrics_from_predictions", "train_eval.metrics_from_predictions"),
)
# model attribute -> span name; the attribute may be None for a strategy
MODEL_LAYERS = (
    ("encoder", "encoder.Encoder"),
    ("proj", "model.proj"),
    ("stack", "attention.CfaStack"),
    ("head", "model.head"),
)


class Tracer:
    """In-memory span recorder; `phase` and `step` tag every span opened."""

    def __init__(self):
        self.spans: list[dict] = []
        self.tape_nodes: list[tuple[int, int]] = []   # (step, nodes after forward)
        self.phase: str | None = None
        self.step: int | None = None
        self._steps = 0
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "phase": self.phase, "step": self.step, "start": time.perf_counter()}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def forward_step(self, fn):
        """Wrap `loss_batch`: each call in the train phase opens a new step."""
        def traced(*args, **kwargs):
            if self.phase == "train":
                self.step = self._steps
                self._steps += 1
            out = self.call("model.loss_batch", fn, args, kwargs)
            if self.step is not None:
                self.tape_nodes.append((self.step, len(ad.active_tape())))
            return out
        return traced

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        """Tag spans with `phase` and no step inside the block; restore after."""
        saved = self.phase, self.step
        self.phase, self.step = phase, None
        try:
            yield
        finally:
            self.phase, self.step = saved


class _TracedLayer:
    """Stands in for a model layer: spans its calls, forwards everything else."""

    def __init__(self, tracer: Tracer, name: str, layer):
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._layer, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._layer, attr)


@contextlib.contextmanager
def traced_modules(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in MODULE_CALLS]
    try:
        for mod, attr, name in MODULE_CALLS:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


@contextlib.contextmanager
def traced_model(tracer: Tracer, model):
    """Span the model's layers, `loss_batch` and `predict_batch` on this instance."""
    saved = {attr: getattr(model, attr) for attr, _ in MODEL_LAYERS}
    try:
        for attr, name in MODEL_LAYERS:
            if saved[attr] is not None:
                setattr(model, attr, _TracedLayer(tracer, name, saved[attr]))
        model.loss_batch = tracer.forward_step(model.loss_batch)
        model.predict_batch = tracer.wrap("model.predict_batch", model.predict_batch)
        yield
    finally:
        del model.loss_batch, model.predict_batch
        for attr, layer in saved.items():
            setattr(model, attr, layer)


# ---------------------------------------------------------------------------
# per-layer figures


def _ms(rec) -> float:
    return 1e3 * (rec["end"] - rec["start"])


def self_times_ms(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [_ms(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _ms(s)
    return own


def layer_metrics(tracer: Tracer, epochs: list[dict], gen_eyes: int,
                  loaded_eyes: int, import_s: float) -> dict:
    """Per-layer figures from one traced run.

    `epochs` holds the measured training epochs (start, end, cpu_s),
    `gen_eyes` the eyes made by measured generation rounds, `loaded_eyes` the
    eyes read by every `load_dataset` call, `import_s` the cold import time
    of `crossfit.cli`.
    """
    spans = tracer.spans
    own = self_times_ms(spans)
    per_step = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    step_start = {}
    for i, s in enumerate(spans):
        if s["phase"] != "train" or s["step"] is None:
            continue
        per_step[s["step"]][s["name"]] += _ms(s)
        calls[s["step"]][s["name"]] += 1
        if s["name"] == "model.loss_batch":
            per_step[s["step"]]["self"] += own[i]
            step_start[s["step"]] = s["start"]
    steps = sorted(step_start)

    def median_per_step(name):
        return statistics.median(per_step[k][name] for k in steps)

    def busy(k):
        return sum(per_step[k][n] for n in ("model.loss_batch", "autodiff.backward",
                                            "train_eval.sgd_momentum_step"))

    waits = []
    for e in epochs:
        inside = [k for k in steps if e["start"] <= step_start[k] < e["end"]]
        wall_ms = 1e3 * (e["end"] - e["start"])
        waits.append((wall_ms - sum(busy(k) for k in inside)) / len(inside))
    wall = sum(e["end"] - e["start"] for e in epochs)

    def phase_ms(phase, name):
        """Durations of `name` spans in `phase`, or in every phase for None."""
        return [_ms(s) for s in spans
                if s["name"] == name and phase in (None, s["phase"])]

    return {
        "cli.import_s": (import_s, "s"),
        "synthdata.load_ms_per_eye":
            (sum(phase_ms(None, "synthdata.load_dataset")) / loaded_eyes, "ms"),
        "synthdata.scene_ms_per_eye":
            (sum(phase_ms("gen", "synthdata.generate_scene")) / gen_eyes, "ms"),
        "synthdata.render_ms_per_field":
            (sum(phase_ms("gen", "synthdata.render_field")) / (2 * gen_eyes), "ms"),
        "synthdata.write_ms_per_eye":
            (sum(phase_ms("gen", "synthdata.write_dataset")) / gen_eyes, "ms"),
        "model.fwd_ms_per_step": (median_per_step("model.loss_batch"), "ms"),
        "model.fwd_self_ms_per_step": (median_per_step("self"), "ms"),
        "encoder.fwd_ms_per_step": (median_per_step("encoder.Encoder"), "ms"),
        "autodiff.conv2d_fwd_ms_per_step": (median_per_step("autodiff.conv2d"), "ms"),
        "attention.mask_ms_per_step":
            (median_per_step("attention.masks_from_features"), "ms"),
        "attention.cfa_fwd_ms_per_step": (median_per_step("attention.CfaStack"), "ms"),
        "geometry.ape_ms_per_step":
            (median_per_step("geometry.aligned_position_embeddings"), "ms"),
        "geometry.ape_calls_per_step":
            (statistics.median(calls[k]["geometry.aligned_position_embeddings"]
                               for k in steps), "calls"),
        "autodiff.tape_nodes_per_step":
            (statistics.median(n for k, n in tracer.tape_nodes if k in step_start), "nodes"),
        "autodiff.backward_ms_per_step": (median_per_step("autodiff.backward"), "ms"),
        "train_eval.sgd_ms_per_step":
            (median_per_step("train_eval.sgd_momentum_step"), "ms"),
        "train_eval.batch_wait_ms_per_step": (statistics.median(waits), "ms"),
        "train_eval.step_ms_p50": (statistics.median(busy(k) for k in steps), "ms"),
        "train_eval.cpu_per_wall": (sum(e["cpu_s"] for e in epochs) / wall, "ratio"),
        "model.eval_fwd_ms_per_batch":
            (statistics.median(phase_ms("eval", "model.predict_batch")), "ms"),
        "train_eval.metrics_ms_per_eval":
            (statistics.median(phase_ms("eval", "train_eval.metrics_from_predictions")), "ms"),
    }
