"""Correctness checks on the program's outputs, and the ledger that counts them.

Every check is computed from the program's own outputs and a reference the
benchmark derives independently (a reload, a brute-force loop, finite
differences); none compares against stored output. Each returns
(ok, detail) and never raises on a wrong output.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from crossfit import autodiff as ad
from crossfit import model as model_mod

GRAD_BOUND = 1e-3        # the bound `crossfit verify` applies to its gradchecks
GRAD_EYES = 2            # eyes in the gradient-check batch
GRAD_ELEMS = 2           # probed elements per parameter tensor
METRIC_TOL = 1e-12       # float64 reassociation between two exact formulas


class Ledger:
    """Counts operations attempted and failed.

    An operation fails when it raises or when its check finds a wrong output;
    `correct` is false only in the second case.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def run(self, op: str, fn) -> bool:
        """Run one operation; `fn` does the work and returns its check's (ok, detail)."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception:  # an operation that raises is counted, not fatal
            self.failed += 1
            self.notes.append(f"{op}: raised\n{traceback.format_exc(limit=4)}")
            return False
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.notes.append(f"{op}: {detail}")
        return bool(ok)


# ---------------------------------------------------------------------------
# data


def dataset_roundtrip(samples, loaded) -> tuple[bool, str]:
    """`load_dataset` gives back every generated eye bit for bit."""
    if len(loaded) != len(samples):
        return False, f"loaded {len(loaded)} eyes, generated {len(samples)}"
    for i, s in enumerate(samples):
        fields = (
            ("image1", np.array_equal(loaded.images1[i], s.image1)),
            ("image2", np.array_equal(loaded.images2[i], s.image2)),
            ("od1", loaded.od1[i].tolist() == [s.od1.x, s.od1.y]),
            ("od2", loaded.od2[i].tolist() == [s.od2.x, s.od2.y]),
            ("grade", int(loaded.grades[i]) == s.grade),
            ("split_evidence", bool(loaded.split_evidence[i]) == s.split_evidence),
            ("eye_id", int(loaded.eye_ids[i]) == s.eye_id),
        )
        for name, same in fields:
            if not same:
                return False, f"eye {s.eye_id}: {name} differs after load"
        if s.split_evidence and s.grade == 0:
            return False, f"eye {s.eye_id}: split-evidence eye with grade 0"
    return True, f"{len(samples)} eyes identical"


# ---------------------------------------------------------------------------
# metrics


def _brute_kappa(conf: list[list[int]]) -> float:
    c = len(conf)
    n = sum(map(sum, conf))
    rows = [sum(conf[i]) for i in range(c)]
    cols = [sum(conf[i][j] for i in range(c)) for j in range(c)]
    num = den = 0.0
    for i in range(c):
        for j in range(c):
            w = (i - j) ** 2 / (c - 1) ** 2
            num += w * conf[i][j] / n
            den += w * rows[i] * cols[j] / n ** 2
    # all mass on one diagonal cell: perfect agreement
    return 1.0 if den == 0.0 else 1.0 - num / den


def _brute_auc(scores, positive) -> float | None:
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    if not pos or not neg:
        return None
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def metrics_match(report, labels, grades, probs, num_classes: int) -> tuple[bool, str]:
    """`evaluate`'s report equals brute force over `predict_dataset`'s outputs."""
    labels = [int(v) for v in labels]
    grades = [int(v) for v in grades]
    probs = np.asarray(probs, dtype=np.float64)
    for i, row in enumerate(probs):
        if abs(math.fsum(row) - 1.0) > METRIC_TOL:
            return False, f"probability row {i} sums to {math.fsum(row)!r}"
        if grades[i] != int(np.argmax(row)):
            return False, f"grade {grades[i]} of row {i} is not its argmax"
    conf = [[0] * num_classes for _ in range(num_classes)]
    for a, b in zip(labels, grades):
        conf[a][b] += 1
    if np.asarray(report.confusion).tolist() != conf:
        return False, "confusion matrix differs from the counted one"
    accuracy = sum(conf[i][i] for i in range(num_classes)) / len(labels)
    if report.accuracy != accuracy:
        return False, f"accuracy {report.accuracy!r} != {accuracy!r}"
    kappa = _brute_kappa(conf)
    if abs(report.kappa - kappa) > METRIC_TOL:
        return False, f"kappa {report.kappa!r} != {kappa!r}"
    for c in range(num_classes):
        want = _brute_auc(probs[:, c], [lab == c for lab in labels])
        got = report.per_class_auc[c]
        if (got is None) != (want is None) or (want is not None
                                               and abs(got - want) > METRIC_TOL):
            return False, f"class {c} AUC {got!r} != {want!r}"
    return True, f"kappa {kappa:.6g} over {len(labels)} eyes"


def reports_equal(a, b) -> tuple[bool, str]:
    """Two evaluations of one model on one split agree exactly."""
    same = (a.kappa == b.kappa and a.accuracy == b.accuracy
            and list(a.per_class_auc) == list(b.per_class_auc)
            and np.array_equal(a.confusion, b.confusion))
    return same, "" if same else f"kappa {a.kappa!r} vs {b.kappa!r}"


# ---------------------------------------------------------------------------
# model


def predictions_equal(before, after) -> tuple[bool, str]:
    """(grades, probabilities) pairs from `predict_dataset` are bit-identical."""
    if not np.array_equal(before[0], after[0]):
        return False, "predicted grades changed"
    if not np.array_equal(before[1], after[1]):
        diff = float(np.abs(before[1] - after[1]).max())
        return False, f"probabilities changed by up to {diff:.3g}"
    return True, "bit-identical"


def attention_masked(layers, mask) -> tuple[bool, str]:
    """Masked key columns get weight exactly 0; rows sum to 1 within rounding.

    `layers` holds one (b, heads, t, t) weight array per CFA layer, `mask` the
    (b, t) key bits of the joint sequence.
    """
    mask = np.asarray(mask)
    worst_row = 0.0
    for i, w in enumerate(layers):
        w = np.asarray(w)
        if w.shape[0] != mask.shape[0] or w.shape[-1] != mask.shape[-1]:
            return False, f"layer {i}: weights {w.shape} do not fit mask {mask.shape}"
        tol = w.shape[-1] * np.finfo(w.dtype).eps
        for b in range(w.shape[0]):
            dropped = w[b][..., mask[b] == 0]
            if dropped.size and np.any(dropped != 0):
                return False, (f"layer {i} eye {b}: masked key weight "
                               f"{float(np.abs(dropped).max())!r}")
        err = float(np.abs(w.astype(np.float64).sum(axis=-1) - 1.0).max())
        if err > tol:
            return False, f"layer {i}: row sum off by {err:.3g} (> {tol:.3g})"
        worst_row = max(worst_row, err)
    return True, f"row-sum error {worst_row:.3g}"


class _FrozenPieces:
    """Holds the loss's piecewise choices fixed during finite-difference probes.

    The loss is piecewise smooth: relu signs, mask bits and the max-fusion
    choice switch at kinks, and a probe step that crosses one measures the
    neighbouring piece (seen at 1e-3..1e-2 relative error on crossfit_long's
    overlapping encoder). The analytic pass, which records a tape, runs the
    program unchanged and notes each choice in call order; untaped probe
    passes replay them, so every probe stays on the piece the analytic
    gradient describes.
    """

    _TARGETS = ((ad, "relu"), (ad, "maximum"), (model_mod, "masks_from_features"))

    def __init__(self):
        self.choices: list = []
        self.cursor = 0
        self._saved: list = []

    def __enter__(self):
        real = {name: getattr(mod, name) for mod, name in self._TARGETS}

        def relu(x):
            if ad.active_tape().recording:
                self.choices.append(x.data > 0.0)
                return real["relu"](x)
            return ad.Tensor(x.data * self._next())

        def maximum(a, b):
            if ad.active_tape().recording:
                self.choices.append(a.data >= b.data)
                return real["maximum"](a, b)
            return ad.Tensor(np.where(self._next(), a.data, b.data))

        def masks_from_features(feat, p):
            if ad.active_tape().recording:
                self.choices.append(real["masks_from_features"](feat, p))
                return self.choices[-1]
            return self._next()

        new = {"relu": relu, "maximum": maximum, "masks_from_features": masks_from_features}
        for mod, name in self._TARGETS:
            self._saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, new[name])
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def _next(self):
        choice = self.choices[self.cursor]
        self.cursor += 1
        return choice

    def start_pass(self) -> None:
        """Call before each loss evaluation: a taped pass records afresh."""
        if ad.active_tape().recording:
            self.choices.clear()
        self.cursor = 0


def gradient_check(model64, batch, seed: int) -> tuple[bool, str]:
    """`ad.gradcheck` of `loss_batch` over every parameter of a float64 model.

    `batch` is (imgs1, imgs2, od1, od2, labels). Call inside a float64
    `default_dtype_scope`.
    """
    params = [p for _, p in model64.parameters()]
    with _FrozenPieces() as pieces:
        def loss():
            pieces.start_pass()
            return model64.loss_batch(*batch)

        worst = ad.gradcheck(loss, params, max_elems=GRAD_ELEMS, rng=ad.make_rng(seed))
    return bool(worst < GRAD_BOUND), f"max relative error {worst:.3g}"
