"""SGD training loop, grading metrics, and binary checkpoint persistence.

A checkpoint is b"CFIT", a u16 version and a u32 header length (little
endian), a UTF-8 JSON header, then float32 little-endian tensors back to
back. In the header, `config.model` holds the model config's fields, nested
configs as objects; `tensors` one {name, shape, offset, length} entry per
tensor, `param/<name>` for each parameter; `payload_bytes` the payload's
length; `train_state.step` the SGD steps taken. Loading reads those four.
`config.train` holds the train config's fields when `train` wrote the file,
and `config.data.train_frac` the fraction of eyes `crossfit train` trained
on, which `crossfit eval --subset` splits by; loading reads neither.

`train` runs its steps on one OpenBLAS thread and gives the caller's count
back before each `on_epoch` call. The count changes BLAS's float summation
order, so one thread makes a checkpoint the same on any host and under any
caller; and a second thread spin-waits through the step's non-GEMM work,
nearly doubling its CPU time for little wall time. Evaluation runs at the
caller's count: no training state depends on it, and its conv GEMM gains
from a second core.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import struct
from collections import OrderedDict
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, ShapeError, Tensor
from .model import CrossFiTConfig, CrossFiTModel

__all__ = [
    "TrainConfig", "TrainingDiverged", "CheckpointError", "NonFiniteOutputError",
    "MetricsReport", "sgd_momentum_step", "quadratic_weighted_kappa", "roc_auc_ovr",
    "finite_outputs", "predict_dataset", "evaluate", "train", "Checkpoint", "field_defaults",
    "save_checkpoint", "load_checkpoint", "json_type_error", "config_from_dict",
    "build_model_from_checkpoint",
]

CHECKPOINT_MAGIC = b"CFIT"
CHECKPOINT_VERSION = 1


class TrainingDiverged(FloatingPointError):
    """Loss became non-finite; carries the epoch/step where it happened."""


class CheckpointError(ValueError):
    """Malformed, truncated, or incompatible checkpoint data."""


class NonFiniteOutputError(FloatingPointError):
    """A model's outputs held NaN or inf: finite weights overflowed at inference."""


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters."""

    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 16
    epochs: int = 40
    seed: int = 0
    hflip: bool = True

    def __post_init__(self):
        # lr = 0 is allowed (freezes parameters, useful as a sanity mode);
        # the comparison also refuses NaN
        for name in ("lr", "momentum", "weight_decay"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ContractError(f"{name} {value} must be finite and >= 0")
        if self.batch_size < 1 or self.epochs < 0 or self.seed < 0:
            raise ContractError("batch size must be >= 1, epochs and seed >= 0")


def sgd_momentum_step(params: dict[str, Tensor], velocities: dict[str, np.ndarray],
                      cfg: TrainConfig) -> None:
    """Classic momentum with coupled weight decay:
    v <- mu*v + g + wd*theta;  theta <- theta - lr*v."""
    for name, p in params.items():
        if p.grad is None:
            continue
        if p.grad.shape != p.data.shape:
            raise ShapeError(f"gradient/parameter shape mismatch on {name}")
        v = velocities[name]
        v *= cfg.momentum
        v += p.grad
        if cfg.weight_decay:
            v += cfg.weight_decay * p.data
        p.data -= cfg.lr * v


# ---------------------------------------------------------------------------
# metrics


def quadratic_weighted_kappa(confusion: np.ndarray) -> float:
    """Chance-corrected agreement with squared-distance weights.

    w_ij = (i-j)^2 / (C-1)^2, kappa = 1 - sum(w*O) / sum(w*E) where E is the
    outer product of the marginals scaled to the total count. A confusion
    with all mass on one diagonal cell makes both sums zero; that is perfect
    agreement, so kappa is 1.
    """
    o = np.asarray(confusion, dtype=np.float64)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise ShapeError(f"confusion must be square, got {o.shape}")
    total = o.sum()
    if total <= 0:
        raise ContractError("empty confusion matrix")
    c = o.shape[0]
    idx = np.arange(c)
    w = (idx[:, None] - idx[None, :]) ** 2 / max((c - 1) ** 2, 1)
    e = np.outer(o.sum(axis=1), o.sum(axis=0)) / total
    denom = (w * e).sum()
    if denom == 0.0:
        return 1.0
    return float(1.0 - (w * o).sum() / denom)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, each tie group given its members' mean rank.

    A group holding sorted positions start..end-1 gets (start + 1 + end) / 2,
    a half-integer computed exactly, so the ranks equal scipy's
    `rankdata(x)` bit for bit.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def roc_auc_ovr(scores: np.ndarray, positives: np.ndarray) -> float | None:
    """Probability a random positive outranks a random negative, ties 0.5.

    Returns None when only one class is present (AUC undefined).
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ShapeError("scores and labels must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise ContractError("AUC scores must be finite")
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)  # average ranks handle ties as 0.5
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class MetricsReport:
    kappa: float
    accuracy: float
    macro_auc: float | None
    per_class_auc: list
    confusion: np.ndarray
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "accuracy": self.accuracy,
            "macro_auc": self.macro_auc,
            "per_class_auc": self.per_class_auc,
            "confusion": self.confusion.astype(int).tolist(),
            "n_samples": self.n_samples,
        }


def finite_outputs(outputs: np.ndarray) -> None:
    """Raise NonFiniteOutputError when a row of the (eyes, classes) array
    `outputs` holds NaN or inf. That error names the outcome, so the pass
    that made `outputs` can run with numpy's overflow warnings off.
    """
    bad = int((~np.isfinite(outputs).all(axis=1)).sum())
    if bad:
        raise NonFiniteOutputError(
            f"model outputs are non-finite (NaN or inf) for {bad} of "
            f"{len(outputs)} eyes: the forward pass overflowed")


# an overflow ends in NonFiniteOutputError, so numpy's overflow warnings are not printed
@np.errstate(over="ignore", invalid="ignore")
def predict_dataset(model: CrossFiTModel, dataset, batch_size: int = 32):
    """Deterministic full pass; returns (predicted grades, probabilities).

    Raises NonFiniteOutputError when an eye's probabilities hold NaN or inf,
    checked by `finite_outputs` once every batch has run.
    """
    n = len(dataset.grades)
    grades = np.zeros(n, dtype=np.int64)
    probs = np.zeros((n, model.cfg.num_classes))
    for start in range(0, n, batch_size):
        sl = slice(start, start + batch_size)
        grades[sl], probs[sl] = model.predict_batch(
            dataset.images1[sl], dataset.images2[sl], dataset.od1[sl], dataset.od2[sl])
    finite_outputs(probs)
    return grades, probs


def metrics_from_predictions(labels: np.ndarray, grades: np.ndarray,
                             probs: np.ndarray, num_classes: int) -> MetricsReport:
    """A class absent from `labels`, or the only one in it, has no AUC: its
    `per_class_auc` entry is None, and the macro mean leaves it out."""
    labels = np.asarray(labels, dtype=np.int64)
    grades = np.asarray(grades, dtype=np.int64)
    if labels.shape != grades.shape:
        raise ContractError(f"labels {labels.shape} and grades {grades.shape} disagree")
    n = labels.size
    if n == 0:
        raise ContractError("empty evaluation set")
    for name, v in (("labels", labels), ("grades", grades)):
        if v.min() < 0 or v.max() >= num_classes:
            raise ContractError(f"{name} span [{v.min()}, {v.max()}], "
                                f"outside [0, {num_classes})")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, grades), 1)
    accuracy = float(np.trace(confusion)) / n
    per_class = [roc_auc_ovr(probs[:, c], labels == c) for c in range(num_classes)]
    defined = [a for a in per_class if a is not None]
    macro = float(np.mean(defined)) if defined else None
    return MetricsReport(quadratic_weighted_kappa(confusion), accuracy,
                         macro, per_class, confusion, n)


def evaluate(model: CrossFiTModel, dataset, batch_size: int = 32) -> MetricsReport:
    grades, probs = predict_dataset(model, dataset, batch_size)
    return metrics_from_predictions(dataset.grades, grades, probs,
                                    model.cfg.num_classes)


# ---------------------------------------------------------------------------
# training


def _flip_horizontal(imgs1, imgs2, od1, od2, which: np.ndarray) -> None:
    """Mirror the eyes `which` left-right, in place: callers pass the
    batch's own gathered copies, never the dataset's arrays."""
    imgs1[which] = imgs1[which, :, ::-1]
    imgs2[which] = imgs2[which, :, ::-1]
    od1[which, 0] = 1.0 - od1[which, 0]
    od2[which, 0] = 1.0 - od2[which, 0]


@functools.lru_cache(maxsize=None)
def _openblas(name: str):
    """`name` ("get_num_threads" or "set_num_threads") of the OpenBLAS numpy
    loaded, or None. Looked up once per process: the libraries a process
    has loaded stay loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = (([], ctypes.c_int) if name == "get_num_threads"
                                           else ([ctypes.c_int], None))
                return fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then give back the
    count it had, also when the block raises; where no OpenBLAS can be
    asked, leave BLAS alone."""
    get, put = _openblas("get_num_threads"), _openblas("set_num_threads")
    with contextlib.ExitStack() as restore:
        if get and put:
            restore.callback(put, get())
            put(1)
        yield


# a blow-up ends in TrainingDiverged, so numpy's overflow warnings are not printed
@np.errstate(over="ignore", invalid="ignore")
def train(model: CrossFiTModel, train_set, cfg: TrainConfig, on_epoch=None):
    """Epochs of shuffled minibatch SGD; returns (checkpoint, per-epoch losses).

    Fully determined by cfg.seed: shuffling and flip augmentation draw from
    one dedicated stream, and nothing else is stochastic. Each epoch's steps
    run on one OpenBLAS thread, so the checkpoint does not depend on the
    host or the caller's thread count, and no second core spins through the
    non-GEMM work. `on_epoch`, when given, is called as
    on_epoch(epoch_index, mean_loss) after every epoch, at the caller's
    count, which is also back when `train` returns or raises.
    Raises TrainingDiverged on a non-finite loss, or when the last step
    leaves a parameter non-finite.
    """
    rng = ad.make_rng(cfg.seed)
    params = model.named_parameters()
    velocities = {name: np.zeros_like(p.data) for name, p in params.items()}
    n = len(train_set.grades)
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        with _one_blas_thread():
            for start in range(0, n, cfg.batch_size):
                take = order[start:start + cfg.batch_size]
                i1 = train_set.images1[take]
                i2 = train_set.images2[take]
                o1 = train_set.od1[take]
                o2 = train_set.od2[take]
                labels = train_set.grades[take]
                if cfg.hflip:
                    which = rng.uniform(size=len(take)) < 0.5
                    if which.any():
                        _flip_horizontal(i1, i2, o1, o2, which)
                loss = model.loss_batch(i1, i2, o1, o2, labels)
                value = loss.item()
                if not np.isfinite(value):
                    ad.active_tape().clear()
                    raise TrainingDiverged(
                        f"non-finite loss {value} at epoch {epoch} step {step}")
                ad.backward(loss)
                sgd_momentum_step(params, velocities, cfg)
                for p in params.values():
                    p.grad = None
                epoch_loss += value
                batches += 1
                step += 1
        history.append(epoch_loss / max(batches, 1))
        if on_epoch is not None:
            on_epoch(epoch, history[-1])
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            raise TrainingDiverged(f"parameter {name} holds NaN or inf after the "
                                   f"last step (epoch {cfg.epochs - 1} step {step - 1})")
    ckpt = Checkpoint.from_model(model, train_cfg=cfg, step=step)
    return ckpt, history


# ---------------------------------------------------------------------------
# checkpoint persistence


def _json_type(v) -> str:
    """The JSON type of a config value, in the words an error message uses."""
    if isinstance(v, bool):
        return "true or false"
    if isinstance(v, int):
        return "an integer"
    if isinstance(v, float):
        return "a number"
    if isinstance(v, str):
        return "a string"
    if isinstance(v, (list, tuple)) and all(_json_type(x) == "an integer" for x in v):
        return "a list of integers"
    return type(v).__name__


# config keys that also take one value per encoder stage
_PER_STAGE_KEYS = ("encoder.stride", "encoder.kernel")


def json_type_error(key: str, value, default) -> str | None:
    """None when config key `key` may take `value`, else what is wrong.

    A key takes its default's JSON type, a tuple read as a list: an integer
    key refuses 1.5, 2.0 and true, a boolean key refuses "no"; a number key
    takes integers, and a per-stage key an integer or a list of integers.
    """
    allowed = {_json_type(default)}
    if "a number" in allowed:
        allowed.add("an integer")
    if key in _PER_STAGE_KEYS:
        allowed |= {"an integer", "a list of integers"}
    if _json_type(value) in allowed:
        return None
    return f"must be {' or '.join(sorted(allowed))}, got {json.dumps(value)}"


def field_defaults(cls, section: str) -> dict:
    """"section.field" -> declared default of each field of config dataclass
    `cls`, a nested config's fields under its own name and a tuple as a list.
    It reads the declarations, not an instance, which would hold an int
    `stride` once per stage."""
    defaults = {}
    for f in fields(cls):
        if f.default is MISSING:  # a nested config, built by its class
            defaults.update(field_defaults(f.default_factory, f.name))
        else:
            defaults[f"{section}.{f.name}"] = (list(f.default) if isinstance(f.default, tuple)
                                               else f.default)
    return defaults


# fields that headers written before the field existed lack, and the value
# such a header means
_ABSENT_MEANS = {"cfa.zero_init_out": False}


def config_from_dict(cls, d, prefix: str = ""):
    """The config dataclass `cls` with the values of `d`, one per field;
    a nested config is a nested dict, a tuple a list.

    Raises ContractError for a missing field or a value of another JSON type
    than the field's default, naming it by its dotted path, and for values
    the config itself refuses. Keys that are not fields are ignored, so
    headers carrying since-removed fields still load.
    """
    if not isinstance(d, dict):
        raise ContractError(f"{prefix.rstrip('.') or 'config'} must be an object, "
                            f"got {json.dumps(d)}")
    values = {}
    for f in fields(cls):
        name = prefix + f.name
        if f.name not in d:
            if name not in _ABSENT_MEANS:
                raise ContractError(f"{name} is missing")
            values[f.name] = _ABSENT_MEANS[name]
        elif f.default is MISSING:  # a nested config, built by its class
            values[f.name] = config_from_dict(f.default_factory, d[f.name], name + ".")
        else:
            value = d[f.name]
            problem = json_type_error(name, value, f.default)
            if problem:
                raise ContractError(f"{name} {problem}")
            values[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**values)


@dataclass
class Checkpoint:
    """Named float32 tensors plus the configs needed to rebuild the model."""

    config: dict
    tensors: "OrderedDict[str, np.ndarray]"
    step: int = 0

    @classmethod
    def from_model(cls, model: CrossFiTModel, train_cfg: TrainConfig | None = None,
                   step: int = 0) -> "Checkpoint":
        tensors = OrderedDict()
        for name, p in model.parameters():
            tensors[f"param/{name}"] = p.data.astype(np.float32)
        config = {"model": asdict(model.cfg)}
        if train_cfg is not None:
            config["train"] = asdict(train_cfg)
        return cls(config, tensors, step)

    def restore(self, model: CrossFiTModel) -> None:
        """Copy parameters into a compatible model; validates every name and
        shape before touching anything, so a mismatch never partially loads."""
        params = model.named_parameters()
        staged = []
        for name, p in params.items():
            key = f"param/{name}"
            if key not in self.tensors:
                raise CheckpointError(f"checkpoint missing tensor {key}")
            stored = self.tensors[key]
            if tuple(stored.shape) != tuple(p.data.shape):
                raise CheckpointError(
                    f"shape mismatch on {key}: checkpoint {stored.shape} "
                    f"vs model {p.data.shape}")
            staged.append((p, stored))
        for p, stored in staged:
            p.data = stored.astype(p.data.dtype)  # a fresh array: SGD updates it in place


def build_model_from_checkpoint(ckpt: Checkpoint) -> CrossFiTModel:
    try:
        stored = ckpt.config["model"]
    except (KeyError, TypeError):
        raise CheckpointError("checkpoint holds no model config") from None
    try:
        # the seed is immaterial: `restore` overwrites every parameter
        model = CrossFiTModel(ad.make_rng(0), config_from_dict(CrossFiTConfig, stored))
    except ContractError as err:
        raise CheckpointError(f"checkpoint holds no valid model config: {err}") from None
    ckpt.restore(model)
    return model


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    index = []
    offset = 0
    payloads = []
    for name, arr in ckpt.tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        index.append({"name": name, "shape": list(arr.shape),
                      "offset": offset, "length": len(data)})
        payloads.append(data)
        offset += len(data)
    header = {"config": ckpt.config, "tensors": index,
              "payload_bytes": offset, "train_state": {"step": ckpt.step}}
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for data in payloads:
            fh.write(data)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < 10:
        raise CheckpointError(f"{path}: truncated header")
    version, header_len = struct.unpack("<HI", blob[4:10])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    header_end = 10 + header_len
    if len(blob) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[10:header_end].decode("utf-8"))
        config, payload_bytes = header["config"], header["payload_bytes"]
        step = header["train_state"]["step"]
        index = [(e["name"], tuple(e["shape"]), e["offset"], e["length"])
                 for e in header["tensors"]]
    except (ValueError, KeyError, TypeError, RecursionError) as err:
        # ValueError covers undecodable UTF-8 and malformed JSON,
        # RecursionError JSON nested too deep to decode
        raise CheckpointError(f"{path}: corrupt header ({err!r})") from None
    if not _is_count(step):
        raise CheckpointError(f"{path}: train_state.step {json.dumps(step)} is not a count")
    payload = blob[header_end:]
    if len(payload) != payload_bytes:
        raise CheckpointError(
            f"{path}: truncated payload ({len(payload)} of {payload_bytes} bytes)")
    tensors = OrderedDict()
    for name, shape, off, length in index:
        # counts first: a negative dimension pair keeps the product intact;
        # math.prod on Python ints cannot wrap around as an int64 product can
        if (not isinstance(name, str)
                or not all(_is_count(v) for v in (*shape, off, length))
                or length != math.prod(shape) * 4
                or off + length > len(payload)):
            raise CheckpointError(f"{path}: corrupt index entry for tensor {name}")
        if name in tensors:
            raise CheckpointError(f"{path}: index names tensor {name} twice")
        try:
            arr = np.frombuffer(payload[off:off + length], dtype="<f4").reshape(shape)
        except ValueError:  # an extent numpy cannot index, beside a 0 extent
            raise CheckpointError(f"{path}: corrupt index entry for tensor {name}") from None
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name} holds NaN or infinite values")
        tensors[name] = arr.copy()
    return Checkpoint(config, tensors, step)
