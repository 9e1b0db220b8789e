"""Dense tensors with reverse-mode automatic differentiation on a tape.

Tensors wrap numpy arrays, in any memory layout: `conv2d`, for one, hands
out an NCHW view of channels-last memory. A tensor keeps its data's float
dtype (other data becomes float64), and every op computes in its operands'
dtypes, as numpy does: a float32 model runs in float32 wherever it is
called. The default dtype is read only when `parameter` creates a
parameter: float64 (test mode) unless the construction runs inside
`default_dtype_scope(np.float32)` (fast mode), as the CLI's model
construction does. Every differentiable op appends one node to
the active tape; backward replays the tape once in reverse, accumulating
gradients into every requires_grad leaf. No graph optimization, no
higher-order derivatives.

The tape holds gradient slots, not tensors: a node keeps its output's slot,
its inputs' slots and the rule that maps one to the others, and each rule
keeps only the arrays or shapes it reads. An activation is therefore freed
as soon as the forward pass drops its tensor, unless a rule reads it.

The module needs numpy alone. `gelu`'s erf is Cody's rational Chebyshev
fits (Math. Comp. 23, 1969), evaluated in the input's dtype: cephes'
`ndtr.c` pair in float64, within 1 ulp of scipy's erf and 3 ulp of
`math.erf`; in float32, the single clamped rational of Eigen's and XLA's
float32 erf, within 5e-7 absolute. Float32 GELU therefore differs from a
scipy-based one by a few ulp.

Importing this module tells glibc's allocator to keep freed memory in the
process (`mallopt`, once; a no-op where libc has no `mallopt`). A training
step frees its forward activations during backward; by default glibc hands
those pages back to the OS and the next step faults them in again, thousands
of page faults per step. Kept, each step reuses the last one's pages. Only
where memory comes from changes: no computed value depends on it.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "ContractError", "DegenerateRowError",
    "LabelError", "parameter", "backward", "no_grad", "active_tape",
    "default_dtype_scope", "make_rng",
    "add", "mul", "scale", "matmul", "relu", "gelu",
    "softmax_lastdim", "layer_norm", "conv2d", "check_conv2d_geometry",
    "cross_entropy_logits",
    "sum_", "mean_", "maximum", "concat", "reshape", "transpose",
    "slice_", "linear", "gradcheck",
    "Linear", "LayerNorm", "xavier_uniform",
]


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class ContractError(ValueError):
    """An op precondition other than shape was violated."""


class DegenerateRowError(FloatingPointError):
    """A softmax slice was entirely -inf; callers must guard such rows."""


class LabelError(ValueError):
    """A class label lies outside [0, C)."""


_DEFAULT_DTYPE = np.float64


@contextlib.contextmanager
def default_dtype_scope(dtype):
    """Create parameters in `dtype`, test mode's float64 or fast mode's
    float32, inside the block; restore the prior default on exit."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported dtype {dt}; use float32 or float64")
    prev, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dt.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Serve blocks up to 32 MiB from the heap instead of fresh mmaps, and
    return the heap's free top to the OS only once it exceeds 1 GiB."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()


def make_rng(seed: int) -> np.random.Generator:
    """Explicitly seeded PCG64 stream; same seed, same values."""
    return np.random.Generator(np.random.PCG64(seed))


class _Slot:
    """A tensor's gradient accumulator; the tape holds these, not tensors."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


def _slot_of(t: "Tensor") -> _Slot:
    """t's slot, made on first use: only tensors that carry a gradient get one."""
    s = t._slot
    if s is None:
        s = t._slot = _Slot()
    return s


class Tensor:
    """n-d array plus gradient slot, participating in the active tape.

    `.grad` reads and writes the slot; a tensor gets one only once it
    carries a gradient, so inference makes none."""

    __slots__ = ("data", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self._slot: _Slot | None = None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if value is not None or self._slot is not None:
            _slot_of(self).grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return slice_(self, idx)


def parameter(data) -> Tensor:
    """A trainable tensor of `data` in the default dtype."""
    return Tensor(np.asarray(data, dtype=_DEFAULT_DTYPE), requires_grad=True)


class _Node:
    """One executed op: its output's slot, its inputs' slots (None where an
    input needs no gradient) and dtypes, and the rule pushing grads to them.

    It holds no tensor. The rule keeps only the arrays or shapes it reads, so
    the node pins no activation that backward does not need.
    """

    __slots__ = ("out", "inputs", "dtypes", "backward_fn")

    def __init__(self, out: _Slot, inputs: tuple[_Slot | None, ...], dtypes: tuple,
                 backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.out = out
        self.inputs = inputs
        self.dtypes = dtypes
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed differentiable ops (a Wengert list).

    Execution order is a topological order by construction; the backward
    sweep visits each node exactly once, in reverse.
    """

    def __init__(self):
        self.recording = True
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def clear(self) -> None:
        self._nodes.clear()


_TAPE = Tape()


def active_tape() -> Tape:
    return _TAPE


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (inference / numeric probing)."""
    prev = _TAPE.recording
    _TAPE.recording = False
    try:
        yield
    finally:
        _TAPE.recording = prev


def _record(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    track = _TAPE.recording and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        slots = tuple(_slot_of(t) if t.requires_grad else None for t in inputs)
        dtypes = tuple(t.data.dtype for t in inputs)
        _TAPE._nodes.append(_Node(_slot_of(out), slots, dtypes, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad leaf reachable from `loss`.

    The tape is consumed: it is cleared after the sweep, ready for the next
    forward pass.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(_TAPE._nodes):
        g = node.out.grad
        if g is None:
            continue
        node.out.grad = None  # free intermediate storage as we go
        g_free = True  # no slot holds g's memory yet
        for s, dt, gi in zip(node.inputs, node.dtypes, node.backward_fn(g)):
            if gi is None or s is None:
                continue
            if s.grad is None:
                # add at equal shapes, reshape, transpose and concat hand
                # back g or a view of it; every other rule returns a fresh array.
                # The node has dropped g, so one slot may own a view of all of
                # g, in whatever layout; a second alias, or a part of g, is copied.
                if gi.dtype != dt:
                    s.grad = gi.astype(dt)
                elif not np.may_share_memory(gi, g):
                    s.grad = gi
                elif g_free and gi.size == g.size:
                    s.grad = gi
                    g_free = False
                else:
                    s.grad = gi.copy()
            else:
                s.grad += gi
    _TAPE.clear()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out broadcast dimensions so g collapses back to `shape`."""
    if g.shape == shape:
        return g
    # numpy sums in memory order; summing in C order makes the result the
    # same whatever layout g arrives in
    g = np.ascontiguousarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    out = av * bv

    def bw(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _record(out, (a, b), bw)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = x.data * s

    def bw(g):
        return (g * s,)

    return _record(out, (x,), bw)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the whole gradient routes to `a`."""
    av, bv = a.data, b.data
    out = np.maximum(av, bv)

    def bw(g):
        take_a = av >= bv  # ties included: first operand wins
        ga = np.where(take_a, g, 0.0)
        gb = np.where(take_a, 0.0, g)
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return _record(out, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bw(g):
        # out > 0 exactly where x > 0 (NaN fails both), so x itself can go
        return (g * (out > 0.0),)

    return _record(out, (x,), bw)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# erf as Cody's rational Chebyshev fits (Math. Comp. 23, 1969). Float64 uses
# cephes `ndtr.c`'s pair: x·T(x²)/U(x²) for |x| <= 1, 1 − exp(−x²)·P(|x|)/Q(|x|)
# above. Float32 uses one odd/even rational on [−4, 4], the fit in Eigen's and
# XLA's float32 erf. Coefficients run from the highest power down.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF32_ALPHA = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                -1.60960333262415e-02)
_ERF32_BETA = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
               -7.37332916720468e-03, -1.42647390514189e-02)


def _horner(z: np.ndarray, coefs: tuple) -> np.ndarray:
    """Polynomial with `coefs` (highest power first) at z, in z's dtype."""
    acc = z * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= z
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """Error function in x's dtype, with no RuntimeWarning for ±inf or NaN.

    Every branch runs on clamped inputs. Float64 clamps |x| at 6, where
    erfc < 2.2e-17 so erf rounds to ±1; it is within 1 ulp of cephes' erf
    and 3 ulp of `math.erf`. Float32 clamps at 4, beyond which erf rounds
    to ±1 in float32; its absolute error is below 5e-7 (4.2e-7 measured on
    a dense grid over [-10, 10]).
    """
    if x.dtype == np.float32:
        c = np.clip(x, -4.0, 4.0)
        z = c * c
        out = _horner(z, _ERF32_ALPHA)
        out *= c
        out /= _horner(z, _ERF32_BETA)
        return out
    c = np.clip(x, -1.0, 1.0)
    z = c * c
    small = c * _horner(z, _ERF_T) / _horner(z, _ERF_U)
    ax = np.abs(x)
    a = np.clip(ax, 1.0, 6.0)
    large = 1.0 - np.exp(-a * a) * _horner(a, _ERFC_P) / _horner(a, _ERFC_Q)
    return np.where(ax <= 1.0, small, np.copysign(large, x))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form x * Phi(x), not the tanh approximation.

    Phi(x) = (1 + erf(x / sqrt 2)) / 2, with `_erf`'s rational fits: within
    1 ulp of cephes' erf in float64; in float32 within 5e-7 absolute (4.2e-7
    measured), so Phi is within 2.5e-7 and the output within ~2.5e-7·|x|.
    """
    xd = x.data
    phi = _erf(xd * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    out = xd * phi
    slope = None
    if _TAPE.recording and x.requires_grad:
        # d/dx x·Phi(x), taken now so that backward keeps one array
        slope = phi + xd * (np.exp(-0.5 * xd * xd) * _INV_SQRT2PI)

    def bw(g):
        return (g * slope,)

    return _record(out.astype(x.dtype, copy=False), (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, numpy semantics (leading dims broadcast)."""
    if a.ndim < 1 or b.ndim < 1 or a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul: inner extents disagree for {a.shape} x {b.shape}")
    av, bv = a.data, b.data
    if a.ndim > 2 and b.ndim == 2:
        # fold a's leading axes into rows: one GEMM per direction, and the
        # weight gradient needs no batched product summed over the batch
        a_shape = av.shape
        # bw keeps a2 and the shape, not av: a2 is a copy when av is strided
        a2 = av.reshape(-1, a_shape[-1])
        out = (a2 @ bv).reshape(a_shape[:-1] + bv.shape[1:])

        def bw_rows(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ bv.T).reshape(a_shape), a2.T @ g2

        return _record(out, (a, b), bw_rows)
    out = av @ bv

    def bw(g):
        bt = np.swapaxes(bv, -1, -2) if bv.ndim > 1 else bv
        at = np.swapaxes(av, -1, -2) if av.ndim > 1 else av
        ga = _unbroadcast(g @ bt, av.shape)
        gb = _unbroadcast(at @ g, bv.shape)
        return ga, gb

    return _record(out, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b with w of shape (d_in, d_out)."""
    return add(matmul(x, w), b)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)  # row-major, view where possible
    in_shape = x.shape

    def bw(g):
        return (g.reshape(in_shape),)

    return _record(out, (x,), bw)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.transpose(x.data, axes)
    inv = np.argsort(axes)

    def bw(g):
        return (np.transpose(g, inv),)

    return _record(out, (x,), bw)


def slice_(x: Tensor, idx) -> Tensor:
    out = x.data[idx]
    shape, dtype = x.shape, x.dtype

    def bw(g):
        gx = np.zeros(shape, dtype)
        gx[idx] = g
        return (gx,)

    return _record(np.array(out, copy=True), (x,), bw)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def bw(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _record(out, tuple(parts), bw)


def sum_(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axes, keepdims=keepdims)
    shape = x.shape

    def bw(g):
        if axes is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, shape).copy(),)

    return _record(np.asarray(out), (x,), bw)


def mean_(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    if axes is None:
        count = x.size
    else:
        ax = (axes,) if isinstance(axes, int) else tuple(axes)
        count = int(np.prod([x.shape[a] for a in ax]))
    return scale(sum_(x, axes=axes, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# normalization, softmax, losses


def _lastdim_max(a: np.ndarray) -> np.ndarray:
    """`np.max(a, axis=-1, keepdims=True)`, taken as a column reduction of a
    contiguous transposed copy: numpy vectorises a max across contiguous
    rows far better than along short ones such as attention's key axis.
    A max is exact, so the result is the same."""
    n = a.shape[-1]
    return np.ascontiguousarray(a.reshape(-1, n).T).max(axis=0).reshape(*a.shape[:-1], 1)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis; -inf entries map to exact 0."""
    m = _lastdim_max(x.data)
    if np.isneginf(m).any():
        raise DegenerateRowError("softmax slice with every entry -inf")
    e = np.exp(x.data - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record(out, (x,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1 (biased, +eps), then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gamma.data
    out = xhat * gd + beta.data

    def bw(g):
        gy = g * gd
        gmean = gy.mean(axis=-1, keepdims=True)
        gxhat = (gy * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gy - gmean - xhat * gxhat)
        axes = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        return gx, ggamma, gbeta

    return _record(out, (x, gamma, beta), bw)


def cross_entropy_logits(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_logits wants BxC logits, got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise LabelError(f"labels must lie in [0,{c}), got range "
                         f"[{labels.min()},{labels.max()}]")
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    lse = np.log(z) + m
    picked = logits.data[np.arange(n), labels]
    out = np.asarray((lse[:, 0] - picked).mean())

    def bw(g):
        p = e / z  # softmax
        p[np.arange(n), labels] -= 1.0
        return (p * (float(g) / n),)

    return _record(out, (logits,), bw)


# ---------------------------------------------------------------------------
# convolution


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(n,c,H,W) padded input -> (n*ho*wo, c*k*k) patch matrix, one row per
    output position, so a whole batch convolves in one GEMM."""
    n, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, ho, wo, c, k, k),
        strides=(s0, s2 * stride, s3 * stride, s1, s2, s3),
        writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(n * ho * wo, c * k * k)


def check_conv2d_geometry(k: int, stride: int, pad: int) -> None:
    """Raise ContractError unless conv2d serves this kernel/stride/pad.

    Even kernels have no symmetric same-padding; only the exact
    non-overlapping patch tiling (stride == k, pad == 0) works.
    """
    if k % 2 == 0 and (stride != k or pad != 0):
        raise ContractError(f"even kernel {k} requires stride == kernel and no padding, "
                            f"got stride {stride}, pad {pad}")


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation: x (n,c_in,H,W), w (c_out,c_in,k,k).

    An even kernel k is accepted only as a patch tiling, stride == k and
    pad == 0 (see `check_conv2d_geometry`); otherwise ContractError.
    """
    xd = x.data
    if xd.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d wants (n,c,H,W) and (c_out,c_in,k,k), got {x.shape}, {w.shape}")
    n, c_in, h, wdt = xd.shape
    c_out, c_in_w, k, k2 = w.shape
    if c_in != c_in_w or k != k2:
        raise ShapeError(f"conv2d kernel {w.shape} incompatible with input {x.shape}")
    check_conv2d_geometry(k, stride, pad)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wdt + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output extent {ho}x{wo} non-positive for input {h}x{wdt}, "
                         f"kernel {k}, stride {stride}, pad {pad}")
    hp, wp = h + 2 * pad, wdt + 2 * pad
    if pad:
        # one zero fill and one copy; the copy also moves a channels-last
        # input into the C-order layout the patch gather reads fastest
        xp = np.zeros((n, c_in, hp, wp), xd.dtype)
        xp[:, :, pad:pad + h, pad:pad + wdt] = xd
    else:
        xp = xd
    cols = _im2col(xp, k, stride, ho, wo)                       # (n*ho*wo, ckk)
    wmat = w.data.reshape(c_out, c_in * k * k)
    w_shape, x_grad = w.shape, x.requires_grad
    # GEMM rows are (n, ho, wo): the output is channels-last in memory, handed
    # out as an NCHW view. Elementwise ops after it keep that layout, and the
    # gradient that comes back in it reshapes to the GEMM's rows with no copy.
    out = (cols @ wmat.T).reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2)

    def bw(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, c_out)
        gw = (gmat.T @ cols).reshape(w_shape)
        if not x_grad:  # an image batch: its gradient would be dropped
            return None, gw
        gcols = (gmat @ wmat).reshape(n, ho, wo, c_in, k, k).transpose(0, 3, 4, 5, 1, 2)
        # channels-last, like the only input that needs a gradient: a later
        # stage's input, which is an earlier conv2d's output
        gxp = np.zeros((n, hp, wp, c_in), cols.dtype).transpose(0, 3, 1, 2)
        for ki in range(k):
            for kj in range(k):
                gxp[:, :, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride] += gcols[:, :, ki, kj]
        return gxp[:, :, pad:pad + h, pad:pad + wdt], gw

    return _record(out, (x, w), bw)


# ---------------------------------------------------------------------------
# parameter-owning layers


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """Affine layer with xavier-uniform weight, zero bias."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 zero_init: bool = False):
        if zero_init:
            w = np.zeros((d_in, d_out))
        else:
            w = xavier_uniform(rng, (d_in, d_out), d_in, d_out)
        self.w = parameter(w)
        self.b = parameter(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)

    def parameters(self):
        yield "w", self.w
        yield "b", self.b


class LayerNorm:
    """Last-axis layer normalization with learned affine (gamma=1, beta=0 init)."""

    def __init__(self, dim: int):
        self.gamma = parameter(np.ones(dim))
        self.beta = parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)

    def parameters(self):
        yield "gamma", self.gamma
        yield "beta", self.beta


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def gradcheck(fn: Callable[[], Tensor], params: Sequence[Tensor],
              eps: float = 1e-5, max_elems: int | None = None,
              rng: np.random.Generator | None = None) -> float:
    """Central-difference check of d fn / d params; returns max relative error.

    `fn` must rebuild the forward pass from the current parameter values on
    every call. Analytic gradients come from one tape sweep; numeric probes
    run untracked. Use float64 parameters; float32 probes are unreliable.
    """
    for p in params:
        p.grad = None
    loss = fn()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_elems is not None and n > max_elems:
            idxs = (rng or np.random.default_rng(0)).choice(n, size=max_elems, replace=False)
        else:
            idxs = range(n)
        for i in idxs:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                hi = fn().item()
                flat[i] = orig - eps
                lo = fn().item()
            flat[i] = orig
            num = (hi - lo) / (2.0 * eps)
            a = ana.reshape(-1)[i]
            err = abs(a - num) / max(abs(a), abs(num), 1e-6)
            worst = max(worst, err)
    return worst
