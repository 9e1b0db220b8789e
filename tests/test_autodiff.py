"""Tape autodiff: hand-computed oracles, contracts, finite-difference checks."""

import ctypes
import math
import os
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossfit.autodiff as ad
from crossfit.attention import CfaConfig
from crossfit.autodiff import (
    ContractError, DegenerateRowError, LabelError, ShapeError, Tensor,
    backward, gradcheck, make_rng, no_grad, parameter,
)
from crossfit.encoder import EncoderConfig
from crossfit.model import CrossFiTConfig, CrossFiTModel


# ---------------------------------------------------------------------------
# forward oracles (values computed by hand / closed form)


def test_matmul_oracle():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_contract():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_oracle():
    out = ad.softmax_lastdim(Tensor([1.0, 2.0, 3.0]))
    expected = np.array([0.09003057, 0.24472847, 0.66524096])
    np.testing.assert_allclose(out.data, expected, atol=5e-7)
    assert abs(out.data.sum() - 1.0) <= 1e-12


def test_softmax_neg_inf_columns_exact_zero():
    row = np.array([1.0, -np.inf, 3.0, -np.inf])
    out = ad.softmax_lastdim(Tensor(row))
    assert out.data[1] == 0.0 and out.data[3] == 0.0
    assert abs(out.data.sum() - 1.0) <= 1e-12


def test_softmax_degenerate_row_raises():
    with pytest.raises(DegenerateRowError):
        ad.softmax_lastdim(Tensor([-np.inf, -np.inf]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5,), (3, 7), (16, 4, 32, 32), (2, 0, 3)])
def test_softmax_row_max_equals_np_max(dtype, shape):
    rng = make_rng(11)
    x = rng.standard_normal(shape).astype(dtype)
    x[rng.uniform(size=shape) < 0.3] = -np.inf     # masked keys
    if x.size:
        x.reshape(-1, shape[-1])[:, 0] = 0.5        # keep every row finite
    want = np.max(x, axis=-1, keepdims=True)
    for arr in (x, np.swapaxes(x, 0, -1).copy().swapaxes(0, -1)):   # C and strided
        got = ad._lastdim_max(arr)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    e = np.exp(x - want)
    assert ad.softmax_lastdim(Tensor(x)).data.tobytes() == (
        e / e.sum(axis=-1, keepdims=True)).tobytes()


def test_layer_norm_oracle():
    x = Tensor([[1.0, 3.0]])
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    out = ad.layer_norm(x, g, b)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_affine_shape_contract():
    with pytest.raises(ShapeError):
        ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_gelu_oracle():
    out = ad.gelu(Tensor([1.0]))
    assert abs(out.data[0] - 0.8413447460685429) <= 1e-10
    # exact CDF form, not the tanh surrogate
    assert abs(out.data[0] - 0.84134) <= 5e-6


def test_gelu_is_exact_not_tanh():
    x = 3.0
    tanh_form = 0.5 * x * (1 + math.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))
    out = ad.gelu(Tensor([x])).data[0]
    exact = x * 0.5 * (1 + math.erf(x / math.sqrt(2)))
    assert abs(out - exact) <= 1e-12
    assert abs(out - tanh_form) > 1e-6


# a dense grid over [-10, 10] that also holds 0 and both clamp points exactly
ERF_GRID = np.union1d(np.linspace(-10.0, 10.0, 400_001), [-6.0, -4.0, 0.0, 4.0, 6.0])


def test_erf_float64_within_2_ulp_of_scipy():
    from scipy.special import erf   # the oracle; the package must not import it
    with np.errstate(all="raise"):
        got = ad._erf(ERF_GRID)
    ref = erf(ERF_GRID)
    ulp = np.spacing(np.maximum(np.abs(ref), np.finfo(np.float64).tiny))
    assert got.dtype == np.float64
    assert (np.abs(got - ref) <= 2 * ulp).all()


def test_erf_float32_within_5e7_of_float64():
    x32 = ERF_GRID.astype(np.float32)
    with np.errstate(all="raise"):
        got = ad._erf(x32)
        ref = ad._erf(x32.astype(np.float64))
    assert got.dtype == np.float32
    assert np.abs(got.astype(np.float64) - ref).max() <= 5e-7


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_is_odd_and_zero_at_zero(dtype):
    x = ERF_GRID.astype(dtype)
    with np.errstate(all="raise"):
        assert ad._erf(np.zeros(3, dtype)).tolist() == [0.0, 0.0, 0.0]
        np.testing.assert_array_equal(ad._erf(-x), -ad._erf(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_infinities_and_nan(dtype):
    with np.errstate(all="raise"):
        got = ad._erf(np.array([np.inf, -np.inf, np.nan], dtype))
    assert got.dtype == dtype
    assert got[0] == 1.0 and got[1] == -1.0 and np.isnan(got[2])


def test_gelu_float32_tracks_float64():
    """Float32 GELU's error is x times Phi's, and Phi's is half of erf's.

    That is within 1e-6 relative where Phi >= 1/2 (x >= 0). Below 0, 1 + erf
    cancels, so the bound there is 1e-6 of |x|.
    """
    x32 = ERF_GRID.astype(np.float32)
    with np.errstate(all="raise"):
        got = ad.gelu(Tensor(x32)).data
        ref = ad.gelu(Tensor(x32.astype(np.float64))).data
    assert got.dtype == np.float32
    err = np.abs(got.astype(np.float64) - ref)
    pos = x32 >= 0
    assert (err[pos] <= 1e-6 * np.abs(ref[pos])).all()
    assert (err <= 1e-6 * np.abs(x32)).all()


def test_cross_entropy_uniform_oracle():
    logits = Tensor(np.zeros((1, 5)))
    loss = ad.cross_entropy_logits(logits, [2])
    assert abs(loss.item() - math.log(5.0)) <= 1e-12


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = make_rng(7)
    raw = rng.normal(size=(4, 6))
    logits = parameter(raw)
    labels = [0, 3, 5, 2]
    loss = ad.cross_entropy_logits(logits, labels)
    backward(loss)
    e = np.exp(raw - raw.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(4), labels] -= 1.0
    np.testing.assert_allclose(logits.grad, p / 4.0, atol=1e-12)


def test_cross_entropy_label_range():
    with pytest.raises(LabelError):
        ad.cross_entropy_logits(Tensor(np.zeros((2, 3))), [0, 3])
    with pytest.raises(LabelError):
        ad.cross_entropy_logits(Tensor(np.zeros((2, 3))), [-1, 0])


def test_conv2d_ones_oracle():
    x = Tensor(np.ones((1, 1, 5, 5)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, stride=1, pad=1)
    assert out.shape == (1, 1, 5, 5)
    assert out.data[0, 0, 2, 2] == 9.0
    assert out.data[0, 0, 0, 0] == 4.0
    assert out.data[0, 0, 0, 2] == 6.0


def test_conv2d_stride_two_extent():
    x = Tensor(np.ones((1, 3, 9, 9)))
    w = Tensor(np.ones((4, 3, 3, 3)))
    out = ad.conv2d(x, w, stride=2, pad=1)
    assert out.shape == (1, 4, 5, 5)


def test_conv2d_matches_direct_loops():
    rng = make_rng(11)
    x = Tensor(rng.normal(size=(1, 2, 7, 6)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    out = ad.conv2d(x, w, stride=2, pad=1).data[0]
    xp = np.pad(x.data[0], ((0, 0), (1, 1), (1, 1)))
    ho, wo = out.shape[1:]
    ref = np.zeros_like(out)
    for co in range(3):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                ref[co, i, j] = (patch * w.data[co]).sum()
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_conv2d_batched_agrees_with_per_image():
    rng = make_rng(13)
    xb = rng.normal(size=(4, 2, 8, 8))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    batched = ad.conv2d(Tensor(xb), w, stride=2, pad=1).data
    for n in range(4):
        single = ad.conv2d(Tensor(xb[n:n + 1]), w, stride=2, pad=1).data
        np.testing.assert_array_equal(batched[n], single[0])


def test_conv2d_contracts():
    with pytest.raises(ShapeError):
        ad.conv2d(Tensor(np.ones((1, 2, 5, 5))), Tensor(np.ones((1, 3, 3, 3))))
    with pytest.raises(ContractError):
        ad.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 2, 2))))
    with pytest.raises(ShapeError):
        ad.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))))
    with pytest.raises(ShapeError):          # one image must carry its batch axis
        ad.conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))))


def test_maximum_tie_routes_to_first():
    a = parameter([2.0, 1.0])
    b = parameter([2.0, 5.0])
    out = ad.sum_(ad.maximum(a, b))
    backward(out)
    np.testing.assert_array_equal(a.grad, [1.0, 0.0])
    np.testing.assert_array_equal(b.grad, [0.0, 1.0])


def test_reshape_round_trip_row_major():
    x = np.arange(24.0).reshape(2, 3, 4)
    t = Tensor(x)
    back = ad.reshape(ad.reshape(t, (6, 4)), (2, 3, 4))
    np.testing.assert_array_equal(back.data, x)
    flat = ad.reshape(t, (-1,))
    assert flat.data[5] == x[0, 1, 1]  # row-major order


# ---------------------------------------------------------------------------
# tape mechanics


def test_grad_accumulates_on_reuse():
    x = parameter([3.0])
    y = ad.sum_(ad.add(ad.mul(x, x), x))  # x^2 + x
    backward(y)
    np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)


def _ownership_cases():
    """name -> builder returning (loss, {leaf: hand-computed gradient}).

    Integer-valued data keeps every gradient exact. Each case routes the
    incoming gradient through a rule that hands back g or a view of it."""
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(6.0, 12.0).reshape(2, 3)
    c = np.arange(1.0, 7.0).reshape(2, 3)
    d = np.arange(-3.0, 3.0).reshape(2, 3)

    def add_self():
        x = parameter(a)
        return ad.sum_(ad.mul(ad.add(x, x), Tensor(c))), {x: 2.0 * c}

    def add_equal_shapes():
        x, y = parameter(a), parameter(b)
        return ad.sum_(ad.mul(ad.add(x, y), Tensor(c))), {x: c, y: c}

    def reshape():
        x, y = parameter(a), parameter(b)
        s = ad.add(ad.reshape(x, (3, 2)), ad.reshape(y, (3, 2)))
        return ad.sum_(ad.mul(s, Tensor(c.reshape(3, 2)))), {x: c, y: c}

    def transpose():
        x, y = parameter(a), parameter(b)
        s = ad.add(ad.transpose(x, (1, 0)), ad.transpose(y, (1, 0)))
        return ad.sum_(ad.mul(s, Tensor(c.T))), {x: c, y: c}

    def concat():
        x, y = parameter(a), parameter(b)
        cd = np.concatenate([c, d], axis=1)
        return ad.sum_(ad.mul(ad.concat([x, y], axis=1), Tensor(cd))), {x: c, y: d}

    def leaf_in_two_ops():
        # x's second use comes earlier on the tape, so backward first hands
        # x and y the same g, then accumulates into x
        x, y = parameter(a), parameter(b)
        first = ad.sum_(ad.mul(x, Tensor(d)))
        second = ad.sum_(ad.mul(ad.add(x, y), Tensor(c)))
        return ad.add(first, second), {x: c + d, y: c}

    return {f.__name__: f for f in (add_self, add_equal_shapes, reshape, transpose,
                                    concat, leaf_in_two_ops)}


@pytest.mark.parametrize("case", sorted(_ownership_cases()))
def test_backward_gives_each_leaf_its_own_gradient(case):
    loss, expected = _ownership_cases()[case]()
    backward(loss)
    leaves = list(expected)
    for t in leaves:
        np.testing.assert_array_equal(t.grad, expected[t])
    for i, t in enumerate(leaves):
        for u in leaves[i + 1:]:
            assert not np.shares_memory(t.grad, u.grad)
        for u in leaves:
            assert not np.shares_memory(t.grad, u.data)


_STEP_FAULT_PROBE = """
import resource

import numpy as np

from crossfit import autodiff as ad
from crossfit.cli import _DEFAULTS, _build_configs
from crossfit.model import CrossFiTModel
from crossfit.train_eval import sgd_momentum_step

model_cfg, train_cfg, _ = _build_configs(dict(_DEFAULTS))
with ad.default_dtype_scope(np.float32):
    model = CrossFiTModel(ad.make_rng(0), model_cfg)
    params = model.named_parameters()
    velocities = {k: np.zeros_like(p.data) for k, p in params.items()}
    rng = np.random.default_rng(0)
    n, side = train_cfg.batch_size, model_cfg.encoder.input_size
    batch = (rng.random((n, side, side, 3), dtype=np.float32),
             rng.random((n, side, side, 3), dtype=np.float32),
             rng.uniform(0.3, 0.7, (n, 2)), rng.uniform(0.3, 0.7, (n, 2)),
             rng.integers(0, model_cfg.num_classes, n))

    def step():
        ad.backward(model.loss_batch(*batch))
        sgd_momentum_step(params, velocities, train_cfg)
        for p in params.values():
            p.grad = None

    for _ in range(5):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_training_step_keeps_its_memory_mapped():
    """A warm CLI-default crossfit step reuses the pages the last step freed
    instead of faulting ~6,200 of them back in from the OS."""
    src = os.path.dirname(os.path.dirname(ad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _STEP_FAULT_PROBE], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    faults_per_step = float(out.stdout.split()[-1])
    assert faults_per_step < 300


def test_backward_consumes_tape():
    x = parameter([1.0])
    backward(ad.sum_(ad.scale(x, 2.0)))
    assert len(ad.active_tape()) == 0


def test_backward_requires_scalar():
    x = parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        backward(ad.scale(x, 2.0))
    ad.active_tape().clear()


def test_no_grad_suppresses_recording():
    x = parameter([1.0])
    with no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    assert len(ad.active_tape()) == 0


def test_constant_inputs_not_recorded():
    y = ad.mul(Tensor([2.0]), Tensor([3.0]))
    assert not y.requires_grad
    assert len(ad.active_tape()) == 0


# ---------------------------------------------------------------------------
# saved arrays: the tape pins only what a backward rule reads


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _affine_relu_step(keep: bool):
    """sum(relu(0.5 * (x @ w + b)) * c) and its backward. The caller keeps
    the matmul and scale outputs' tensors until backward when `keep`, and
    drops them before it otherwise. Returns whether those two arrays were
    alive just before backward, and the leaves' gradients."""
    rng = make_rng(11)
    x, w, b = (parameter(rng.normal(size=s)) for s in ((4, 3), (3, 5), (5,)))
    c = Tensor(rng.normal(size=(4, 5)))
    held = []
    h = ad.matmul(x, w)
    refs = [weakref.ref(_owner(h.data))]
    held.append(h)
    h = ad.scale(ad.add(h, b), 0.5)
    refs.append(weakref.ref(_owner(h.data)))
    held.append(h)
    loss = ad.sum_(ad.mul(ad.relu(h), c))
    del h
    if not keep:
        held.clear()
    alive = [r() is not None for r in refs]
    backward(loss)
    return alive, [x.grad, w.grad, b.grad]


def test_tape_frees_activations_no_rule_reads():
    """The matmul output under a bias add and a scale output die with their
    tensors; backward gives the same gradients as when they are kept."""
    alive_kept, kept = _affine_relu_step(keep=True)
    alive, dropped = _affine_relu_step(keep=False)
    assert alive_kept == [True, True]
    assert alive == [False, False]
    for g_kept, g in zip(kept, dropped):
        np.testing.assert_array_equal(g, g_kept)


def _conv2d_nchw_reference(x: np.ndarray, w: np.ndarray, stride: int, pad: int):
    """Cross-correlation on a C-order NCHW copy: pad, gather one patch row per
    output position with plain slicing, one GEMM, copy back to C-order NCHW."""
    n, _, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(np.ascontiguousarray(x), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h + 2 * pad - k) // stride + 1, (wdt + 2 * pad - k) // stride + 1
    rows = [xp[b, :, i * stride:i * stride + k, j * stride:j * stride + k].reshape(-1)
            for b in range(n) for i in range(ho) for j in range(wo)]
    out = np.stack(rows) @ w.reshape(c_out, -1).T
    return np.ascontiguousarray(out.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2))


# (n, c_in, side, c_out, k, stride, pad): the CLI's one stage, a 3x3 stage
@pytest.mark.parametrize("geometry", [(3, 3, 64, 192, 15, 16, 7), (2, 5, 9, 4, 3, 2, 1)])
@pytest.mark.parametrize("channels_last", [False, True])
def test_conv2d_matches_nchw_reference_bitwise(geometry, channels_last):
    """Float64 values equal the plain NCHW computation bit for bit, whatever
    the input's layout; the output is an NCHW view of channels-last memory."""
    n, c_in, side, c_out, k, stride, pad = geometry
    rng = make_rng(17)
    x = rng.normal(size=(n, side, side, c_in))
    x = np.moveaxis(x, 3, 1) if channels_last else np.ascontiguousarray(np.moveaxis(x, 3, 1))
    w = rng.normal(size=(c_out, c_in, k, k))
    out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
    assert out.tobytes() == _conv2d_nchw_reference(x, w, stride, pad).tobytes()
    assert out.transpose(0, 2, 3, 1).flags.c_contiguous and not out.flags.owndata


def test_conv2d_input_gradient_same_across_input_layouts():
    """An input laid out channels-last gets the gradient values an NCHW
    input gets, bit for bit."""
    rng = make_rng(19)
    x_last = rng.normal(size=(2, 9, 9, 5))
    w_init = rng.normal(size=(4, 5, 3, 3))
    c = rng.normal(size=(2, 4, 5, 5))
    grads = []
    for xd in (np.moveaxis(x_last, 3, 1), np.ascontiguousarray(np.moveaxis(x_last, 3, 1))):
        x = parameter(xd)
        backward(ad.sum_(ad.mul(ad.conv2d(x, parameter(w_init), stride=2, pad=1), Tensor(c))))
        grads.append(x.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_conv2d_frees_its_padded_input():
    """conv2d's backward needs the padded input's shape, not the array: none
    of that shape is reachable from the tape after forward, and the
    gradients match a pad-0 conv of an explicitly padded copy."""
    rng = make_rng(13)
    xd = rng.normal(size=(2, 3, 6, 6))
    w_init = rng.normal(size=(4, 3, 3, 3))
    c = Tensor(rng.normal(size=(2, 4, 3, 3)))
    xp_ref = parameter(np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1))))
    w_ref = parameter(w_init)
    backward(ad.sum_(ad.mul(ad.conv2d(xp_ref, w_ref, stride=2), c)))

    x, w = parameter(xd), parameter(w_init)
    loss = ad.sum_(ad.mul(ad.conv2d(x, w, stride=2, pad=1), c))
    owners, _ = _reachable_from_tape()
    assert owners and all(a.shape != xp_ref.shape for a in owners.values())
    backward(loss)
    np.testing.assert_array_equal(x.grad, xp_ref.grad[:, :, 1:-1, 1:-1])
    np.testing.assert_array_equal(w.grad, w_ref.grad)


def test_tape_keeps_what_rules_read_until_backward():
    """A matmul operand outlives its tensor until backward has run, then goes
    with the tape. gelu's input goes as soon as the forward pass drops it:
    gelu's rule keeps the slope it computed, not the input."""
    rng = make_rng(12)
    w = parameter(rng.normal(size=(3, 5)))
    x = ad.scale(parameter(rng.normal(size=(4, 3))), 2.0)
    h = ad.matmul(x, w)
    refs = [weakref.ref(_owner(x.data)), weakref.ref(_owner(h.data))]
    loss = ad.sum_(ad.gelu(h))
    del x, h
    assert [r() is not None for r in refs] == [True, False]
    backward(loss)
    assert [r() is not None for r in refs] == [False, False]


def _reachable_from_tape() -> tuple[dict[int, np.ndarray], int]:
    """Memory-owning arrays reachable from the active tape's nodes, through
    slots, backward rules' closures and containers, keyed by id; and the
    number of tensors met on the way."""
    owners, tensors, seen = {}, 0, set()
    stack = [ad.active_tape()._nodes]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            owners[id(_owner(o))] = _owner(o)
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, types.FunctionType):
            stack.extend(cell.cell_contents for cell in o.__closure__ or ())
        elif isinstance(o, Tensor):
            tensors += 1
            stack.extend((o.data, o.grad))
        elif hasattr(type(o), "__slots__"):
            stack.extend(getattr(o, name, None) for name in type(o).__slots__)
    return owners, tensors


def test_tape_after_cli_config_forward_stays_in_budget():
    """One float32 forward at the CLI's model config (batch 16) leaves at most
    9 MiB of non-parameter arrays on the tape (8.59 MiB measured; 23.1 MiB when
    every op's inputs and output stayed on it), and no tensor."""
    cfg = CrossFiTConfig(
        encoder=EncoderConfig(stage_channels=(192,), stride=16, kernel=15, input_size=64),
        cfa=CfaConfig(layers=3, heads=4, d_t=64, mlp_ratio=4, threshold=0.06,
                      zero_init_out=True),
        strategy="crossfit", pe_mode="aligned", mask_enabled=True, num_classes=5)
    rng = np.random.default_rng(0)
    with ad.default_dtype_scope(np.float32):
        model = CrossFiTModel(ad.make_rng(0), cfg)
        loss = model.loss_batch(rng.random((16, 64, 64, 3), dtype=np.float32),
                                rng.random((16, 64, 64, 3), dtype=np.float32),
                                rng.uniform(0.3, 0.7, (16, 2)), rng.uniform(0.3, 0.7, (16, 2)),
                                rng.integers(0, 5, 16))
    owners, tensors = _reachable_from_tape()
    ad.active_tape().clear()
    params = {id(_owner(p.data)) for _, p in model.parameters()}
    activation_bytes = sum(a.nbytes for k, a in owners.items() if k not in params)
    assert loss.dtype == np.float32
    assert tensors == 0
    assert activation_bytes <= 9 * 2**20


def test_make_rng_deterministic():
    a = make_rng(42).normal(size=8)
    b = make_rng(42).normal(size=8)
    np.testing.assert_array_equal(a, b)
    c = make_rng(43).normal(size=8)
    assert not np.array_equal(a, c)


def test_default_dtype_switch():
    """The scope sets the dtype of the parameters created inside it, and only
    theirs; it restores the prior default however the block ends."""
    with ad.default_dtype_scope(np.float32):
        assert parameter([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64
    assert parameter([1.0]).dtype == np.float64
    with pytest.raises(RuntimeError, match="inside"):
        with ad.default_dtype_scope(np.float32):
            raise RuntimeError("inside")
    assert parameter([1.0]).dtype == np.float64
    with pytest.raises(ContractError, match="unsupported dtype int32"):
        with ad.default_dtype_scope(np.int32):
            raise AssertionError("a refused dtype entered the block")
    assert parameter([1.0]).dtype == np.float64


def test_ops_follow_their_operands_dtype():
    """A tensor keeps its data's float dtype, and other data becomes float64.
    Ops compute in their operands' dtypes, whatever the default is."""
    assert Tensor(np.ones(2, np.float32)).dtype == np.float32
    assert Tensor(np.ones(2, np.int64)).dtype == np.float64
    assert Tensor([True]).dtype == np.float64
    x = Tensor(np.array([[1.0, -2.0]], np.float32))
    w = Tensor(np.array([[0.5], [0.25]], np.float32))
    for scope in (np.float64, np.float32):
        with ad.default_dtype_scope(scope):
            out = ad.relu(ad.add(ad.matmul(x, w), Tensor(np.float32(1.0))))
            assert out.dtype == np.float32
            assert ad.mul(x, Tensor([2.0])).dtype == np.float64  # numpy's promotion


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = make_rng(seed).normal(scale=4.0, size=(rows, cols))
    out = ad.softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), atol=1e-12)
    assert (out >= 0.0).all()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([((3, 1), (1, 4)), ((2, 3), (3,)), ((4, 1, 5), (2, 5)), ((3,), (2, 3))]),
       st.integers(0, 2 ** 31 - 1))
def test_broadcast_mul_gradient_sums_out(shapes, seed):
    sa, sb = shapes
    rng = make_rng(seed)
    a = parameter(rng.normal(size=sa))
    b = parameter(rng.normal(size=sb))
    backward(ad.sum_(ad.mul(a, b)))
    full = np.broadcast_shapes(sa, sb)
    np.testing.assert_allclose(
        a.grad, ad._unbroadcast(np.broadcast_to(b.data, full).copy(), sa), atol=1e-12)
    np.testing.assert_allclose(
        b.grad, ad._unbroadcast(np.broadcast_to(a.data, full).copy(), sb), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_layer_norm_output_standardized(rows, dim, seed):
    x = make_rng(seed).normal(scale=3.0, size=(rows, dim))
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(dim)), Tensor(np.zeros(dim))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    if dim > 1:
        assert (out.var(axis=-1) <= 1.0 + 1e-8).all()


# ---------------------------------------------------------------------------
# finite-difference gradient checks (per-op; the full timed sweep lives in
# the acceptance suite)


def _check(fn, params, tol=1e-4):
    err = gradcheck(fn, params, eps=1e-5)
    assert err < tol, f"max relative gradient error {err:.3e}"


def test_gradcheck_matmul():
    rng = make_rng(1)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(4, 2)))
    _check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b])


def test_gradcheck_softmax():
    rng = make_rng(2)
    x = parameter(rng.normal(size=(3, 5)))
    c = Tensor(rng.normal(size=(3, 5)))
    _check(lambda: ad.sum_(ad.mul(ad.softmax_lastdim(x), c)), [x])


def test_gradcheck_softmax_with_masked_columns():
    rng = make_rng(3)
    x = parameter(rng.normal(size=(2, 6)))
    bias = np.zeros((2, 6))
    bias[:, [1, 4]] = -np.inf
    c = Tensor(rng.normal(size=(2, 6)))

    def fn():
        return ad.sum_(ad.mul(ad.softmax_lastdim(ad.add(x, Tensor(bias))), c))

    _check(fn, [x])


def test_gradcheck_layer_norm():
    rng = make_rng(4)
    x = parameter(rng.normal(size=(4, 6)))
    g = parameter(rng.normal(size=6))
    b = parameter(rng.normal(size=6))
    c = Tensor(rng.normal(size=(4, 6)))
    _check(lambda: ad.sum_(ad.mul(ad.layer_norm(x, g, b), c)), [x, g, b])


def test_gradcheck_gelu_relu():
    rng = make_rng(5)
    x = parameter(rng.normal(size=(3, 4)) + 0.3)  # keep clear of relu kink
    c = Tensor(rng.normal(size=(3, 4)))
    _check(lambda: ad.sum_(ad.mul(ad.gelu(x), c)), [x])
    _check(lambda: ad.sum_(ad.mul(ad.relu(x), c)), [x])


def test_gradcheck_conv2d():
    rng = make_rng(6)
    x = parameter(rng.normal(size=(1, 2, 6, 5)))
    w = parameter(rng.normal(size=(3, 2, 3, 3)))
    c = Tensor(rng.normal(size=(1, 3, 3, 3)))
    _check(lambda: ad.sum_(ad.mul(ad.conv2d(x, w, stride=2, pad=1), c)), [x, w])


@pytest.mark.parametrize("x_shape, c_out, k, stride, pad", [
    ((2, 2, 32, 32), 2, 15, 16, 7),   # the CLI encoder's geometry
    ((3, 2, 8, 8), 3, 4, 4, 0),       # an even kernel as a patch tiling
], ids=["k15_s16", "k4_s4"])
def test_gradcheck_conv2d_batched(x_shape, c_out, k, stride, pad):
    rng = make_rng(7)
    x = parameter(rng.normal(size=x_shape))
    w = parameter(rng.normal(size=(c_out, x_shape[1], k, k)))
    with no_grad():
        c = Tensor(rng.normal(size=ad.conv2d(x, w, stride, pad).shape))
    _check(lambda: ad.sum_(ad.mul(ad.conv2d(x, w, stride, pad), c)), [x, w])


def test_conv2d_image_batch_gets_no_gradient():
    rng = make_rng(8)
    xd = rng.normal(size=(2, 3, 8, 8))
    w = parameter(rng.normal(size=(2, 3, 3, 3)))
    grads = {}
    for needs_grad in (False, True):
        out = ad.conv2d(Tensor(xd, requires_grad=needs_grad), w, stride=2, pad=1)
        node = ad.active_tape()._nodes[-1]
        grads[needs_grad] = node.backward_fn(np.ones(out.shape))
        ad.active_tape().clear()
    gx, gw = grads[False]
    assert gx is None
    assert grads[True][0].shape == xd.shape
    np.testing.assert_array_equal(gw, grads[True][1])


def test_matmul_folds_leading_axes_of_a():
    rng = make_rng(9)
    a = parameter(rng.normal(size=(3, 4, 5)))
    b = parameter(rng.normal(size=(5, 2)))
    with no_grad():
        out = ad.matmul(a, b).data
    assert out.shape == (3, 4, 2)
    for i in range(3):
        np.testing.assert_allclose(out[i], a.data[i] @ b.data, rtol=1e-12, atol=0)
    c = Tensor(rng.normal(size=(3, 4, 2)))
    _check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), c)), [a, b])


def test_gradcheck_cross_entropy():
    rng = make_rng(8)
    x = parameter(rng.normal(size=(5, 4)))
    labels = [0, 1, 2, 3, 1]
    _check(lambda: ad.cross_entropy_logits(x, labels), [x])


def test_gradcheck_concat_slice_transpose():
    rng = make_rng(9)
    a = parameter(rng.normal(size=(2, 3)))
    b = parameter(rng.normal(size=(2, 2)))
    c = Tensor(rng.normal(size=(5, 2)))

    def fn():
        cat = ad.concat([a, b], axis=1)
        t = ad.transpose(cat, (1, 0))
        return ad.sum_(ad.mul(t, c))

    _check(fn, [a, b])
    d = parameter(rng.normal(size=(4, 4)))
    _check(lambda: ad.sum_(ad.mul(d[1:3, :2], Tensor([[1.0, 2.0], [3.0, 4.0]]))), [d])


def test_gradcheck_maximum_and_means():
    rng = make_rng(10)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(3, 4)))
    c = Tensor(rng.normal(size=(3, 4)))
    _check(lambda: ad.sum_(ad.mul(ad.maximum(a, b), c)), [a, b])
    _check(lambda: ad.mean_(ad.mul(a, a), axes=(0, 1)), [a])


def test_gradcheck_linear_layers():
    rng = make_rng(12)
    lin = ad.Linear(rng, 5, 3)
    ln = ad.LayerNorm(5)
    x = Tensor(rng.normal(size=(4, 5)))
    c = Tensor(rng.normal(size=(4, 3)))
    params = [lin.w, lin.b, ln.gamma, ln.beta]
    _check(lambda: ad.sum_(ad.mul(lin(ln(x)), c)), params)


def test_xavier_bounds():
    rng = make_rng(20)
    w = ad.xavier_uniform(rng, (50, 40), 50, 40)
    bound = math.sqrt(6.0 / 90.0)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > bound * 0.8  # actually fills the range
