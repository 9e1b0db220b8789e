"""Grid construction, alignment, resampling, and sinusoid oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfit.autodiff import ContractError, ShapeError
from crossfit.geometry import (
    RelCoord, _positions, aligned_position_embeddings, field1_grid,
    regular_coords, regular_position_embedding, sinusoidal_pe,
)

rel = st.floats(0.0, 1.0, allow_nan=False)


def bilinear_resample(src: np.ndarray, h: int, w: int) -> np.ndarray:
    """Reference resampler: literal bilinear interpolation of each channel
    at corner-aligned target positions, written independently of the library
    (loops, no shortcuts)."""
    H, W, C = src.shape

    def axis(n):
        return np.zeros(1) if n == 1 else np.linspace(-1.0, 1.0, n)

    out = np.zeros((h, w, C))
    for i in range(h):
        for j in range(w):
            sy = (axis(h)[i] + 1.0) / 2.0 * (H - 1)
            sx = (axis(w)[j] + 1.0) / 2.0 * (W - 1)
            y0 = min(int(math.floor(sy)), H - 2) if H > 1 else 0
            x0 = min(int(math.floor(sx)), W - 2) if W > 1 else 0
            ty = sy - y0 if H > 1 else 0.0
            tx = sx - x0 if W > 1 else 0.0
            y1 = min(y0 + 1, H - 1)
            x1 = min(x0 + 1, W - 1)
            for c in range(C):
                top = (1 - tx) * src[y0, x0, c] + tx * src[y0, x1, c]
                bot = (1 - tx) * src[y1, x0, c] + tx * src[y1, x1, c]
                out[i, j, c] = (1 - ty) * top + ty * bot
    return out


def image_grid(H: int, W: int, od1=(0.5, 0.5), od2=(0.5, 0.5)) -> np.ndarray:
    """The paper's field-1 grid at image resolution, written independently of
    the library: the regular H x W grid, every cell translated by twice the
    optic-disc displacement od2 - od1."""
    def axis(n):
        return np.zeros(1) if n == 1 else np.linspace(-1.0, 1.0, n)

    coords = np.empty((H, W, 2))
    coords[:, :, 0] = axis(W)[None, :] + 2.0 * (od2[0] - od1[0])
    coords[:, :, 1] = axis(H)[:, None] + 2.0 * (od2[1] - od1[1])
    return coords


def grid1(od1, od2, side):
    """field1_grid for one eye: the (2,) offset and (side, side, 2) coordinates."""
    offset, coords = field1_grid(np.array([od1]), np.array([od2]), side)
    return offset[0], coords[0]


# ---------------------------------------------------------------------------
# regular grids


def test_regular_grid_2x2_endpoints():
    g = regular_coords(2)
    np.testing.assert_array_equal(g[:, :, 0], [[-1.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(g[:, :, 1], [[-1.0, -1.0], [1.0, 1.0]])


def test_regular_grid_3x3_center():
    g = regular_coords(3)
    np.testing.assert_array_equal(g[1, 1], [0.0, 0.0])


def test_regular_grid_single_row():
    # a single-cell axis sits at 0; a four-cell axis spans [-1, 1] in thirds
    np.testing.assert_array_equal(regular_coords(1), np.zeros((1, 1, 2)))
    g = regular_coords(4)
    np.testing.assert_allclose(g[0, :, 0], [-1.0, -1 / 3, 1 / 3, 1.0], atol=1e-15)
    np.testing.assert_array_equal(g[:, 0, 1], g[0, :, 0])


def test_regular_grid_extent_contract():
    with pytest.raises(ContractError):
        regular_coords(0)


# ---------------------------------------------------------------------------
# alignment


def test_align_identity():
    offset, coords = grid1((0.3, 0.7), (0.3, 0.7), 4)
    np.testing.assert_array_equal(coords, regular_coords(4))
    np.testing.assert_array_equal(offset, [0.0, 0.0])


def test_align_hand_example():
    offset, coords = grid1((0.5, 0.5), (0.25, 0.5), 3)
    np.testing.assert_array_equal(offset, [-0.5, 0.0])
    r = regular_coords(3)
    np.testing.assert_allclose(coords[:, :, 0], r[:, :, 0] - 0.5, atol=1e-15)
    np.testing.assert_array_equal(coords[:, :, 1], r[:, :, 1])


def test_rel_coord_range_contract():
    with pytest.raises(ContractError):
        RelCoord(1.2, 0.5)
    with pytest.raises(ContractError):
        RelCoord(0.5, -0.01)
    # the batched alignment applies the same rule to every eye
    inside = np.full((3, 2), 0.5)
    for bad in (1.2, -0.01, np.nan):
        outside = inside.copy()
        outside[1, 0] = bad
        with pytest.raises(ContractError):
            field1_grid(outside, inside, 4)
        with pytest.raises(ContractError):
            field1_grid(inside, outside, 4)


def test_field1_grid_shape_contract():
    with pytest.raises(ShapeError):
        field1_grid(np.full(2, 0.5), np.full(2, 0.5), 4)       # one eye, unbatched
    with pytest.raises(ShapeError):
        field1_grid(np.full((2, 2), 0.5), np.full((3, 2), 0.5), 4)
    with pytest.raises(ShapeError):
        field1_grid(np.full((2, 3), 0.5), np.full((2, 3), 0.5), 4)


@settings(max_examples=50, deadline=None)
@given(rel, rel, rel, rel)
def test_align_offset_exact_and_pure_translation(fx, fy, mx, my):
    g = regular_coords(6)
    offset, coords = grid1((fx, fy), (mx, my), 6)
    # the offset is exactly twice the disc displacement
    assert offset[0] == 2.0 * (mx - fx)
    assert offset[1] == 2.0 * (my - fy)
    # and the grid is exactly the regular grid carrying that translation
    np.testing.assert_array_equal(coords, g + offset[None, None, :])
    # cellwise difference is the offset up to one rounding of each add
    diff = coords - g
    np.testing.assert_allclose(diff[:, :, 0], offset[0], atol=1e-12)
    np.testing.assert_allclose(diff[:, :, 1], offset[1], atol=1e-12)


def test_align_batch_matches_per_eye():
    rng = np.random.default_rng(0)
    od1, od2 = rng.random((7, 2)), rng.random((7, 2))
    offset, coords = field1_grid(od1, od2, 4)
    pe1, pe2 = aligned_position_embeddings(od1, od2, 4, 16)
    for i in range(7):
        o, c = grid1(od1[i], od2[i], 4)
        np.testing.assert_array_equal(offset[i], o)
        np.testing.assert_array_equal(coords[i], c)
        one1, one2 = aligned_position_embeddings(od1[i:i + 1], od2[i:i + 1], 4, 16)
        np.testing.assert_array_equal(pe1[i], one1[0])
        np.testing.assert_array_equal(pe2, one2)


# ---------------------------------------------------------------------------
# downsampling (closed form vs independent bilinear resampler)


def test_downsample_regular_exact():
    coarse = bilinear_resample(image_grid(8, 8), 4, 4)
    np.testing.assert_allclose(coarse, regular_coords(4), atol=1e-12)
    np.testing.assert_array_equal(grid1((0.4, 0.6), (0.4, 0.6), 4)[1], regular_coords(4))


def test_downsample_identity():
    od1, od2 = (0.5, 0.5), (0.1, 0.9)
    fine = image_grid(5, 5, od1, od2)
    np.testing.assert_allclose(bilinear_resample(fine, 5, 5), fine, atol=1e-12)
    np.testing.assert_allclose(grid1(od1, od2, 5)[1], fine, atol=1e-15)


def test_downsample_carries_offset():
    od1, od2 = (0.5, 0.5), (0.25, 0.5)
    want = regular_coords(4) + np.array([-0.5, 0.0])[None, None, :]
    np.testing.assert_allclose(bilinear_resample(image_grid(8, 8, od1, od2), 4, 4),
                               want, atol=1e-12)
    np.testing.assert_array_equal(grid1(od1, od2, 4)[1], want)


@settings(max_examples=40, deadline=None)
@given(rel, rel, rel, rel, st.integers(2, 12), st.integers(2, 12), st.integers(1, 6))
def test_downsample_matches_bilinear_oracle(fx, fy, mx, my, H, W, side):
    # align at image resolution, then downsample: the closed form must agree
    # with the literal recipe at any image resolution
    side = min(side, H, W)
    fast = grid1((fx, fy), (mx, my), side)[1]
    slow = bilinear_resample(image_grid(H, W, (fx, fy), (mx, my)), side, side)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


# ---------------------------------------------------------------------------
# denormalization


def test_denormalize_endpoints():
    pos = _positions(regular_coords(5), 5)
    assert pos[0, 0, 0] == 0.0 and pos[0, 4, 0] == 4.0
    assert pos[0, 0, 1] == 0.0 and pos[4, 0, 1] == 4.0


def test_denormalize_hand_value():
    pos = _positions(regular_coords(4), 4)
    assert abs(pos[0, 1, 0] - 1.0) <= 1e-12  # x = -1/3 at side 4


def test_denormalize_offset_shift():
    shifted = _positions(grid1((0.5, 0.5), (0.25, 0.5), 4)[1], 4)
    base = _positions(regular_coords(4), 4)
    np.testing.assert_allclose(shifted[:, :, 0] - base[:, :, 0], -0.75, atol=1e-12)


# ---------------------------------------------------------------------------
# sinusoids


def test_pe_zero_position_pattern():
    pos = np.zeros((2, 2, 2))
    pe = sinusoidal_pe(pos, 8)
    np.testing.assert_array_equal(pe[:, 0::2], np.zeros((4, 4)))
    np.testing.assert_array_equal(pe[:, 1::2], np.ones((4, 4)))


def test_pe_unit_position_first_channel():
    pos = np.zeros((1, 1, 2))
    pos[0, 0, 0] = 1.0
    pe = sinusoidal_pe(pos, 8)
    assert abs(pe[0, 0] - math.sin(1.0)) <= 1e-15
    assert abs(pe[0, 1] - math.cos(1.0)) <= 1e-15


def test_pe_periodicity():
    d_t = 16
    half = d_t // 2
    pos = _positions(regular_coords(3), 3)
    base = sinusoidal_pe(pos, d_t)
    for i in range(half // 2):
        period = 2.0 * math.pi * 10000.0 ** (2.0 * i / half)
        shifted = pos.copy()
        shifted[:, :, 0] += period
        pe = sinusoidal_pe(shifted, d_t)
        np.testing.assert_allclose(pe[:, 2 * i], base[:, 2 * i], atol=1e-9)
        np.testing.assert_allclose(pe[:, 2 * i + 1], base[:, 2 * i + 1], atol=1e-9)


def test_pe_bounded():
    pe1, _ = aligned_position_embeddings(np.zeros((1, 2)), np.ones((1, 2)), 4, 32)
    assert np.abs(pe1).max() <= 1.0


def test_pe_width_contract():
    with pytest.raises(ContractError):
        sinusoidal_pe(np.zeros((2, 2, 2)), 6)
    with pytest.raises(ShapeError):
        sinusoidal_pe(np.zeros((2, 2, 3)), 8)


def test_pe_row_cell_correspondence():
    h, w, d_t = 3, 4, 8
    pos = np.stack(np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float)),
                   axis=-1)                                # (h, w, 2): x, y
    base = sinusoidal_pe(pos, d_t)
    for (ci, cj) in [(0, 0), (1, 2), (2, 3)]:
        bumped = pos.copy()
        bumped[ci, cj, 0] += 0.37
        pe = sinusoidal_pe(bumped, d_t)
        changed = np.flatnonzero(np.any(pe != base, axis=1))
        assert changed.tolist() == [ci * w + cj]


def test_pe_halves_encode_x_and_y_alone():
    # the first d_t/2 channels read x alone, the last d_t/2 y alone, bit for bit
    h, w, d_t = 3, 4, 8
    half = d_t // 2
    rng = np.random.default_rng(4)
    xs = rng.uniform(-4.0, 4.0, size=(h, w))
    ys = np.repeat(rng.uniform(-4.0, 4.0, size=(h, 1)), w, axis=1)   # one y per row
    pe = sinusoidal_pe(np.stack([xs, ys], axis=-1), d_t)
    new_y = sinusoidal_pe(np.stack([xs, rng.uniform(-4.0, 4.0, size=(h, w))], axis=-1), d_t)
    new_x = sinusoidal_pe(np.stack([rng.uniform(-4.0, 4.0, size=(h, w)), ys], axis=-1), d_t)
    assert pe[:, :half].tobytes() == new_y[:, :half].tobytes()
    assert pe[:, half:].tobytes() == new_x[:, half:].tobytes()
    # so the cells of one row share the y half exactly
    rows = pe[:, half:].reshape(h, w, half)
    assert (rows == rows[:, :1]).all()


# ---------------------------------------------------------------------------
# field embedding assembly


def test_ape_identity_when_discs_coincide():
    od = np.array([[0.31, 0.64]])
    pe1, pe2 = aligned_position_embeddings(od, od, 4, 64)
    np.testing.assert_array_equal(pe1[0], pe2)


def test_ape_hand_composed_shift():
    od1, od2 = np.array([[0.5, 0.5]]), np.array([[0.25, 0.5]])
    pe1, _ = aligned_position_embeddings(od1, od2, 4, 16)
    shifted = regular_coords(4) + np.array([-0.5, 0.0])[None, None, :]
    expected = sinusoidal_pe(_positions(shifted, 4), 16)
    np.testing.assert_allclose(pe1[0], expected, atol=1e-15)


def test_regular_fallback_identical_fields():
    pe = regular_position_embedding(4, 16)
    od = np.array([[0.2, 0.2]])
    pe1, pe2 = aligned_position_embeddings(od, od, 4, 16)
    np.testing.assert_array_equal(pe2, pe)
    np.testing.assert_array_equal(pe1[0], pe)


def test_regular_embedding_is_one_shared_read_only_constant():
    pe = regular_position_embedding(4, 16)
    assert regular_position_embedding(4, 16) is pe
    assert aligned_position_embeddings(np.zeros((1, 2)), np.zeros((1, 2)), 4, 16)[1] is pe
    assert not pe.flags.writeable
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0
    fresh = sinusoidal_pe(_positions(regular_coords(4), 4), 16)
    assert pe.tobytes() == fresh.tobytes()
