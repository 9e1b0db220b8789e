"""Optic-disc translation alignment and sinusoidal position embeddings.

Everything here is plain float64 numpy: position embeddings are constants of
the geometry, never trained, so none of it touches the autodiff tape. The
grid convention is corner-aligned: an axis with n > 1 cells spans [-1, 1]
endpoint to endpoint; a single-cell axis sits at 0.

The paper aligns field 1's coordinate grid at image resolution, translating
it by the optic-disc displacement, then bilinearly downsamples it to the
feature map. Bilinear interpolation reproduces a translated regular grid
exactly, so the recipe collapses to the coarse regular grid plus one offset
per eye, which is what `field1_grid` computes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, ShapeError

__all__ = [
    "RelCoord", "regular_coords", "field1_grid", "sinusoidal_pe",
    "aligned_position_embeddings", "regular_position_embedding",
]


@dataclass(frozen=True)
class RelCoord:
    """Optic-disc center relative to image extent; both components in [0, 1]."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ContractError(f"relative coordinate ({self.x}, {self.y}) outside [0,1]^2")


def regular_coords(side: int) -> np.ndarray:
    """side x side x 2 corner-aligned grid: channel 0 is x (columns), channel 1 is y (rows)."""
    if side < 1:
        raise ContractError(f"grid extent must be >= 1, got {side}")
    axis = np.zeros(1) if side == 1 else np.linspace(-1.0, 1.0, side)
    coords = np.empty((side, side, 2))
    coords[:, :, 0] = axis[None, :]
    coords[:, :, 1] = axis[:, None]
    return coords


def field1_grid(od1: np.ndarray, od2: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Field 1's translation and normalized coordinates for a batch of eyes.

    od1, od2: (b, 2) optic-disc centers (x, y) relative to each field's
    extent, in [0, 1]. Returns the (b, 2) offset 2·(od2 − od1) and the
    (b, side, side, 2) regular grid carrying it. The factor 2 converts a
    displacement in [0,1] relative units to the [-1,1] span of the grid.
    Coordinates may leave [-1,1].
    """
    od1 = np.asarray(od1, dtype=np.float64)
    od2 = np.asarray(od2, dtype=np.float64)
    if od1.ndim != 2 or od1.shape[1] != 2 or od1.shape != od2.shape:
        raise ShapeError(f"disc centers must be two equal (b, 2) arrays, "
                         f"got {od1.shape} and {od2.shape}")
    for od in (od1, od2):
        if not ((od >= 0.0) & (od <= 1.0)).all():
            raise ContractError(f"relative coordinates outside [0,1]^2: {od}")
    offset = 2.0 * (od2 - od1)
    return offset, regular_coords(side) + offset[:, None, None, :]


def _positions(coords: np.ndarray, side: int) -> np.ndarray:
    """Map normalized coordinates to positions in [0, side-1] per axis.

    Out-of-range coordinates of aligned grids produce out-of-range positions;
    the sinusoids downstream accept any real, so nothing is clamped.
    """
    return (coords + 1.0) / 2.0 * (side - 1)


def sinusoidal_pe(positions: np.ndarray, d_t: int) -> np.ndarray:
    """Two-axis sine/cosine embedding, (..., h, w, 2) positions -> (..., h*w, d_t) rows.

    The first d_t/2 channels encode x, the last d_t/2 encode y. Within each
    half, channel pair (2i, 2i+1) holds sin and cos of pos / 10000^(2i / (d_t/2)).
    Row i*w + j describes cell (i, j) (row-major, matching feature flatten).
    """
    if d_t % 4 != 0:
        raise ContractError(f"embedding width must be divisible by 4, got {d_t}")
    if positions.ndim < 3 or positions.shape[-1] != 2:
        raise ShapeError(f"positions must be (..., h, w, 2), got {positions.shape}")
    *lead, h, w, _ = positions.shape
    half = d_t // 2
    freqs = np.arange(half // 2)
    inv_denom = 10000.0 ** (-2.0 * freqs / half)          # (half/2,)
    out = np.empty((*lead, h * w, d_t))
    for axis, base in ((0, 0), (1, half)):
        angles = positions[..., axis].reshape(*lead, h * w, 1) * inv_denom
        out[..., base + 0:base + half:2] = np.sin(angles)
        out[..., base + 1:base + half:2] = np.cos(angles)
    return out


@functools.lru_cache(maxsize=8)
def regular_position_embedding(side: int, d_t: int) -> np.ndarray:
    """(side², d_t) embedding of the plain corner-aligned grid.

    A constant of (side, d_t): built once, then every caller shares the one
    read-only array.
    """
    pe = sinusoidal_pe(_positions(regular_coords(side), side), d_t)
    pe.setflags(write=False)
    return pe


def aligned_position_embeddings(od1: np.ndarray, od2: np.ndarray, side: int,
                                d_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-field embeddings for a batch of (b, 2) disc pairs: field 1 gets the
    optic-disc-aligned grid, (b, side², d_t); field 2 keeps the regular grid,
    one (side², d_t) array shared by every eye.

    With od1 == od2 the translation is exactly zero and field 1's rows are
    bit-for-bit identical to field 2's.
    """
    _, coords = field1_grid(od1, od2, side)
    pe1 = sinusoidal_pe(_positions(coords, side), d_t)
    return pe1, regular_position_embedding(side, d_t)
