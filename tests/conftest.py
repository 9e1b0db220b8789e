"""Shared test oracles."""

import numpy as np
import pytest

from crossfit import train_eval as te
from crossfit.autodiff import ShapeError


def _encode_stub(image: np.ndarray, pool_factor: int) -> np.ndarray:
    """Parameter-free stand-in for the encoder: (S,S,3) image -> (S/p, S/p, 1)
    channels-last features, the channel mean block-averaged over p x p patches.

    Exactly local, so mask tests can predict every activation by hand.
    """
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"expected (S,S,3) image, got {image.shape}")
    s = image.shape[0]
    if image.shape[1] != s or s % pool_factor != 0:
        raise ShapeError(f"side {image.shape[:2]} not square or not divisible by {pool_factor}")
    mono = image.mean(axis=2)
    hw = s // pool_factor
    pooled = mono.reshape(hw, pool_factor, hw, pool_factor).mean(axis=(1, 3))
    return pooled[:, :, None]


@pytest.fixture
def encode_stub():
    return _encode_stub


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS on two threads for the test, so that a scope pinning
    one shows on any host; the library's get_num_threads."""
    get, put = te._openblas("get_num_threads"), te._openblas("set_num_threads")
    if get is None or put is None:
        pytest.skip("numpy's BLAS is no OpenBLAS this process can ask")
    before = get()
    put(2)
    yield get
    put(before)
