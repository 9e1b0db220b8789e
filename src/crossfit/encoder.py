"""Small strided CNN producing per-field feature maps.

Both fields go through one shared parameter set (siamese). Each stage is a
convolution with its own kernel and stride followed by relu, so the final
activations are nonnegative and the downstream mask normalization lands in
[0,1] without a special case. Feature maps are channels-last (n, h, w, d_e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, ShapeError, Tensor

__all__ = ["EncoderConfig", "Encoder"]


@dataclass(frozen=True)
class EncoderConfig:
    """The shared CNN. `stride` and `kernel` take one int for every stage or
    one per stage, and are stored per stage."""

    stage_channels: tuple[int, ...] = (192,)
    stride: int | tuple[int, ...] = 16
    kernel: int | tuple[int, ...] = 15
    input_size: int = 64

    def __post_init__(self):
        if len(self.stage_channels) < 1:
            raise ContractError("encoder needs at least one stage")
        if min(self.stage_channels) < 1:
            raise ContractError(f"every stage needs a channel, got {self.stage_channels}")
        n = len(self.stage_channels)
        for name in ("stride", "kernel"):  # one int stands for every stage
            v = getattr(self, name)
            v = (v,) * n if isinstance(v, int) else tuple(v)
            if len(v) != n:
                raise ContractError(f"per-stage {name} {v} does not match {n} stages")
            object.__setattr__(self, name, v)
        for st, k, pad in zip(self.stride, self.kernel, self.pads):
            if st < 1 or k < 1:
                raise ContractError(f"bad stride/kernel: {st}/{k}")
            # the rule lives with the op; checking it here fails a bad config
            # at construction instead of at the first forward pass
            ad.check_conv2d_geometry(k, st, pad)
        if self.input_size < 1:
            raise ContractError(f"input size {self.input_size} not positive")
        if self.input_size % self.total_stride != 0:
            raise ContractError(
                f"input size {self.input_size} not divisible by total stride {self.total_stride}")

    @property
    def pads(self) -> tuple[int, ...]:
        """Per-stage padding: none for a patch tiling (kernel == stride), else k // 2."""
        return tuple(0 if k == st else k // 2 for st, k in zip(self.stride, self.kernel))

    @property
    def total_stride(self) -> int:
        return math.prod(self.stride)

    @property
    def feature_side(self) -> int:
        return self.input_size // self.total_stride

    @property
    def d_e(self) -> int:
        return self.stage_channels[-1]


class Encoder:
    """conv-relu stack; call with (n, 3, S, S) tensors."""

    def __init__(self, rng: np.random.Generator, cfg: EncoderConfig):
        self.cfg = cfg
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        c_in = 3
        for c_out, k in zip(cfg.stage_channels, cfg.kernel):
            fan_in, fan_out = c_in * k * k, c_out * k * k
            w = ad.xavier_uniform(rng, (c_out, c_in, k, k), fan_in, fan_out)
            self.weights.append(ad.parameter(w))
            self.biases.append(ad.parameter(np.zeros(c_out)))
            c_in = c_out

    def parameters(self):
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"enc.stage{i}.w", w
            yield f"enc.stage{i}.b", b

    def __call__(self, x: Tensor) -> Tensor:
        """(n,3,S,S) images in [0,1] -> (n,h,w,d_e) channels-last,
        C-contiguous, in the parameters' dtype.

        `conv2d` hands out its output as an NCHW view of channels-last
        memory; the bias add and relu keep that layout, so the final
        transpose is a view and the tokens flatten without a copy."""
        s = self.cfg.input_size
        if x.ndim != 4 or x.shape[1:] != (3, s, s):
            raise ShapeError(f"encoder expects (n,3,{s},{s}) input, got {x.shape}")
        # center the inputs in the parameters' dtype, casting in the same
        # pass straight into stage 0's zero-padded C-order buffer, so conv2d
        # makes no padded copy; an all-positive input makes every
        # first-layer gradient row point the same way and stalls early SGD
        pad = self.cfg.pads[0]
        xp = np.zeros((x.shape[0], 3, s + 2 * pad, s + 2 * pad), self.weights[0].dtype)
        np.subtract(x.data, 0.5, out=xp[:, :, pad:pad + s, pad:pad + s], dtype=xp.dtype)
        h = Tensor(xp)
        for w, b, st, pad in zip(self.weights, self.biases,
                                 self.cfg.stride, (0,) + self.cfg.pads[1:]):
            h = ad.conv2d(h, w, stride=st, pad=pad)
            bias = ad.reshape(b, (-1, 1, 1))
            h = ad.relu(ad.add(h, bias))
        return ad.transpose(h, (0, 2, 3, 1))
