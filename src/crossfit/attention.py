"""Fundus masks and the masked multi-head attention stack over both fields.

The two flattened field sequences are concatenated into one 2l-token sequence
and run through pre-LN transformer blocks. Masking is additive: key columns
whose mask bit is 0 receive -inf before the row softmax, so their post-softmax
weight is exactly zero. Query rows are never dropped; every token produces an
output. When a mask is all ones the bias is never built and the computation
is the unmasked one, bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, ShapeError, Tensor

__all__ = [
    "CfaConfig", "masks_from_features", "MultiHeadAttention", "CfaLayer",
    "CfaStack", "AttentionRecord", "export_attention_record",
]


@dataclass(frozen=True)
class CfaConfig:
    """Cross-field attention stack and mask."""

    layers: int = 3
    heads: int = 4
    d_t: int = 64
    mlp_ratio: int = 4
    threshold: float = 0.06
    zero_init_out: bool = True  # zero the two output projections: identity at init

    def __post_init__(self):
        if self.heads < 1 or self.d_t < 1:
            raise ContractError(f"heads ({self.heads}) and model width ({self.d_t}) "
                                f"must be positive")
        if self.d_t % self.heads != 0 or self.d_t % 4 != 0:
            raise ContractError(
                f"model width {self.d_t} must divide by heads ({self.heads}) and by 4")
        if self.layers < 0:
            raise ContractError(f"layer count {self.layers} negative")
        if not (0.0 <= self.threshold <= 1.0):
            raise ContractError(f"mask threshold {self.threshold} outside [0,1]")
        if self.mlp_ratio < 1:
            raise ContractError(f"mlp ratio {self.mlp_ratio} < 1")

    @property
    def head_dim(self) -> int:
        return self.d_t // self.heads


def _normalize_means(means: np.ndarray) -> np.ndarray:
    """Per-image min-max to [0,1]; a constant map normalizes to all ones so
    no field can end up fully masked. So does a map holding NaN or inf,
    which has no order to threshold: its non-finite features then reach
    the outputs, where the loss and output checks report them."""
    lo = means.min(axis=-1, keepdims=True)
    hi = means.max(axis=-1, keepdims=True)
    span = hi - lo
    ordered = np.isfinite(span) & (span > 0.0)
    norm = (means - lo) / np.where(ordered, span, 1.0)
    norm[~ordered[..., 0]] = 1.0
    return norm


def masks_from_features(feat: np.ndarray, p: float) -> np.ndarray:
    """Mask bits (n, l) from channels-last feature values (n,h,w,d): threshold
    the min-max-normalized channel-mean activation map, row-major flattened."""
    if not (0.0 <= p <= 1.0):
        raise ContractError(f"threshold {p} outside [0,1]")
    n = feat.shape[0]
    means = feat.mean(axis=3).reshape(n, -1)
    return (_normalize_means(means) >= p).astype(feat.dtype)


def _mask_bias(mask: np.ndarray, dtype) -> np.ndarray | None:
    """(n, t) bits -> (n, 1, 1, t) additive bias, or None when nothing is masked."""
    if mask is None:
        return None
    mask = np.asarray(mask)
    if (mask.sum(axis=-1) == 0).any():
        raise ContractError("attention mask with no set bit; degenerate rule "
                            "should have produced all ones upstream")
    if mask.all():
        return None  # -inf never applied; unmasked path, bit for bit
    bias = np.where(mask == 0.0, -np.inf, 0.0).astype(dtype)
    return bias[:, None, None, :]


class MultiHeadAttention:
    """Learned Q/K/V/O projections plus the masked scaled-dot-product core."""

    def __init__(self, rng: np.random.Generator, cfg: CfaConfig):
        self.cfg = cfg
        d = cfg.d_t
        self.wq = ad.Linear(rng, d, d)
        self.wk = ad.Linear(rng, d, d)
        self.wv = ad.Linear(rng, d, d)
        self.wo = ad.Linear(rng, d, d, zero_init=cfg.zero_init_out)

    def parameters(self):
        for tag, lin in (("q", self.wq), ("k", self.wk), ("v", self.wv), ("o", self.wo)):
            for name, t in lin.parameters():
                yield f"{tag}.{name}", t

    def __call__(self, x: Tensor, mask: np.ndarray | None,
                 records: list | None = None) -> Tensor:
        b, t, d = x.shape
        n, dh = self.cfg.heads, self.cfg.head_dim

        def split_heads(z):
            return ad.transpose(ad.reshape(z, (b, t, n, dh)), (0, 2, 1, 3))

        q = split_heads(self.wq(x))
        k = split_heads(self.wk(x))
        v = split_heads(self.wv(x))
        logits = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                          1.0 / math.sqrt(dh))
        bias = _mask_bias(mask, x.dtype)
        if bias is not None:
            logits = ad.add(logits, Tensor(bias))
        attn = ad.softmax_lastdim(logits)
        if records is not None:
            records.append(attn.data.copy())
        out = ad.matmul(attn, v)
        merged = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (b, t, d))
        return self.wo(merged)


class CfaLayer:
    """Pre-LN block: F' = G + MLP(LN(G)), G = F + MHA(LN(F), mask)."""

    def __init__(self, rng: np.random.Generator, cfg: CfaConfig):
        d, hidden = cfg.d_t, cfg.d_t * cfg.mlp_ratio
        self.ln1 = ad.LayerNorm(d)
        self.mha = MultiHeadAttention(rng, cfg)
        self.ln2 = ad.LayerNorm(d)
        self.mlp1 = ad.Linear(rng, d, hidden)
        self.mlp2 = ad.Linear(rng, hidden, d, zero_init=cfg.zero_init_out)

    def parameters(self):
        groups = (("ln1", self.ln1), ("mha", self.mha), ("ln2", self.ln2),
                  ("mlp1", self.mlp1), ("mlp2", self.mlp2))
        for tag, mod in groups:
            for name, t in mod.parameters():
                yield f"{tag}.{name}", t

    def __call__(self, f: Tensor, mask: np.ndarray | None,
                 records: list | None = None) -> Tensor:
        g = ad.add(f, self.mha(self.ln1(f), mask, records))
        m = self.mlp2(ad.gelu(self.mlp1(self.ln2(g))))
        return ad.add(g, m)


@dataclass
class AttentionRecord:
    """Post-softmax weights captured at inference, one (b, heads, 2l, 2l)
    array per layer."""

    layers: list = field(default_factory=list)


class CfaStack:
    """L blocks over the concatenated two-field token sequence."""

    def __init__(self, rng: np.random.Generator, cfg: CfaConfig):
        self.cfg = cfg
        self.layers = [CfaLayer(rng, cfg) for _ in range(cfg.layers)]

    def parameters(self):
        for i, layer in enumerate(self.layers):
            for name, t in layer.parameters():
                yield f"cfa.layer{i}.{name}", t

    def __call__(self, f1: Tensor, f2: Tensor, pe1, pe2, m1, m2,
                 record: bool = False) -> tuple[Tensor, Tensor, AttentionRecord | None]:
        if f1.shape != f2.shape:
            raise ShapeError(f"field sequences disagree: {f1.shape} vs {f2.shape}")
        if f1.ndim != 3 or f1.shape[-1] != self.cfg.d_t:
            raise ShapeError(f"field sequences must be (b, l, {self.cfg.d_t}), got {f1.shape}")
        b, l, _ = f1.shape

        def with_pe(f, pe):
            if pe is None:
                return f
            return ad.add(f, Tensor(np.asarray(pe, dtype=f.dtype)))

        x = ad.concat([with_pe(f1, pe1), with_pe(f2, pe2)], axis=1)
        if m1 is None and m2 is None:
            mask = None
        elif m1 is None or m2 is None:
            raise ContractError("either both field masks or neither")
        else:
            m1, m2 = np.asarray(m1), np.asarray(m2)
            if m1.shape != (b, l) or m2.shape != (b, l):
                raise ShapeError(f"mask shapes {m1.shape}/{m2.shape} != ({b}, {l})")
            mask = np.concatenate([m1, m2], axis=1)
        rec = AttentionRecord() if record else None
        captured = rec.layers if record else None
        for layer in self.layers:
            x = layer(x, mask, captured)
        return x[:, :l], x[:, l:], rec


def export_attention_record(rec: AttentionRecord, out_dir: str) -> list[str]:
    """One file per layer: a JSON metadata line, then the row-major weights
    as little-endian float32."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, a in enumerate(rec.layers):
        a = np.asarray(a)
        if a.ndim == 4 and a.shape[0] == 1:
            a = a[0]
        payload = a.astype("<f4").tobytes(order="C")
        head = {"layer": i, "shape": list(a.shape), "dtype": "<f4",
                "order": "row-major", "payload_bytes": len(payload)}
        path = os.path.join(out_dir, f"attn_layer{i}.bin")
        with open(path, "wb") as fh:
            fh.write((json.dumps(head) + "\n").encode("utf-8"))
            fh.write(payload)
        paths.append(path)
    return paths
