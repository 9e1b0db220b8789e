"""Masks, masked attention exactness, block structure, stack behavior."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossfit.autodiff as ad
from crossfit.autodiff import ContractError, ShapeError, Tensor, gradcheck, make_rng, no_grad
from crossfit.attention import (
    AttentionRecord, CfaConfig, CfaLayer, CfaStack, MultiHeadAttention,
    export_attention_record, masks_from_features,
)
from crossfit.encoder import EncoderConfig
from crossfit.model import CrossFiTConfig, CrossFiTModel


def toy_cfg(**kw):
    base = dict(layers=1, heads=2, d_t=8, mlp_ratio=2, threshold=0.06, zero_init_out=False)
    base.update(kw)
    return CfaConfig(**base)


# ---------------------------------------------------------------------------
# fundus mask


def test_mask_threshold_zero_all_ones():
    feats = make_rng(0).uniform(size=(1, 3, 3, 4))
    np.testing.assert_array_equal(masks_from_features(feats, 0.0), np.ones((1, 9)))


def test_mask_constant_map_all_ones():
    feats = np.full((1, 2, 2, 3), 0.7)
    np.testing.assert_array_equal(masks_from_features(feats, 0.9), np.ones((1, 4)))


def test_mask_zero_corner_from_stub(encode_stub):
    img = np.full((8, 8, 3), 0.9)
    img[:4, :4] = 0.0
    m = masks_from_features(encode_stub(img, 4)[None], 0.06)
    np.testing.assert_array_equal(m, [[0.0, 1.0, 1.0, 1.0]])


def test_mask_threshold_range_contract():
    with pytest.raises(ContractError):
        masks_from_features(np.ones((1, 2, 2, 1)), 1.5)


def test_masks_from_features_matches_single():
    feats = make_rng(1).uniform(size=(4, 3, 3, 5))
    batched = masks_from_features(feats, 0.3)
    for i in range(4):
        single = masks_from_features(feats[i:i + 1], 0.3)
        np.testing.assert_array_equal(batched[i], single[0])


def test_masks_from_features_constant_row():
    feats = np.ones((2, 2, 2, 3))
    feats[1] = make_rng(2).uniform(size=(2, 2, 3))
    m = masks_from_features(feats, 0.5)
    np.testing.assert_array_equal(m[0], np.ones(4))


# ---------------------------------------------------------------------------
# sequence projection


def projecting_model(rng, d_e: int, d_t: int = 4) -> CrossFiTModel:
    """A crossfit model whose projection maps d_e encoder channels to d_t."""
    cfg = CrossFiTConfig(encoder=EncoderConfig(stage_channels=(d_e,), stride=2, kernel=3,
                                               input_size=4),
                         cfa=CfaConfig(layers=0, heads=1, d_t=d_t))
    return CrossFiTModel(rng, cfg)


def to_tokens(model, feats: Tensor) -> Tensor:
    """The model's path from (b,h,w,d_e) features to (b,l,d_t) tokens."""
    return model.proj(model._flatten(feats))


def test_project_identity_is_flatten():
    rng = make_rng(3)
    feats = Tensor(rng.uniform(size=(1, 2, 3, 4)))
    model = projecting_model(rng, 4)
    model.proj.w.data[:] = np.eye(4)
    model.proj.b.data[:] = 0.0
    seq = to_tokens(model, feats)
    np.testing.assert_array_equal(seq.data, feats.data.reshape(1, 6, 4))


def test_project_row_major_hand_values():
    feats = Tensor(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
    model = projecting_model(make_rng(0), 1)
    model.proj.w.data[:] = [[2.0, 0.0, 0.0, 0.0]]
    model.proj.b.data[:] = 0.0
    seq = to_tokens(model, feats)
    np.testing.assert_array_equal(seq.data[..., :1], [[[2.0], [4.0], [6.0], [8.0]]])


def test_project_gradcheck():
    rng = make_rng(4)
    vals = ad.parameter(rng.normal(size=(1, 2, 2, 3)))
    model = projecting_model(rng, 3, d_t=8)
    c = Tensor(rng.normal(size=(1, 4, 8)))

    def fn():
        return ad.sum_(ad.mul(to_tokens(model, vals), c))

    assert gradcheck(fn, [vals, model.proj.w, model.proj.b], eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# masked attention


def test_all_ones_mask_equals_unmasked_bitwise():
    cfg = toy_cfg()
    mha = MultiHeadAttention(make_rng(5), cfg)
    f = Tensor(make_rng(6).normal(size=(1, 4, 8)))
    with no_grad():
        masked = mha(f, np.ones((1, 4)))
        plain = mha(f, None)
    assert masked.data.tobytes() == plain.data.tobytes()


def test_single_unmasked_key():
    cfg = toy_cfg(heads=2)
    mha = MultiHeadAttention(make_rng(7), cfg)
    f = Tensor(make_rng(8).normal(size=(1, 2, 8)))
    rec = []
    with no_grad():
        out = mha(f, np.array([[1.0, 0.0]]), rec)
    a = rec[0]
    np.testing.assert_array_equal(a[..., 0], np.ones((1, 2, 2)))
    np.testing.assert_array_equal(a[..., 1], np.zeros((1, 2, 2)))
    np.testing.assert_allclose(out.data[0, 0], out.data[0, 1], atol=1e-15)


def test_zero_query_uniform_over_unmasked():
    cfg = toy_cfg(heads=1)
    mha = MultiHeadAttention(make_rng(9), cfg)
    mha.wq.w.data[:] = 0.0
    mha.wq.b.data[:] = 0.0
    f = Tensor(make_rng(10).normal(size=(1, 4, 8)))
    mask = np.array([[1.0, 0.0, 1.0, 1.0]])
    rec = []
    with no_grad():
        mha(f, mask, rec)
    a = rec[0][0, 0]
    np.testing.assert_allclose(a[:, [0, 2, 3]], 1.0 / 3.0, atol=1e-12)
    np.testing.assert_array_equal(a[:, 1], np.zeros(4))


def test_all_zero_mask_rejected():
    mha = MultiHeadAttention(make_rng(11), toy_cfg())
    f = Tensor(np.ones((1, 3, 8)))
    with pytest.raises(ContractError):
        mha(f, np.zeros((1, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.sampled_from([4, 8, 16]),
       st.integers(2, 6))
def test_masked_columns_zero_rows_normalized(seed, heads, d_t, tokens):
    if d_t % heads != 0:
        heads = 1
    cfg = CfaConfig(layers=1, heads=heads, d_t=d_t, mlp_ratio=2, threshold=0.5,
                    zero_init_out=False)
    rng = make_rng(seed)
    mha = MultiHeadAttention(rng, cfg)
    f = Tensor(rng.normal(size=(1, tokens, d_t)))
    mask = (rng.uniform(size=tokens) < 0.6).astype(float)
    if mask.sum() == 0:
        mask[int(rng.integers(tokens))] = 1.0
    rec = []
    with no_grad():
        mha(f, mask[None, :], rec)
    a = rec[0]
    masked_cols = np.flatnonzero(mask == 0.0)
    assert (a[..., masked_cols] == 0.0).all()
    np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)


def test_masked_mha_gradcheck():
    cfg = toy_cfg(heads=2)
    rng = make_rng(12)
    mha = MultiHeadAttention(rng, cfg)
    f = ad.parameter(rng.normal(size=(1, 3, 8)))
    mask = np.array([[1.0, 0.0, 1.0]])
    c = Tensor(rng.normal(size=(1, 3, 8)))
    params = [f] + [t for _, t in mha.parameters()]

    def fn():
        return ad.sum_(ad.mul(mha(f, mask), c))

    assert gradcheck(fn, params, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# blocks and the stack


def test_zero_init_block_is_identity():
    cfg = toy_cfg(zero_init_out=True)
    layer = CfaLayer(make_rng(13), cfg)
    f = Tensor(make_rng(14).normal(size=(1, 6, 8)))
    with no_grad():
        out = layer(f, None)
    np.testing.assert_array_equal(out.data, f.data)


def test_block_preserves_shape():
    cfg = toy_cfg()
    layer = CfaLayer(make_rng(15), cfg)
    for tokens in (2, 5, 9):
        f = Tensor(make_rng(tokens).normal(size=(2, tokens, 8)))
        with no_grad():
            out = layer(f, None)
        assert out.shape == (2, tokens, 8)


def test_block_gradcheck():
    cfg = toy_cfg(heads=2, mlp_ratio=2)
    rng = make_rng(16)
    layer = CfaLayer(rng, cfg)
    f = ad.parameter(rng.normal(size=(1, 4, 8)))
    mask = np.array([[1.0, 1.0, 0.0, 1.0]])
    c = Tensor(rng.normal(size=(1, 4, 8)))
    params = [f] + [t for _, t in layer.parameters()]

    def fn():
        return ad.sum_(ad.mul(layer(f, mask), c))

    assert gradcheck(fn, params, eps=1e-5) < 1e-4


def test_stack_zero_layers_adds_embeddings():
    cfg = toy_cfg(layers=0)
    stack = CfaStack(make_rng(17), cfg)
    rng = make_rng(18)
    f1 = Tensor(rng.normal(size=(1, 4, 8)))
    f2 = Tensor(rng.normal(size=(1, 4, 8)))
    pe1 = rng.normal(size=(1, 4, 8))
    pe2 = rng.normal(size=(4, 8))     # one embedding shared across the batch
    g1, g2, _ = stack(f1, f2, pe1, pe2, None, None)
    np.testing.assert_array_equal(g1.data, f1.data + pe1)
    np.testing.assert_array_equal(g2.data, f2.data + pe2)


def test_stack_identical_fields_symmetric():
    cfg = toy_cfg(layers=2)
    stack = CfaStack(make_rng(19), cfg)
    rng = make_rng(20)
    vals = rng.normal(size=(1, 4, 8))
    pe = rng.normal(size=(4, 8))
    ones = np.ones((1, 4))
    with no_grad():
        g1, g2, _ = stack(Tensor(vals), Tensor(vals), pe, pe, ones, ones)
    np.testing.assert_array_equal(g1.data, g2.data)


def test_stack_field_swap_permutes_outputs():
    cfg = toy_cfg(layers=2, heads=2)
    stack = CfaStack(make_rng(21), cfg)
    rng = make_rng(22)
    f1, f2 = rng.normal(size=(1, 4, 8)), rng.normal(size=(1, 4, 8))
    pe1, pe2 = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    m1 = np.array([[1.0, 1.0, 0.0, 1.0]])
    m2 = np.array([[1.0, 1.0, 1.0, 0.0]])
    with no_grad():
        g1, g2, _ = stack(Tensor(f1), Tensor(f2), pe1, pe2, m1, m2)
        h2, h1, _ = stack(Tensor(f2), Tensor(f1), pe2, pe1, m2, m1)
    np.testing.assert_allclose(g1.data, h1.data, atol=1e-6)
    np.testing.assert_allclose(g2.data, h2.data, atol=1e-6)


def test_stack_record_masked_columns_zero():
    cfg = toy_cfg(layers=2, heads=2)
    stack = CfaStack(make_rng(23), cfg)
    rng = make_rng(24)
    f1, f2 = Tensor(rng.normal(size=(1, 3, 8))), Tensor(rng.normal(size=(1, 3, 8)))
    m1 = np.array([[1.0, 0.0, 1.0]])
    m2 = np.array([[0.0, 1.0, 1.0]])
    with no_grad():
        _, _, rec = stack(f1, f2, None, None, m1, m2, record=True)
    assert len(rec.layers) == 2
    merged = np.concatenate([m1, m2], axis=1)[0]
    for a in rec.layers:
        assert (a[..., merged == 0.0] == 0.0).all()
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)


def test_stack_shape_contracts():
    stack = CfaStack(make_rng(25), toy_cfg())
    f1 = Tensor(np.ones((1, 4, 8)))
    with pytest.raises(ShapeError):
        stack(f1, Tensor(np.ones((1, 3, 8))), None, None, None, None)
    with pytest.raises(ShapeError):
        stack(f1, Tensor(np.ones((1, 4, 8))), None, None, np.ones((1, 3)), np.ones((1, 4)))
    with pytest.raises(ContractError):
        stack(f1, Tensor(np.ones((1, 4, 8))), None, None, np.ones((1, 4)), None)
    with pytest.raises(ShapeError):          # one eye must carry its batch axis
        stack(Tensor(np.ones((4, 8))), Tensor(np.ones((4, 8))), None, None, None, None)


def test_cfg_contracts():
    with pytest.raises(ContractError):
        CfaConfig(d_t=10, heads=2)   # not divisible by 4
    with pytest.raises(ContractError):
        CfaConfig(d_t=12, heads=5)
    with pytest.raises(ContractError):
        CfaConfig(threshold=-0.1)
    with pytest.raises(ContractError):
        CfaConfig(heads=0)
    with pytest.raises(ContractError):
        CfaConfig(d_t=0)


def test_record_export_round_trip(tmp_path):
    rec = AttentionRecord(layers=[make_rng(26).uniform(size=(1, 2, 6, 6))])
    paths = export_attention_record(rec, str(tmp_path))
    assert len(paths) == 1
    with open(paths[0], "rb") as fh:
        head = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    assert head["shape"] == [2, 6, 6]
    assert len(payload) == head["payload_bytes"]
    vals = np.frombuffer(payload, dtype="<f4").reshape(head["shape"])
    np.testing.assert_allclose(vals, rec.layers[0][0], atol=1e-7)
