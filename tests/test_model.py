"""Fusion strategies, pooling, decision combination, end-to-end gradients."""

import math

import numpy as np
import pytest

import crossfit.autodiff as ad
from crossfit.autodiff import ContractError, Tensor, gradcheck, make_rng
from crossfit.attention import CfaConfig
from crossfit.encoder import EncoderConfig
from crossfit.model import (
    STRATEGIES, CrossFiTConfig, CrossFiTModel, _masked_mean, fuse, fuse_decisions, softmax_np,
)


def micro_cfg(**kw):
    base = dict(
        encoder=EncoderConfig(stage_channels=(4, 6), stride=2, kernel=3, input_size=16),
        cfa=CfaConfig(layers=1, heads=2, d_t=8, mlp_ratio=2, threshold=0.06,
                      zero_init_out=False),
        num_classes=3,
    )
    base.update(kw)
    return CrossFiTConfig(**base)


def rand_pair(seed, s=16, n=1):
    rng = make_rng(seed)
    i1 = rng.uniform(size=(n, s, s, 3))
    i2 = rng.uniform(size=(n, s, s, 3))
    od1 = rng.uniform(0.2, 0.8, size=(n, 2))
    od2 = rng.uniform(0.2, 0.8, size=(n, 2))
    return i1, i2, od1, od2


# ---------------------------------------------------------------------------
# batched predictions


def _predict_from_bias(bias, n=2):
    """predict_batch of a feat_max model whose logits are `bias` for every eye."""
    model = CrossFiTModel(make_rng(0), micro_cfg(strategy="feat_max",
                                                 num_classes=len(bias)))
    model.head.w.data[:] = 0.0
    model.head.b.data[:] = bias
    return model.predict_batch(*rand_pair(1, n=n))


def test_prediction_probs_sum_and_tie_break():
    grades, probs = _predict_from_bias([1.0, 1.0, 0.0])
    assert grades.dtype == np.int64 and grades.shape == (2,)
    assert probs.dtype == np.float64 and probs.shape == (2, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_array_equal(grades, [0, 0])  # lowest index wins the tie


def test_prediction_argmax_shift_invariant():
    logits = make_rng(0).normal(size=6)
    base, _ = _predict_from_bias(logits)
    shifted, _ = _predict_from_bias(logits + 123.375)
    np.testing.assert_array_equal(base, shifted)


# ---------------------------------------------------------------------------
# pooling and feature fusion


def test_global_pool_constant_rows():
    v = np.array([2.0, -1.0, 0.5])
    g = Tensor(np.tile(v, (1, 4, 1)))
    np.testing.assert_allclose(_masked_mean(g, None).data, [v], atol=1e-15)


def test_global_pool_hand_values():
    g = Tensor(np.array([[[1.0, 0.0], [3.0, 0.0]]]))
    out = _masked_mean(g, np.array([[1.0, 1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0, 0.0]])


def test_global_pool_single_row_mask():
    g = Tensor(np.array([[[1.0, 7.0], [3.0, 9.0]]]))
    out = _masked_mean(g, np.array([[1.0, 0.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 7.0]])


def test_fuse_hand_values():
    a, b = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
    np.testing.assert_array_equal(fuse(a, b, "feat_max").data, [3.0, 5.0])
    np.testing.assert_array_equal(fuse(a, b, "feat_avg").data, [2.0, 3.5])
    np.testing.assert_array_equal(fuse(a, b, "feat_concat").data, [1.0, 5.0, 3.0, 2.0])


def test_fuse_max_idempotent_commutative():
    g = Tensor(make_rng(1).normal(size=5))
    h = Tensor(make_rng(2).normal(size=5))
    np.testing.assert_array_equal(fuse(g, g, "feat_max").data, g.data)
    np.testing.assert_array_equal(fuse(g, h, "feat_max").data,
                                  fuse(h, g, "feat_max").data)
    with pytest.raises(ContractError):
        fuse(g, h, "pred_avg")


# ---------------------------------------------------------------------------
# forward passes per strategy


def test_crossfit_forward_shapes_and_sanity():
    model = CrossFiTModel(make_rng(3), micro_cfg())
    i1, i2, od1, od2 = rand_pair(4)
    (grade,), probs = model.predict_batch(i1, i2, od1, od2)
    assert probs.shape == (1, 3)
    assert abs(probs.sum() - 1.0) <= 1e-6
    assert 0 <= grade < 3


def test_crossfit_identical_inputs_no_crash():
    model = CrossFiTModel(make_rng(5), micro_cfg())
    i1, _, od1, _ = rand_pair(6)
    (grade,), _ = model.predict_batch(i1, i1, od1, od1)
    assert 0 <= grade < 3


def test_desk_config_five_logits():
    cfg = CrossFiTConfig()  # desk defaults: S=64, d_t=64, L=3, N=4, C=5
    model = CrossFiTModel(make_rng(7), cfg)
    rng = make_rng(8)
    i1 = rng.uniform(size=(1, 64, 64, 3))
    i2 = rng.uniform(size=(1, 64, 64, 3))
    _, probs = model.predict_batch(i1, i2, np.array([[0.5, 0.5]]), np.array([[0.3, 0.5]]))
    assert probs.shape == (1, 5)


def test_feature_baselines_have_no_attention_parameters():
    for strategy in ("feat_max", "feat_avg", "feat_concat", "single_field_1", "pred_max"):
        model = CrossFiTModel(make_rng(9), micro_cfg(strategy=strategy,
                                                     pe_mode="regular"))
        names = [n for n, _ in model.parameters()]
        assert not any(n.startswith(("cfa.", "proj.", "pe.")) for n in names), strategy


def test_feat_concat_classifier_width():
    model = CrossFiTModel(make_rng(10), micro_cfg(strategy="feat_concat"))
    assert model.head.w.shape == (12, 3)  # 2 * d_e


def test_single_field_ignores_other_field():
    cfg = micro_cfg(strategy="single_field_1", mask_enabled=False)
    model = CrossFiTModel(make_rng(11), cfg)
    i1, i2, od1, od2 = rand_pair(12, n=2)
    with ad.no_grad():
        a, _ = model.forward_batch(i1, i2, od1, od2)
        b, _ = model.forward_batch(i1, np.zeros_like(i2), od1, od2)
    np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_forward_encodes_each_field_it_reads_once(strategy):
    """One encoder call per field read, on that field's images. The digests
    cannot see a second encode whose output never reaches the logits."""
    model = CrossFiTModel(make_rng(13), micro_cfg(strategy=strategy))
    encoder, seen = model.encoder, []

    def counting_encoder(imgs):
        seen.append(imgs)
        return encoder(imgs)

    model.encoder = counting_encoder
    i1, i2, od1, od2 = rand_pair(14, n=2)
    with ad.no_grad():
        model.forward_batch(i1, i2, od1, od2)
    want = {"single_field_1": [i1], "single_field_2": [i2]}.get(strategy, [i1, i2])
    assert len(seen) == len(want)
    assert all(got is imgs for got, imgs in zip(seen, want))


# ---------------------------------------------------------------------------
# decision fusion


def _pred_for_grade(grade, c=5):
    logits = np.zeros(c)
    logits[grade] = 3.0
    return logits


def test_pred_max_takes_severer_grade():
    l1 = np.stack([_pred_for_grade(2), _pred_for_grade(4)])
    l2 = np.stack([_pred_for_grade(4), _pred_for_grade(2)])
    probs = fuse_decisions(l1, l2, "pred_max")
    np.testing.assert_array_equal(probs.argmax(axis=1), [4, 4])
    # each eye adopts the severer field's whole distribution
    np.testing.assert_array_equal(probs, softmax_np(np.stack([l2[0], l1[1]])))


def test_pred_max_tie_takes_field_1():
    l1 = np.array([[0.0, 3.0, 1.0]])
    l2 = np.array([[0.0, 3.0, 2.0]])
    np.testing.assert_array_equal(fuse_decisions(l1, l2, "pred_max"), softmax_np(l1))


def test_pred_avg_hand_values():
    l1 = np.log(np.array([[0.6, 0.4]]))
    l2 = np.log(np.array([[0.2, 0.8]]))
    probs = fuse_decisions(l1, l2, "pred_avg")
    np.testing.assert_allclose(probs, [[0.4, 0.6]], atol=1e-12)
    assert probs.argmax(axis=1).tolist() == [1]
    with pytest.raises(ContractError):
        fuse_decisions(l1, l2, "feat_max")


def _fuse_one_eye(l1, l2, strategy):
    """Reference: the per-eye rule the batched fusion must reproduce bit for bit."""
    p1, p2 = softmax_np(l1), softmax_np(l2)
    if strategy == "pred_max":
        return p1 if np.argmax(p1) >= np.argmax(p2) else p2
    return (p1 + p2) / 2.0


@pytest.mark.parametrize("strategy", ["pred_max", "pred_avg"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fuse_decisions_matches_per_eye_rule(strategy, dtype):
    rng = make_rng(30)
    l1 = rng.normal(size=(40, 5)).astype(dtype)
    l2 = rng.normal(size=(40, 5)).astype(dtype)
    l1[:20], l2[:20] = np.round(l1[:20]), np.round(l2[:20])  # argmax ties
    want = np.stack([_fuse_one_eye(a, b, strategy) for a, b in zip(l1, l2)])
    got = fuse_decisions(l1, l2, strategy)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_decision_identical_fields_match_single():
    for strategy in ("pred_avg", "pred_max"):
        model = CrossFiTModel(make_rng(15), micro_cfg(strategy=strategy))
        i1, _, od1, _ = rand_pair(16)
        grades, probs = model.predict_batch(i1, i1, od1, od1)
        with ad.no_grad():
            (l1, _), _ = model.forward_batch(i1, i1, od1, od1)
        single = softmax_np(l1.data)
        np.testing.assert_array_equal(grades, single.argmax(axis=1))
        np.testing.assert_allclose(probs, single, atol=1e-12)


def test_pred_max_dominates_each_field():
    model = CrossFiTModel(make_rng(17), micro_cfg(strategy="pred_max"))
    i1, i2, od1, od2 = rand_pair(18, n=3)
    with ad.no_grad():
        (l1, l2), _ = model.forward_batch(i1, i2, od1, od2)
    grades, _ = model.predict_batch(i1, i2, od1, od2)
    assert grades.shape == (3,)
    assert np.all(grades >= np.argmax(l1.data, axis=1))
    assert np.all(grades >= np.argmax(l2.data, axis=1))


# ---------------------------------------------------------------------------
# losses


def test_single_field_loss_uniform_logits():
    cfg = micro_cfg(strategy="pred_avg", num_classes=5, mask_enabled=False)
    model = CrossFiTModel(make_rng(19), cfg)
    model.head.w.data[:] = 0.0
    model.head.b.data[:] = 0.0
    i1, i2, od1, od2 = rand_pair(20)
    loss = model.loss_batch(i1, i2, od1, od2, [3])
    assert abs(loss.item() - 2.0 * math.log(5.0)) <= 1e-12
    ad.active_tape().clear()


def test_single_field_loss_identical_fields_doubles():
    cfg = micro_cfg(strategy="pred_max", mask_enabled=False)
    model = CrossFiTModel(make_rng(21), cfg)
    i1, _, _, _ = rand_pair(22)
    both = model.loss_batch(i1, i1, None, None, [1]).item()
    ad.active_tape().clear()
    with ad.no_grad():
        (l1, _), _ = model.forward_batch(i1, i1, None, None)
    single = ad.cross_entropy_logits(Tensor(l1.data), [1]).item()
    assert abs(both - 2.0 * single) <= 1e-10


def test_crossfit_loss_gradients_reach_all_parameters():
    cfg = micro_cfg(pe_mode="aligned")
    model = CrossFiTModel(make_rng(24), cfg)
    i1, i2, od1, od2 = rand_pair(25, n=2)
    loss = model.loss_batch(i1, i2, od1, od2, [0, 2])
    ad.backward(loss)
    for name, p in model.parameters():
        assert p.grad is not None and np.any(p.grad != 0.0), f"dead parameter {name}"


def test_end_to_end_gradcheck_tiny():
    # smallest full pipeline: 8x8 images, 2x2 tokens, one block
    cfg = CrossFiTConfig(
        encoder=EncoderConfig(stage_channels=(3, 4), stride=2, kernel=3, input_size=8),
        cfa=CfaConfig(layers=1, heads=2, d_t=8, mlp_ratio=2, threshold=0.06,
                      zero_init_out=False),
        num_classes=3, pe_mode="aligned")
    model = CrossFiTModel(make_rng(26), cfg)
    i1, i2, od1, od2 = rand_pair(27, s=8)
    params = [t for _, t in model.parameters()]

    def fn():
        return model.loss_batch(i1, i2, od1, od2, [1])

    err = gradcheck(fn, params, max_elems=25, rng=make_rng(99))
    assert err < 1e-3, f"end-to-end gradient error {err:.3e}"


def test_config_contracts():
    with pytest.raises(ContractError):
        micro_cfg(strategy="bogus")
    with pytest.raises(ContractError):
        micro_cfg(pe_mode="spiral")
    with pytest.raises(ContractError):
        micro_cfg(num_classes=1)
