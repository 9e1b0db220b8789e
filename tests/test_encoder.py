"""Encoder shapes, locality of the stub, and gradient reachability."""

import numpy as np
import pytest

import crossfit.autodiff as ad
from crossfit.autodiff import ContractError, ShapeError, backward, make_rng
from crossfit.encoder import Encoder, EncoderConfig
from crossfit.model import CrossFiTConfig, CrossFiTModel


def encode(enc, images):
    """(n,S,S,3) channels-last images -> the encoder's (n,h,w,d_e) values."""
    return enc(images).data


def test_default_config_feature_shape():
    cfg = EncoderConfig()
    assert cfg.total_stride == 16
    assert cfg.feature_side == 4
    assert cfg.d_e == 192
    enc = Encoder(make_rng(0), cfg)
    img = make_rng(1).uniform(size=(1, 64, 64, 3))
    assert encode(enc, img).shape == (1, 4, 4, 192)


def test_neutral_image_zero_features():
    # inputs are centered around mid-gray inside the stack; with zero biases
    # a 0.5 image propagates exact zeros through every stage
    cfg = EncoderConfig(stage_channels=(4, 8), stride=2, kernel=3, input_size=16)
    enc = Encoder(make_rng(0), cfg)
    feats = encode(enc, np.full((1, 16, 16, 3), 0.5))
    np.testing.assert_array_equal(feats, np.zeros((1, 4, 4, 8)))


def test_activations_nonnegative():
    cfg = EncoderConfig(stage_channels=(4, 8), stride=2, kernel=3, input_size=16)
    enc = Encoder(make_rng(3), cfg)
    feats = encode(enc, make_rng(4).uniform(size=(1, 16, 16, 3)))
    assert (feats >= 0.0).all()


def test_wrong_input_size_rejected():
    cfg = EncoderConfig(stage_channels=(4,), stride=2, kernel=3, input_size=16)
    enc = Encoder(make_rng(0), cfg)
    with pytest.raises(ShapeError):
        encode(enc, np.zeros((1, 8, 8, 3)))
    with pytest.raises(ShapeError):          # one image must carry its batch axis
        enc(np.zeros((16, 16, 3)))


def test_channels_first_input_rejected():
    cfg = EncoderConfig(stage_channels=(4,), stride=2, kernel=3, input_size=16)
    enc = Encoder(make_rng(0), cfg)
    with pytest.raises(ShapeError, match=r"\(n,16,16,3\)"):
        enc(np.zeros((2, 3, 16, 16)))


def test_config_divisibility_contract():
    with pytest.raises(ContractError):
        EncoderConfig(stage_channels=(4, 8, 8), stride=2, kernel=3, input_size=20)
    with pytest.raises(ContractError):
        EncoderConfig(stage_channels=())
    with pytest.raises(ContractError):
        EncoderConfig(stage_channels=(4, 0), stride=2, kernel=3, input_size=16)
    with pytest.raises(ContractError):
        EncoderConfig(input_size=0)


def test_batched_matches_single():
    cfg = EncoderConfig(stage_channels=(4, 8), stride=2, kernel=3, input_size=16)
    enc = Encoder(make_rng(5), cfg)
    imgs = make_rng(6).uniform(size=(3, 16, 16, 3))
    batched = encode(enc, imgs)
    for i in range(3):
        single = encode(enc, imgs[i:i + 1])
        np.testing.assert_array_equal(batched[i], single[0])


def test_gradients_reach_every_parameter():
    cfg = EncoderConfig(stage_channels=(4, 8), stride=2, kernel=3, input_size=16)
    enc = Encoder(make_rng(7), cfg)
    imgs = make_rng(8).uniform(size=(2, 16, 16, 3))
    out = enc(imgs)
    backward(ad.sum_(ad.mul(out, out)))
    for name, p in enc.parameters():
        assert p.grad is not None and np.any(p.grad != 0.0), f"dead parameter {name}"


def test_stub_ones(encode_stub):
    fm = encode_stub(np.ones((4, 4, 3)), 2)
    np.testing.assert_array_equal(fm, np.ones((2, 2, 1)))


def test_stub_zero_quadrant(encode_stub):
    img = np.full((8, 8, 3), 0.9)
    img[:4, :4] = 0.0
    fm = encode_stub(img, 4)
    assert fm[0, 0, 0] == 0.0
    assert abs(fm[1, 1, 0] - 0.9) <= 1e-15


def test_stub_is_patch_mean(encode_stub):
    img = make_rng(9).uniform(size=(12, 12, 3))
    fm = encode_stub(img, 3)
    for i in range(4):
        for j in range(4):
            want = img[3 * i:3 * i + 3, 3 * j:3 * j + 3].mean()
            assert abs(fm[i, j, 0] - want) <= 1e-12


def test_stub_exactly_local(encode_stub):
    img = make_rng(10).uniform(size=(8, 8, 3))
    base = encode_stub(img, 4).copy()
    other = img.copy()
    other[5:, 5:] = 0.123  # bottom-right patch only
    cell = encode_stub(other, 4)
    np.testing.assert_array_equal(cell[0, 0], base[0, 0])
    np.testing.assert_array_equal(cell[0, 1], base[0, 1])
    np.testing.assert_array_equal(cell[1, 0], base[1, 0])


def test_stub_divisibility_contract(encode_stub):
    with pytest.raises(ShapeError):
        encode_stub(np.ones((9, 9, 3)), 4)
    with pytest.raises(ShapeError):
        encode_stub(np.ones((8, 6, 3)), 2)


def test_cli_geometry_output_is_channels_last_and_flattens_as_a_view():
    """At the CLI's one 15x15, stride-16 stage, the encoder's (n,h,w,d_e)
    output is C-contiguous, so the model's flatten to (n, h*w, d_e) tokens
    is a view of it, not a copy."""
    cfg = CrossFiTConfig(encoder=EncoderConfig(stage_channels=(192,), stride=16, kernel=15,
                                               input_size=64), strategy="feat_max")
    model = CrossFiTModel(make_rng(0), cfg)
    images = make_rng(1).uniform(size=(2, 64, 64, 3))
    with ad.no_grad():
        x = model.encoder(images)
        tokens = model._flatten(x)
    assert x.shape == (2, 4, 4, 192) and x.data.flags.c_contiguous
    assert tokens.shape == (2, 16, 192) and np.shares_memory(tokens.data, x.data)
