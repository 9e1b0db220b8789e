"""Optimizer arithmetic, metric oracles, training behavior, checkpoints."""

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import crossfit.autodiff as ad
from crossfit import train_eval as te
from crossfit.autodiff import ContractError, Tensor, make_rng, parameter
from crossfit.attention import CfaConfig
from crossfit.encoder import EncoderConfig
from crossfit.model import PE_MODES, STRATEGIES, CrossFiTConfig, CrossFiTModel
from crossfit.synthdata import ArrayDataset, generate_dataset
from crossfit.train_eval import (
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Checkpoint, CheckpointError, MetricsReport, TrainConfig, TrainingDiverged,
    NonFiniteOutputError, build_model_from_checkpoint, config_from_dict, evaluate,
    finite_outputs,
    load_checkpoint, metrics_from_predictions,
    predict_dataset, quadratic_weighted_kappa, roc_auc_ovr, save_checkpoint, sgd_momentum_step,
    train, _average_ranks,
)


def kappa_oracle(conf):
    """Direct loop evaluation of the weighted-agreement formula."""
    c = len(conf)
    total = float(sum(sum(row) for row in conf))
    rows = [float(sum(conf[i])) for i in range(c)]
    cols = [float(sum(conf[i][j] for i in range(c))) for j in range(c)]
    num = den = 0.0
    for i in range(c):
        for j in range(c):
            w = (i - j) ** 2 / (c - 1) ** 2
            num += w * conf[i][j]
            den += w * rows[i] * cols[j] / total
    return 1.0 - num / den if den else 1.0


def auc_oracle(scores, positives):
    """All-pairs concordance count."""
    pos = [s for s, y in zip(scores, positives) if y]
    neg = [s for s, y in zip(scores, positives) if not y]
    if not pos or not neg:
        return None
    wins = 0.0
    for sp in pos:
        for sn in neg:
            wins += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return wins / (len(pos) * len(neg))


def micro_model(seed=0, **cfg_kw):
    base = dict(
        encoder=EncoderConfig(stage_channels=(4, 6), stride=2, kernel=3, input_size=16),
        cfa=CfaConfig(layers=1, heads=2, d_t=8, mlp_ratio=2, threshold=0.06,
                      zero_init_out=False),
        num_classes=3)
    base.update(cfg_kw)
    return CrossFiTModel(make_rng(seed), CrossFiTConfig(**base))


def tiny_dataset(seed, n=8, s=16, classes=3):
    rng = make_rng(seed)
    return SimpleNamespace(
        images1=rng.uniform(size=(n, s, s, 3)),
        images2=rng.uniform(size=(n, s, s, 3)),
        od1=rng.uniform(0.2, 0.8, size=(n, 2)),
        od2=rng.uniform(0.2, 0.8, size=(n, 2)),
        grades=rng.integers(0, classes, size=n),
        split_evidence=np.zeros(n, dtype=bool),
        eye_ids=np.arange(n))


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_plain_descent():
    p = parameter([1.0, -2.0])
    p.grad = np.array([0.5, 0.25])
    v = {"p": np.zeros(2)}
    sgd_momentum_step({"p": p}, v, TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0))
    np.testing.assert_allclose(p.data, [0.95, -2.025], atol=1e-15)


def test_sgd_no_gradient_no_motion():
    p = parameter([3.0])
    p.grad = np.array([0.0])
    v = {"p": np.zeros(1)}
    sgd_momentum_step({"p": p}, v, TrainConfig(lr=0.5, momentum=0.9, weight_decay=0.0))
    np.testing.assert_array_equal(p.data, [3.0])


def test_sgd_two_step_hand_unroll():
    lr, mu, wd = 0.1, 0.9, 0.01
    theta, vel = 2.0, 0.0
    grads = [0.3, -0.7]
    for g in grads:
        vel = mu * vel + g + wd * theta
        theta = theta - lr * vel
    p = parameter([2.0])
    v = {"p": np.zeros(1)}
    cfg = TrainConfig(lr=lr, momentum=mu, weight_decay=wd)
    for g in grads:
        p.grad = np.array([g])
        sgd_momentum_step({"p": p}, v, cfg)
    assert abs(p.data[0] - theta) <= 1e-12


def test_weight_decay_shrinks_without_gradient():
    p = parameter(make_rng(0).normal(size=6))
    before = np.linalg.norm(p.data)
    p.grad = np.zeros(6)
    v = {"p": np.zeros(6)}
    sgd_momentum_step({"p": p}, v, TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.1))
    assert np.linalg.norm(p.data) < before


def test_train_config_contracts():
    for bad in ({"lr": -0.1}, {"lr": math.nan}, {"momentum": math.inf},
                {"weight_decay": -math.inf}):
        with pytest.raises(ContractError, match=f"{next(iter(bad))} .* must be finite"):
            TrainConfig(**bad)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(seed=-1)
    TrainConfig(lr=0.0)  # explicitly allowed


# ---------------------------------------------------------------------------
# kappa


def test_kappa_perfect_agreement():
    assert quadratic_weighted_kappa(np.diag([3, 1, 4])) == 1.0
    assert quadratic_weighted_kappa(np.array([[7]])) == 1.0


def test_kappa_chance_level_hand_example():
    assert abs(quadratic_weighted_kappa(np.array([[10, 0], [10, 0]]))) <= 1e-15


def test_kappa_three_class_vs_oracle():
    conf = [[2, 1, 0], [0, 2, 0], [0, 1, 2]]
    got = quadratic_weighted_kappa(np.array(conf))
    assert abs(got - kappa_oracle(conf)) <= 1e-12


def test_kappa_random_and_scaling_invariance():
    rng = make_rng(1)
    for _ in range(30):
        c = int(rng.integers(2, 6))
        conf = rng.integers(0, 9, size=(c, c))
        if conf.sum() == 0:
            conf[0, 0] = 1
        k = quadratic_weighted_kappa(conf)
        assert abs(k - kappa_oracle(conf.tolist())) <= 1e-12
        assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12
        assert abs(quadratic_weighted_kappa(conf * 7) - k) <= 1e-12


def test_kappa_empty_rejected():
    with pytest.raises(ContractError):
        quadratic_weighted_kappa(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    assert roc_auc_ovr(scores, np.array([1, 1, 0, 0], bool)) == 1.0


def test_auc_all_ties():
    scores = np.full(6, 0.5)
    labels = np.array([1, 0, 1, 0, 1, 0], bool)
    assert roc_auc_ovr(scores, labels) == 0.5


def test_auc_hand_example():
    got = roc_auc_ovr(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1, 0, 1, 0], bool))
    assert abs(got - 0.75) <= 1e-15


def test_auc_single_class_undefined():
    assert roc_auc_ovr(np.array([0.1, 0.9]), np.array([1, 1], bool)) is None
    assert roc_auc_ovr(np.array([0.1, 0.9]), np.array([0, 0], bool)) is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_average_ranks_equal_rankdata_bitwise(dtype):
    from scipy.stats import rankdata   # the oracle; the package must not import it
    rng = make_rng(7)
    for i in range(300):
        n = int(rng.integers(1, 80))
        scores = (rng.uniform(size=n) if i % 3 == 0
                  else rng.integers(0, int(rng.integers(1, 12)), n) / 7.0).astype(dtype)
        assert _average_ranks(scores).tobytes() == rankdata(scores).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores(bad):
    scores = np.array([0.9, bad, 0.2, 0.1])
    with pytest.raises(ContractError, match="finite"):
        roc_auc_ovr(scores, np.array([1, 1, 0, 0], bool))


def test_auc_random_vs_pair_counting():
    rng = make_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        scores = np.round(rng.uniform(size=n), 2)  # induce ties
        labels = rng.uniform(size=n) < 0.5
        want = auc_oracle(scores.tolist(), labels.tolist())
        got = roc_auc_ovr(scores, labels)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# report assembly


def test_metrics_oracle_predictions():
    labels = np.array([0, 1, 2, 1, 0, 2, 2])
    probs = np.zeros((7, 3))
    probs[np.arange(7), labels] = 1.0
    rep = metrics_from_predictions(labels, labels.copy(), probs, 3)
    assert rep.kappa == 1.0 and rep.accuracy == 1.0
    assert all(a == 1.0 for a in rep.per_class_auc)
    assert rep.confusion.sum(axis=1).tolist() == [2, 2, 3]


def test_metrics_constant_predictor():
    labels = np.array([0] * 12 + [1] * 5 + [2] * 3)
    grades = np.zeros(20, dtype=np.int64)
    probs = np.tile([0.8, 0.1, 0.1], (20, 1))
    rep = metrics_from_predictions(labels, grades, probs, 3)
    assert abs(rep.accuracy - 0.6) <= 1e-15  # majority share
    assert rep.kappa <= 0.0


def test_metrics_missing_class_is_none_without_warning(recwarn):
    """An undefined class AUC is recorded once, as its None entry; no
    process-wide warning is raised."""
    labels = np.array([0, 0, 1, 1])
    grades = np.array([0, 1, 1, 1])
    probs = np.tile([0.5, 0.3, 0.2], (4, 1))
    rep = metrics_from_predictions(labels, grades, probs, 3)
    assert len(recwarn) == 0
    assert rep.per_class_auc[2] is None
    defined = [a for a in rep.per_class_auc if a is not None]
    assert abs(rep.macro_auc - np.mean(defined)) <= 1e-15


def test_metrics_negative_grade_rejected():
    # np.add.at would wrap -1 onto the last column and score a perfect match
    labels = np.array([0, 1, 2, 4])
    grades = np.array([0, 1, 2, -1])
    with pytest.raises(ContractError, match="grades"):
        metrics_from_predictions(labels, grades, np.full((4, 5), 0.2), 5)


def test_metrics_out_of_range_grade_rejected():
    labels = np.array([0, 1, 2, 4])
    probs = np.full((4, 5), 0.2)
    with pytest.raises(ContractError, match="grades"):
        metrics_from_predictions(labels, np.array([0, 1, 2, 5]), probs, 5)
    with pytest.raises(ContractError, match="labels"):
        metrics_from_predictions(np.array([0, 1, 2, 5]), labels, probs, 5)
    with pytest.raises(ContractError):
        metrics_from_predictions(labels, labels[:3], probs, 5)


def test_report_json_shape():
    rep = MetricsReport(0.5, 0.75, 0.8, [0.8, None], np.eye(2, dtype=np.int64), 4)
    d = rep.to_dict()
    parsed = json.loads(json.dumps(d))
    assert set(parsed) == {"kappa", "accuracy", "macro_auc", "per_class_auc",
                           "confusion", "n_samples"}
    assert parsed["per_class_auc"][1] is None


# ---------------------------------------------------------------------------
# training loop


def test_train_lr_zero_freezes_parameters():
    model = micro_model(3)
    before = {n: p.data.copy() for n, p in model.parameters()}
    cfg = TrainConfig(lr=0.0, momentum=0.9, weight_decay=1e-5,
                      batch_size=4, epochs=2, seed=1)
    train(model, tiny_dataset(4), cfg)
    for n, p in model.parameters():
        np.testing.assert_array_equal(p.data, before[n])


def test_train_single_sample_overfit():
    model = micro_model(5)
    data = tiny_dataset(6, n=1)
    cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=0.0,
                      batch_size=1, epochs=200, seed=2, hflip=False)
    _, history = train(model, data, cfg)
    assert history[-1] < 0.05, f"failed to overfit one sample: {history[-1]:.4f}"


def test_train_deterministic_given_seed():
    cfg = TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-5,
                      batch_size=4, epochs=3, seed=7)
    _, h1 = train(micro_model(8), tiny_dataset(9), cfg)
    _, h2 = train(micro_model(8), tiny_dataset(9), cfg)
    assert h1 == h2


def test_train_divergence_aborts():
    model = micro_model(10)
    cfg = TrainConfig(lr=1e9, momentum=0.9, weight_decay=0.0,
                      batch_size=4, epochs=50, seed=3, hflip=False)
    with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
        train(model, tiny_dataset(11), cfg)
    assert len(ad.active_tape()) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_refuses_parameters_left_non_finite():
    """The one step's loss is finite, but its update overflows float32: the
    parameters are checked after the last step, and no warning is printed."""
    with ad.default_dtype_scope(np.float32):
        model = micro_model(10)
        cfg = TrainConfig(lr=1e39, momentum=0.0, weight_decay=0.0,
                          batch_size=8, epochs=1, seed=3, hflip=False)
        with pytest.raises(TrainingDiverged,
                           match=r"holds NaN or inf after the last step \(epoch 0 step 0\)"):
            train(model, tiny_dataset(11), cfg)


def test_train_encoder_overflow_diverges():
    """Non-finite encoder features give a non-finite loss, not a mask with
    no set bit: training stops with TrainingDiverged and an empty tape."""
    model = micro_model(10)
    for w in model.encoder.weights:
        w.data[...] = 1e300
    cfg = TrainConfig(lr=0.01, batch_size=4, epochs=1, seed=3, hflip=False)
    with pytest.raises(TrainingDiverged, match="non-finite loss"), np.errstate(all="ignore"):
        train(model, tiny_dataset(11), cfg)
    assert len(ad.active_tape()) == 0


def _overflow_attention(model) -> None:
    """Set layer 0's q and k so that every attention logit is -inf."""
    mha = model.stack.layers[0].mha
    for lin, bias in ((mha.wq, 1e300), (mha.wk, -1e300)):   # every q·k is -1e600
        lin.w.data[...] = 0.0
        lin.b.data[...] = bias


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_attention_overflow_diverges():
    """Attention rows with every logit -inf give a non-finite loss: training
    stops with TrainingDiverged, no warning and an empty tape."""
    model = micro_model(10)
    _overflow_attention(model)
    cfg = TrainConfig(lr=0.01, batch_size=4, epochs=1, seed=3, hflip=False)
    with pytest.raises(TrainingDiverged, match="non-finite loss nan at epoch 0 step 0"):
        train(model, tiny_dataset(11), cfg)
    assert len(ad.active_tape()) == 0


def test_train_steps_run_one_thread_and_on_epoch_the_callers(blas_threads):
    """Every step runs on one BLAS thread; `on_epoch` and the caller after
    the return see the caller's two."""
    model, steps, epochs = micro_model(3), [], []
    real = model.loss_batch

    def loss_batch(*args):
        steps.append(blas_threads())
        return real(*args)
    model.loss_batch = loss_batch
    cfg = TrainConfig(batch_size=4, epochs=2, seed=1)
    train(model, tiny_dataset(4), cfg, on_epoch=lambda *_: epochs.append(blas_threads()))
    assert (steps, epochs, blas_threads()) == ([1] * 4, [2, 2], 2)


class _Deadline(Exception):
    """What a caller's `on_epoch` raises to end training early."""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ending", ["loss", "parameters", "on_epoch"])
def test_train_gives_the_thread_count_back_when_it_raises(blas_threads, ending):
    """TrainingDiverged from a non-finite loss or from the parameters after
    the last step, or the exception `on_epoch` raises: the caller's two
    threads are back each time."""
    with ad.default_dtype_scope(np.float32 if ending == "parameters" else np.float64):
        model = micro_model(10)
    if ending == "loss":
        _overflow_attention(model)
    cfg = TrainConfig(lr=1e39 if ending == "parameters" else 0.01, momentum=0.0,
                      weight_decay=0.0, batch_size=8, epochs=1, seed=3, hflip=False)

    def on_epoch(*_):
        if ending == "on_epoch":
            raise _Deadline

    with pytest.raises(_Deadline if ending == "on_epoch" else TrainingDiverged):
        train(model, tiny_dataset(11), cfg, on_epoch=on_epoch)
    assert blas_threads() == 2


@pytest.mark.parametrize("strategy", ["crossfit", "feat_max"])
def test_training_in_process_gives_one_checkpoint_at_any_thread_count(blas_threads, strategy):
    """One epoch (one 16-eye step) of the CLI-default float32 model gives the
    same checkpoint tensors under a caller on two BLAS threads and on one: a
    second thread would change the GEMMs' summation order."""
    put = te._openblas("set_num_threads")
    data = ArrayDataset.from_samples(generate_dataset(1, 16))
    cfg = TrainConfig(epochs=1)
    tensors = []
    for count in (2, 1):
        put(count)
        with ad.default_dtype_scope(np.float32):
            model = CrossFiTModel(make_rng(cfg.seed), CrossFiTConfig(strategy=strategy))
        tensors.append(train(model, data, cfg)[0].tensors)
    two, one = tensors
    assert two.keys() == one.keys()
    assert all(np.array_equal(two[name], one[name]) for name in two)


def test_evaluate_populates_report():
    model = micro_model(12)
    data = tiny_dataset(13, n=10)
    rep = evaluate(model, data, batch_size=4)
    assert rep.n_samples == 10
    assert rep.confusion.sum() == 10
    counts = np.bincount(data.grades, minlength=3)
    np.testing.assert_array_equal(rep.confusion.sum(axis=1), counts)
    recomputed = np.trace(rep.confusion) / rep.confusion.sum()
    assert rep.accuracy == recomputed


def test_finite_outputs_counts_the_eyes_with_a_non_finite_output():
    with pytest.raises(NonFiniteOutputError, match="for 1 of 2 eyes"):
        finite_outputs(np.array([[0.0, np.inf], [1.0, 2.0]]))
    assert finite_outputs(np.array([[0.0, 1.0], [1.0, 2.0]])) is None


def test_predict_dataset_rejects_overflowing_outputs():
    model = micro_model(12)
    model.head.w.data[...] = 1e308          # finite, but the logits overflow
    with pytest.raises(NonFiniteOutputError, match="for 6 of 6 eyes"):
        predict_dataset(model, tiny_dataset(13, n=6), batch_size=4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_predict_dataset_types_degenerate_attention():
    """Attention rows with every logit -inf come out NaN, and the outputs'
    finite check reports them like any other blow-up."""
    model = micro_model(12)
    _overflow_attention(model)
    with pytest.raises(NonFiniteOutputError, match="for 8 of 8 eyes") as info:
        predict_dataset(model, tiny_dataset(13), batch_size=4)
    assert info.value.__cause__ is None


def _pixels32(seed):
    """A tiny dataset whose images are float32, as `load_dataset` gives them."""
    data = tiny_dataset(seed)
    data.images1 = data.images1.astype(np.float32)
    data.images2 = data.images2.astype(np.float32)
    return data


def _logits(model, data):
    with ad.no_grad():
        out, _ = model.forward_batch(data.images1, data.images2, data.od1, data.od2)
    return out if isinstance(out, tuple) else (out,)


def _same_predictions(a, b) -> bool:
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("strategy", ["crossfit", "feat_max", "pred_avg"])
def test_float32_model_scores_alike_outside_the_scope(strategy):
    """The dtype belongs to the model: a float32 model built in the scope
    computes in float32 when scored outside any scope, bit for bit as inside."""
    data = _pixels32(22)
    with ad.default_dtype_scope(np.float32):
        model = micro_model(21, strategy=strategy)
        inside = predict_dataset(model, data)
    for images in (data, tiny_dataset(22)):   # float32 and float64 pixels
        assert all(l.dtype == np.float32 for l in _logits(model, images))
    assert _same_predictions(predict_dataset(model, data), inside)


@pytest.mark.parametrize("strategy", ["crossfit", "feat_max", "pred_avg"])
def test_float64_model_scores_alike_inside_a_float32_scope(strategy):
    """A float64 model stays float64 inside a float32 scope: its images are
    not rounded to float32, and it scores as it does outside."""
    data = tiny_dataset(24)
    model = micro_model(23, strategy=strategy)
    outside = predict_dataset(model, data)
    with ad.default_dtype_scope(np.float32):
        assert all(l.dtype == np.float64 for l in _logits(model, data))
        assert _same_predictions(predict_dataset(model, data), outside)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = micro_model(14)
    data = tiny_dataset(15, n=4)
    cfg = TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-5,
                      batch_size=2, epochs=1, seed=4)
    ckpt, _ = train(model, data, cfg)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.step == ckpt.step
    assert loaded.config == json.loads(json.dumps(ckpt.config))
    assert list(loaded.tensors) == list(ckpt.tensors)
    for name in ckpt.tensors:
        assert loaded.tensors[name].tobytes() == ckpt.tensors[name].tobytes(), name
    assert all(name.startswith("param/") for name in loaded.tensors)


def test_checkpoint_with_momentum_tensors_loads(tmp_path):
    """Checkpoints once carried each parameter's momentum as `vel/` tensors;
    they still load, and those tensors are not read."""
    model = micro_model(30)
    ckpt = Checkpoint.from_model(model)
    for name, p in model.parameters():
        ckpt.tensors[f"vel/{name}"] = np.full(p.data.shape, np.float32(7.0))
    path = str(tmp_path / "old.ckpt")
    save_checkpoint(ckpt, path)
    clone = build_model_from_checkpoint(load_checkpoint(path))
    for (name, a), (_, b) in zip(model.parameters(), clone.parameters()):
        np.testing.assert_array_equal(a.data.astype(np.float32), b.data, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_restored_parameters_share_no_memory_with_the_checkpoint(dtype):
    """SGD updates each parameter in place, so a restored model must not
    write through to the checkpoint it was loaded from."""
    with ad.default_dtype_scope(dtype):
        ckpt = Checkpoint.from_model(micro_model(31))
        model = micro_model(32)
    ckpt.restore(model)
    for name, p in model.parameters():
        stored = ckpt.tensors[f"param/{name}"]
        assert p.data.dtype == dtype and not np.shares_memory(p.data, stored), name
        np.testing.assert_array_equal(p.data, stored, err_msg=name)


def test_checkpoint_restore_reproduces_predictions(tmp_path):
    model = micro_model(16)
    data = tiny_dataset(17, n=4)
    ckpt, _ = train(model, data, TrainConfig(lr=0.01, batch_size=2, epochs=1, seed=5))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, path)
    clone = build_model_from_checkpoint(load_checkpoint(path))
    a, _ = model.predict_batch(data.images1, data.images2, data.od1, data.od2)
    b, _ = clone.predict_batch(data.images1, data.images2, data.od1, data.od2)
    # stored weights are float32; both models then run in the default dtype,
    # so grades agree even though the trained f64 state was quantized
    np.testing.assert_array_equal(a, b)


def test_checkpoint_truncation_detected(tmp_path):
    ckpt = Checkpoint.from_model(micro_model(18))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(ckpt, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_corrupt_index_names_tensor(tmp_path):
    ckpt = Checkpoint.from_model(micro_model(19))
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(ckpt, path)
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hlen].decode())
    victim = header["tensors"][2]
    victim["length"] += 4
    new_header = json.dumps(header).encode()
    Path(path).write_bytes(blob[:6] + struct.pack("<I", len(new_header))
                           + new_header + blob[10 + hlen:])
    with pytest.raises(CheckpointError, match=victim["name"]):
        load_checkpoint(path)


def test_checkpoint_tensor_named_twice_rejected(tmp_path):
    """A second index entry under a taken name would replace the first."""
    path = str(tmp_path / "d.ckpt")
    save_checkpoint(Checkpoint.from_model(micro_model(26, strategy="feat_max")), path)
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hlen].decode())
    twin = header["tensors"][1]
    header["tensors"].append(dict(twin))
    new_header = json.dumps(header).encode()
    Path(path).write_bytes(blob[:6] + struct.pack("<I", len(new_header))
                           + new_header + blob[10 + hlen:])
    with pytest.raises(CheckpointError, match=f"names tensor {twin['name']} twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, bad", [
    ("shape", lambda shape: [-shape[0], -shape[1], *shape[2:]]),   # same product
    ("shape", lambda shape: ["4", *shape[1:]]),
    ("offset", lambda off: -4),
], ids=["negative_dims", "string_dim", "negative_offset"])
def test_checkpoint_malformed_index_typed(tmp_path, field, bad):
    path = str(tmp_path / "i.ckpt")
    save_checkpoint(Checkpoint.from_model(micro_model(25)), path)
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hlen].decode())
    victim = header["tensors"][0]
    assert len(victim["shape"]) == 4            # the first conv stage's weight
    victim[field] = bad(victim[field])
    new_header = json.dumps(header).encode()
    Path(path).write_bytes(blob[:6] + struct.pack("<I", len(new_header))
                           + new_header + blob[10 + hlen:])
    with pytest.raises(CheckpointError, match=victim["name"]):
        load_checkpoint(path)


@pytest.mark.parametrize("step", ["x", -1, 2.5, True, None])
def test_checkpoint_step_must_be_a_count(tmp_path, step):
    path = tmp_path / "s.ckpt"
    path.write_bytes(_checkpoint_blob({"config": {}, "payload_bytes": 0, "tensors": [],
                                       "train_state": {"step": step}}, b""))
    with pytest.raises(CheckpointError, match="train_state.step .* is not a count"):
        load_checkpoint(str(path))


def test_checkpoint_corrupt_header_typed(tmp_path):
    path = str(tmp_path / "h.ckpt")
    save_checkpoint(Checkpoint.from_model(micro_model(23)), path)
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hlen].decode())

    def write_header(raw: bytes):
        Path(path).write_bytes(blob[:6] + struct.pack("<I", len(raw)) + raw
                               + blob[10 + hlen:])

    for raw in (b"#" + blob[11:10 + hlen],            # not JSON
                b"\xff" + blob[11:10 + hlen],         # not UTF-8
                json.dumps({k: v for k, v in header.items()
                            if k != "train_state"}).encode(),
                json.dumps(dict(header, tensors=[{"name": "w"}])).encode(),
                b"[]"):
        write_header(raw)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)
    write_header(json.dumps(dict(header, config={"model": {"strategy": "crossfit"}})).encode())
    with pytest.raises(CheckpointError, match="model config"):
        build_model_from_checkpoint(load_checkpoint(path))


@pytest.mark.parametrize("section, key, value", [
    ("", "mask_enabled", "no"), ("", "mask_enabled", 0), ("", "strategy", 3),
    ("cfa", "zero_init_out", 1), ("cfa", "threshold", "0.06"), ("cfa", "heads", 2.0),
    ("encoder", "stride", [2.0, 2]), ("encoder", "input_size", True),
])
def test_checkpoint_config_value_of_wrong_json_type_rejected(section, key, value):
    stored = asdict(micro_model(27).cfg)
    (stored[section] if section else stored)[key] = value
    name = f"{section}.{key}" if section else key
    with pytest.raises(ContractError, match=f"^{name} must be"):
        config_from_dict(CrossFiTConfig, stored)


def test_checkpoint_config_takes_an_integer_where_a_number_or_stages_go():
    cfg = micro_model(28).cfg
    stored = asdict(cfg)
    stored["cfa"]["threshold"] = 0
    stored["encoder"]["stride"] = 2
    got = config_from_dict(CrossFiTConfig, stored)
    assert got.cfa.threshold == 0 and got.encoder.stride == cfg.encoder.stride


def test_checkpoint_config_ignores_unread_keys():
    cfg = micro_model(24).cfg
    stored = dict(asdict(cfg), grid_size=None)   # an older header's field
    assert asdict(config_from_dict(CrossFiTConfig, stored)) == asdict(cfg)


@st.composite
def _valid_model_configs(draw):
    stages = draw(st.integers(1, 3))
    # per stage: an odd kernel with any stride, or an even one tiling patches
    geometry = draw(st.lists(st.one_of(
        st.tuples(st.integers(1, 3), st.sampled_from([1, 3, 5])),
        st.integers(1, 2).map(lambda s: (2 * s, 2 * s))), min_size=stages, max_size=stages))
    stride, kernel = (tuple(v) for v in zip(*geometry))
    if len(set(stride)) == 1 and draw(st.booleans()):
        stride = stride[0]                      # one int for every stage
    if len(set(kernel)) == 1 and draw(st.booleans()):
        kernel = kernel[0]
    heads = draw(st.sampled_from([1, 2, 4, 8]))
    return CrossFiTConfig(
        encoder=EncoderConfig(
            stage_channels=tuple(draw(st.lists(st.integers(1, 8), min_size=stages,
                                               max_size=stages))),
            stride=stride, kernel=kernel,
            input_size=math.prod(s for s, _ in geometry) * draw(st.integers(1, 3))),
        cfa=CfaConfig(layers=draw(st.integers(0, 3)), heads=heads,
                      d_t=math.lcm(heads, 4) * draw(st.integers(1, 3)),
                      mlp_ratio=draw(st.integers(1, 4)),
                      threshold=draw(st.floats(0.0, 1.0)),
                      zero_init_out=draw(st.booleans())),
        strategy=draw(st.sampled_from(STRATEGIES)), pe_mode=draw(st.sampled_from(PE_MODES)),
        mask_enabled=draw(st.booleans()), num_classes=draw(st.integers(2, 6)))


@settings(max_examples=200, deadline=None)
@given(_valid_model_configs())
def test_checkpoint_config_round_trips(cfg):
    stored = asdict(cfg)
    assert config_from_dict(CrossFiTConfig, stored) == cfg
    assert config_from_dict(CrossFiTConfig, json.loads(json.dumps(stored))) == cfg


def test_checkpoint_config_without_zero_init_out_reads_false():
    """Headers written before `cfa.zero_init_out` existed lack it; any other
    missing field is an error."""
    cfa = CfaConfig(layers=1, heads=2, d_t=8, mlp_ratio=2, zero_init_out=True)
    stored = asdict(micro_model(29, cfa=cfa).cfg)
    del stored["cfa"]["zero_init_out"]
    assert config_from_dict(CrossFiTConfig, stored).cfa.zero_init_out is False
    del stored["cfa"]["heads"]
    with pytest.raises(ContractError, match="^cfa.heads is missing"):
        config_from_dict(CrossFiTConfig, stored)


def test_checkpoint_bad_magic_and_version(tmp_path):
    path = str(tmp_path / "x.ckpt")
    Path(path).write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    ckpt = Checkpoint.from_model(micro_model(20))
    good = str(tmp_path / "g.ckpt")
    save_checkpoint(ckpt, good)
    blob = Path(good).read_bytes()
    Path(good).write_bytes(blob[:4] + struct.pack("<H", 9) + blob[6:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(good)


def test_checkpoint_cross_config_no_partial_load(tmp_path):
    ckpt = Checkpoint.from_model(micro_model(21))
    other = micro_model(22, cfa=CfaConfig(layers=1, heads=2, d_t=16,
                                          mlp_ratio=2, threshold=0.06))
    before = {n: p.data.copy() for n, p in other.parameters()}
    with pytest.raises(CheckpointError, match="shape mismatch"):
        ckpt.restore(other)
    for n, p in other.parameters():
        np.testing.assert_array_equal(p.data, before[n])


def _checkpoint_blob(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header).encode()
    return CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(raw)) + raw + payload


_VALID_CKPT = _checkpoint_blob(
    {"config": {"model": {}}, "payload_bytes": 32, "train_state": {"step": 3},
     "tensors": [{"name": "param/a", "shape": [2, 3], "offset": 0, "length": 24},
                 {"name": "param/b", "shape": [2], "offset": 24, "length": 8}]},
    bytes(range(32)))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_EDGE_INTS = st.sampled_from([-4, -1, 0, 2**32, 2**62, 2**64, 2**70])
_INDEX_ENTRY = st.builds(
    lambda name, shape, off: {"name": name, "shape": shape, "offset": off,
                              "length": 4 * math.prod(shape)},
    st.sampled_from(["param/a", "param/b"]), st.lists(st.integers(0, 2), max_size=3),
    st.integers(0, 8))
# a consistent entry with one field swapped for an odd value
_ODD_INDEX_ENTRY = st.builds(
    lambda entry, key, value: dict(entry, **{key: value}), _INDEX_ENTRY,
    st.sampled_from(["name", "shape", "offset", "length"]),
    st.one_of(_EDGE_INTS, st.sampled_from([None, True, 1.5, "4", [], ["a"], {}]), _JSON,
              st.lists(st.one_of(st.integers(-1, 3), _EDGE_INTS), min_size=1, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=24).map(lambda tail: CHECKPOINT_MAGIC + tail),
    st.binary(max_size=64),
    st.builds(lambda cut, flips: bytes(
                  b if i not in flips else flips[i] for i, b in enumerate(_VALID_CKPT[:cut])),
              st.integers(0, len(_VALID_CKPT)),
              st.dictionaries(st.integers(0, len(_VALID_CKPT) - 1), st.integers(0, 255),
                              max_size=3)),
    st.builds(lambda header, payload: _checkpoint_blob(header, payload),
              _JSON, st.binary(max_size=8)),
    st.builds(lambda header, payload, honest: _checkpoint_blob(
                  dict(header, payload_bytes=len(payload)) if honest else header, payload),
              st.fixed_dictionaries({
                  "config": _JSON, "payload_bytes": st.one_of(st.integers(0, 64), _JSON),
                  "train_state": st.one_of(st.fixed_dictionaries({"step": _JSON}), _JSON),
                  "tensors": st.one_of(st.lists(st.one_of(_INDEX_ENTRY, _ODD_INDEX_ENTRY),
                                                max_size=3), _JSON)}),
              st.binary(min_size=40, max_size=64), st.booleans())))
@example(CHECKPOINT_MAGIC)
@example(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, 100_000) + b"[" * 100_000)
@example(_checkpoint_blob(   # an unhashable tensor name
    {"config": {}, "payload_bytes": 8, "train_state": {"step": 0},
     "tensors": [{"name": ["a"], "shape": [2], "offset": 0, "length": 8}]}, bytes(8)))
@example(_checkpoint_blob(   # the extents' int64 product wraps around to 0
    {"config": {}, "payload_bytes": 0, "train_state": {"step": 0},
     "tensors": [{"name": "a", "shape": [2**32, 2**32], "offset": 0, "length": 0}]}, b""))
@example(_checkpoint_blob(   # zero elements, but extents too large for numpy
    {"config": {}, "payload_bytes": 0, "train_state": {"step": 0},
     "tensors": [{"name": "a", "shape": [0, 2**62], "offset": 0, "length": 0}]}, b""))
@example(_checkpoint_blob(   # a NaN and an infinity where weights go
    {"config": {}, "payload_bytes": 8, "train_state": {"step": 0},
     "tensors": [{"name": "param/a", "shape": [2], "offset": 0, "length": 8}]},
    struct.pack("<2f", math.nan, math.inf)))
def test_checkpoint_fuzz_raises_only_checkpoint_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("ckfuzz") / "f.ckpt"
    path.write_bytes(blob)
    try:
        ckpt = load_checkpoint(str(path))
    except CheckpointError:
        return
    assert type(ckpt.step) is int and ckpt.step >= 0
    for name, arr in ckpt.tensors.items():
        assert isinstance(name, str) and arr.dtype == np.float32
        assert np.isfinite(arr).all()
