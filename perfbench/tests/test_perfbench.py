"""Tests of the benchmark itself: tiny runs, and checks fed wrong outputs."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from crossfit import autodiff as ad  # noqa: E402
from crossfit import synthdata as sd  # noqa: E402
from crossfit import train_eval as te  # noqa: E402
from crossfit.attention import CfaConfig  # noqa: E402
from crossfit.encoder import EncoderConfig  # noqa: E402
from crossfit.model import CrossFiTConfig, CrossFiTModel  # noqa: E402
from perfbench import bench, checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path / "results")
    return tmp_path


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_run_has_no_failures(name, scratch_dirs):
    result = bench.run(name, seed=3, seconds=1, trace=False, eyes=20, setup_reps=1)
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] >= 6
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert (scratch_dirs / "results" / f"{name}-seed3-trace0.json").exists()


def test_tiny_traced_run_reports_every_layer(scratch_dirs):
    result = bench.run("crossfit_default", seed=3, seconds=1, trace=True, eyes=20,
                       setup_reps=1)
    assert result["failed"] == 0 and result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["geometry.ape_calls_per_step"]["value"] == 16   # one per eye
    assert metrics["autodiff.tape_nodes_per_step"]["value"] == 122
    assert 0 < metrics["model.fwd_self_ms_per_step"]["value"] < \
        metrics["model.fwd_ms_per_step"]["value"]
    # the spans come off the program again when the run ends
    assert ad.conv2d.__name__ == "conv2d" and sd.load_dataset.__name__ == "load_dataset"


# ---------------------------------------------------------------------------
# every check counts a failure when fed a wrong output


def _tiny_model(strategy="crossfit"):
    cfg = CrossFiTConfig(
        encoder=EncoderConfig(stage_channels=(6,), stride=4, kernel=3, input_size=8),
        cfa=CfaConfig(layers=1, heads=2, d_t=8, mlp_ratio=2),
        strategy=strategy, num_classes=3)
    return CrossFiTModel(ad.make_rng(1), cfg)


def _tiny_batch(n=3):
    rng = ad.make_rng(4)
    return (rng.random((n, 8, 8, 3)), rng.random((n, 8, 8, 3)),
            rng.uniform(0.2, 0.8, (n, 2)), rng.uniform(0.2, 0.8, (n, 2)),
            np.arange(n) % 3)


def _counted(check, *args):
    ledger = checks.Ledger()
    ledger.run("op", lambda: check(*args))
    return ledger.failed


def test_ledger_counts_raised_and_wrong_apart():
    ledger = checks.Ledger()
    ledger.run("fine", lambda: (True, ""))
    ledger.run("wrong", lambda: (False, "bad output"))
    ledger.run("raises", lambda: 1 / 0)
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (3, 2, 1)
    assert not ledger.correct


def test_kappa_off_by_a_hundredth_fails():
    rng = ad.make_rng(0)
    labels = np.arange(40) % 5
    probs = rng.dirichlet(np.ones(5), size=40)
    grades = probs.argmax(axis=1)
    report = te.metrics_from_predictions(labels, grades, probs, 5)
    assert _counted(checks.metrics_match, report, labels, grades, probs, 5) == 0
    wrong = replace(report, kappa=report.kappa + 0.01)
    assert _counted(checks.metrics_match, wrong, labels, grades, probs, 5) == 1
    wrong_auc = replace(report, per_class_auc=[a + 1e-9 for a in report.per_class_auc])
    assert _counted(checks.metrics_match, wrong_auc, labels, grades, probs, 5) == 1


def test_weight_on_a_masked_key_fails():
    imgs1, imgs2, od1, od2, _ = _tiny_batch()
    with ad.no_grad():
        _, extras = _tiny_model().forward_batch(imgs1, imgs2, od1, od2, record=True)
    mask = np.concatenate(extras["masks"], axis=1)
    layers = [np.array(a) for a in extras["attention"].layers]
    assert (mask == 0).any()
    assert _counted(checks.attention_masked, layers, mask) == 0
    b, key = np.argwhere(mask == 0)[0]
    layers[0][b, 0, 0, key] = 1e-30
    assert _counted(checks.attention_masked, layers, mask) == 1


def test_perturbed_gradient_fails(monkeypatch):
    model = _tiny_model()
    batch = _tiny_batch(2)
    assert _counted(checks.gradient_check, model, batch, 0) == 0

    real_backward = ad.backward

    def perturbed(loss):
        real_backward(loss)
        for _, p in model.parameters():
            if p.grad is not None:
                p.grad *= 1.01

    monkeypatch.setattr(ad, "backward", perturbed)
    assert _counted(checks.gradient_check, model, batch, 0) == 1


def test_gradient_check_holds_kinks_but_runs_the_program():
    # the probes replay the taped pass's relu signs, so the real ops come back
    model = _tiny_model("feat_max")
    relu, maximum = ad.relu, ad.maximum
    assert _counted(checks.gradient_check, model, _tiny_batch(2), 1) == 0
    assert (ad.relu, ad.maximum) == (relu, maximum)


def test_one_changed_pixel_after_load_fails(tmp_path):
    samples = sd.generate_dataset(5, 2)
    sd.write_dataset(samples, str(tmp_path))
    loaded = sd.load_dataset(str(tmp_path))
    assert _counted(checks.dataset_roundtrip, samples, loaded) == 0
    loaded.images2[1, 10, 20, 0] += 1.0 / 255.0
    assert _counted(checks.dataset_roundtrip, samples, loaded) == 1


def test_changed_prediction_after_reload_fails():
    grades = np.array([0, 2, 1])
    probs = np.eye(3)[grades] * 0.5 + 0.5 / 3
    assert _counted(checks.predictions_equal, (grades, probs), (grades, probs.copy())) == 0
    moved = probs.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], 1.0)
    assert _counted(checks.predictions_equal, (grades, probs), (grades, moved)) == 1
