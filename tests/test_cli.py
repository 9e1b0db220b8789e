"""End-to-end command tests: every subcommand through main(). `compare` runs
its cells in spawned worker processes; one test runs the command line in a
child process pinned to one CPU."""

import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossfit import autodiff as ad
from crossfit import synthdata as sd
from crossfit.attention import export_attention_record
from crossfit import cli
from crossfit import train_eval as te
from crossfit.cli import _DEFAULTS, UsageError, _build_configs, _merged_config, main
from crossfit.model import CrossFiTConfig, CrossFiTModel
from crossfit.train_eval import TrainConfig
from crossfit.train_eval import build_model_from_checkpoint, load_checkpoint, predict_dataset


def run_cli(*argv):
    return main(list(argv))


def _rewrite_header(path, out, edit) -> None:
    """Copy checkpoint `path` to `out` with its JSON header changed by `edit`."""
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10:10 + hlen].decode())
    edit(header)
    raw = json.dumps(header).encode()
    out.write_bytes(blob[:6] + struct.pack("<I", len(raw)) + raw + blob[10 + hlen:])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ds") / "eyes")
    assert run_cli("gen-data", "--out", path, "--n", "24", "--seed", "5") == 0
    return path


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    """Micro model + two epochs: seconds, not minutes."""
    cfg = {
        "encoder.stage_channels": [24],
        "encoder.stride": 16,
        "encoder.kernel": 15,
        "cfa.layers": 2,
        "cfa.heads": 2,
        "cfa.d_t": 16,
        "cfa.mlp_ratio": 2,
        "train.epochs": 2,
        "train.batch_size": 8,
    }
    path = str(tmp_path_factory.mktemp("cfg") / "tiny.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture(scope="module")
def two_eyes(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ds2") / "eyes")
    assert run_cli("gen-data", "--out", path, "--n", "2", "--seed", "5") == 0
    return path


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, data_dir, tiny_config):
    out = str(tmp_path_factory.mktemp("ck") / "model.bin")
    code = run_cli("train", "--data", data_dir, "--config", tiny_config,
                   "--out", out, "--set", "train.seed=1")
    assert code == 0
    return out


class TestGenData:
    def test_summary_counts(self, data_dir, capsys):
        assert run_cli("gen-data", "--out", data_dir, "--n", "24",
                       "--seed", "5", "--force") == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["total"] == 24
        assert sum(summary["per_grade"]) == 24
        assert 0 <= summary["split_evidence"] <= 24

    def test_n_zero_is_usage_error(self, tmp_path):
        assert run_cli("gen-data", "--out", str(tmp_path / "x"), "--n", "0") == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("gen-data", "--out", str(out), "--n", "2", "--seed", "-1") == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--split-evidence-rate", "nan"),
                                             ("--split-evidence-rate", "2"),
                                             ("--artifact-rate", "-1")])
    def test_rate_outside_unit_interval_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run_cli("gen-data", "--out", str(out), "--n", "2", flag, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-8", str(sd.MIN_SIZE - 1)])
    def test_size_below_minimum_exits_2(self, tmp_path, capsys, size):
        out = tmp_path / "x"
        assert run_cli("gen-data", "--out", str(out), "--n", "2", "--size", size) == 2
        err = capsys.readouterr().err
        assert err == f"error: --size {size} below {sd.MIN_SIZE}, the smallest " \
                      "field the generator can place lesions in\n"
        assert not out.exists()

    def test_refuses_nonempty_dir(self, data_dir):
        assert run_cli("gen-data", "--out", data_dir, "--n", "4") == 2

    def test_force_replaces(self, data_dir):
        assert run_cli("gen-data", "--out", data_dir, "--n", "24",
                       "--seed", "5", "--force") == 0

    def test_force_on_a_symlink_exits_2(self, tmp_path, capsys):
        target = tmp_path / "eyes"
        target.mkdir()
        (target / "kept.txt").write_text("x")
        link = tmp_path / "link"
        link.symlink_to(target)
        assert run_cli("gen-data", "--out", str(link), "--n", "2", "--force") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {link}: cannot replace it: ")
        assert err.count("\n") == 1
        assert os.listdir(target) == ["kept.txt"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli("gen-data", "--out", a, "--n", "6", "--seed", "9")
        run_cli("gen-data", "--out", b, "--n", "6", "--seed", "9")
        for name in sorted(os.listdir(os.path.join(a, "images"))):
            pa = os.path.join(a, "images", name)
            pb = os.path.join(b, "images", name)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), name


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained_ckpt):
        assert os.path.exists(trained_ckpt)
        with open(trained_ckpt + ".log.json", encoding="utf-8") as fh:
            log = json.load(fh)
        assert len(log["epochs"]) == 2
        assert all(np.isfinite(e["loss"]) for e in log["epochs"])

    def test_checkpoint_header_records_the_split(self, trained_ckpt):
        """`eval --subset` splits by config.data.train_frac; loading ignores it."""
        blob = Path(trained_ckpt).read_bytes()
        (hlen,) = struct.unpack("<I", blob[6:10])
        header = json.loads(blob[10:10 + hlen].decode())
        assert header["config"]["data"] == {"train_frac": _DEFAULTS["data.train_frac"]}
        assert header["train_state"] == {"step": load_checkpoint(trained_ckpt).step}

    def test_epoch_lines_are_json(self, data_dir, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "m.bin")
        assert run_cli("train", "--data", data_dir, "--config", tiny_config,
                       "--out", out, "--set", "train.seed=2") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        epochs = [json.loads(l) for l in lines if '"epoch"' in l]
        assert [e["epoch"] for e in epochs] == [0, 1]

    def test_threshold_out_of_range(self, data_dir, tiny_config, tmp_path):
        assert run_cli("train", "--data", data_dir, "--config", tiny_config,
                       "--out", str(tmp_path / "m.bin"), "--set", "cfa.threshold=1.5") == 2

    def test_inconsistent_width_heads(self, data_dir, tmp_path):
        cfg_path = str(tmp_path / "bad.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"cfa.d_t": 20, "cfa.heads": 3}, fh)
        assert run_cli("train", "--data", data_dir, "--config", cfg_path,
                       "--out", str(tmp_path / "m.bin")) == 2

    @pytest.mark.parametrize("key, value", [("train.lr", math.nan),
                                            ("train.momentum", math.inf)])
    def test_non_finite_optimizer_value_exits_2(self, data_dir, tmp_path, capsys,
                                                key, value):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({key: value}))     # NaN / Infinity literals
        assert run_cli("train", "--data", data_dir, "--config", str(cfg_path),
                       "--out", str(tmp_path / "m.bin")) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_unknown_config_key(self, data_dir, tmp_path):
        cfg_path = str(tmp_path / "bad.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"cfa.layer_count": 3}, fh)
        assert run_cli("train", "--data", data_dir, "--config", cfg_path,
                       "--out", str(tmp_path / "m.bin")) == 2

    @pytest.mark.parametrize("key, value", [
        ("data.train_frac", "0.8"),
        ("data.train_frac", None),
        ("cfa.layers", 1.5),
        ("train.epochs", 1.5),
        ("train.batch_size", 2.5),
        ("encoder.input_size", 64.0),
        ("model.num_classes", 5.0),
        ("cfa.heads", True),
        ("model.mask", "yes"),
        ("train.hflip", "no"),
        ("model.strategy", 1),
        ("encoder.stage_channels", 192),
        ("encoder.stride", [16.0]),
        ("encoder.kernel", "15"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, data_dir, tmp_path, capsys,
                                                 key, value):
        cfg_path = str(tmp_path / "bad.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({key: value}, fh)
        assert run_cli("train", "--data", data_dir, "--config", cfg_path,
                       "--out", str(tmp_path / "m.bin")) == 2
        assert f"config key {key!r} must be" in capsys.readouterr().err

    def test_config_types_that_are_accepted(self, tmp_path):
        cfg_path = str(tmp_path / "ok.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"encoder.stride": [16], "encoder.kernel": 15, "train.lr": 1,
                       "cfa.threshold": 0, "model.mask": False}, fh)
        cfg = _merged_config(argparse.Namespace(config=cfg_path))
        model_cfg, train_cfg, _ = _build_configs(cfg)
        assert model_cfg.encoder.stride == (16,) and model_cfg.cfa.threshold == 0
        assert train_cfg.lr == 1 and model_cfg.mask_enabled is False

    @pytest.mark.parametrize("case, message", [
        ("parent_path", "leaves the data directory"),
        ("absolute_path", "leaves the data directory"),
        ("duplicate_id", "duplicate eye_id"),
        ("mixed_sizes", "expected 64x64"),
        ("string_split_evidence", "eye 1: split_evidence='false' is not a boolean"),
    ])
    def test_malformed_dataset_exits_2(self, tiny_config, tmp_path, capsys, case, message):
        path = str(tmp_path / "eyes")
        assert run_cli("gen-data", "--out", path, "--n", "3", "--seed", "5") == 0
        mpath = os.path.join(path, "manifest.jsonl")
        with open(mpath, encoding="utf-8") as fh:
            recs = [json.loads(line) for line in fh]
        stray = str(tmp_path / "stray.ppm")
        sd.write_ppm(stray, np.zeros((64, 64, 3), np.uint8))
        if case == "parent_path":
            recs[1]["field1_path"] = "../stray.ppm"
        elif case == "absolute_path":
            recs[1]["field1_path"] = stray
        elif case == "duplicate_id":
            recs[2]["eye_id"] = recs[0]["eye_id"]
        elif case == "string_split_evidence":
            recs[1]["split_evidence"] = "false"
        else:
            sd.write_ppm(os.path.join(path, recs[2]["field2_path"]),
                         np.zeros((32, 32, 3), np.uint8))
        with open(mpath, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in recs)
        assert run_cli("train", "--data", path, "--config", tiny_config,
                       "--out", str(tmp_path / "m.bin")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_square_images_exit_2(self, trained_ckpt, tiny_config, tmp_path, capsys,
                                      command):
        """Fields 64 high and 48 wide match the encoder's size on one extent
        only: refused as W x H, not by a shape error inside the encoder."""
        path = str(tmp_path / "eyes")
        assert run_cli("gen-data", "--out", path, "--n", "3", "--seed", "5") == 0
        for name in os.listdir(os.path.join(path, "images")):
            sd.write_ppm(os.path.join(path, "images", name), np.zeros((64, 48, 3), np.uint8))
        if command == "train":
            argv = ["--config", tiny_config, "--out", str(tmp_path / "m.bin")]
        else:
            argv = ["--ckpt", trained_ckpt, "--report", str(tmp_path / "r.json")]
        assert run_cli(command, "--data", path, *argv) == 2
        assert capsys.readouterr().err == ("error: dataset images are 48x64 but the "
                                           "encoder expects 64x64\n")

    def test_split_without_train_eyes_exits_2(self, two_eyes, tmp_path, capsys):
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"data.train_frac": 0.1}, fh)
        assert run_cli("train", "--data", two_eyes, "--config", cfg_path,
                       "--out", str(tmp_path / "m.bin")) == 2
        assert "0 train and 2 test" in capsys.readouterr().err

    def test_split_without_test_eyes_exits_2(self, two_eyes, tmp_path, capsys):
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"data.train_frac": 0.9}, fh)
        assert run_cli("train", "--data", two_eyes, "--config", cfg_path,
                       "--out", str(tmp_path / "m.bin")) == 2
        assert "2 train and 0 test" in capsys.readouterr().err

    def test_flag_overrides_config_file(self, data_dir, tmp_path, capsys):
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"train.epochs": 5, "encoder.stage_channels": [8],
                       "encoder.stride": 16, "encoder.kernel": 15,
                       "cfa.layers": 1, "cfa.heads": 2, "cfa.d_t": 8,
                       "cfa.mlp_ratio": 1}, fh)
        out = str(tmp_path / "m.bin")
        assert run_cli("train", "--data", data_dir, "--config", cfg_path,
                       "--out", out, "--set", "train.epochs=1") == 0
        with open(out + ".log.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["epochs"]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_prints_one_line(self, data_dir, tmp_path, capsys):
        """numpy's overflow warnings stay silent; the divergence is the message."""
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"train.lr": 1e9, "train.epochs": 2}, fh)
        out = tmp_path / "m.bin"
        assert run_cli("train", "--data", data_dir, "--config", cfg_path,
                       "--set", "model.strategy=feat_max", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("training diverged: ") and err.count("\n") == 1
        assert not out.exists()

    def test_identical_seeds_identical_loss_curves(self, data_dir, tiny_config, tmp_path):
        logs = []
        for tag in ("p", "q"):
            out = str(tmp_path / f"{tag}.bin")
            run_cli("train", "--data", data_dir, "--config", tiny_config,
                    "--out", out, "--set", "train.seed=7")
            with open(out + ".log.json", encoding="utf-8") as fh:
                logs.append([e["loss"] for e in json.load(fh)["epochs"]])
        assert logs[0] == logs[1]


class TestEval:
    def test_report_fields(self, trained_ckpt, data_dir, tmp_path):
        report = str(tmp_path / "r.json")
        assert run_cli("eval", "--data", data_dir, "--ckpt", trained_ckpt,
                       "--report", report) == 0
        with open(report, encoding="utf-8") as fh:
            rep = json.load(fh)
        for key in ("kappa", "accuracy", "macro_auc", "per_class_auc",
                    "confusion", "n_samples", "split_acc"):
            assert key in rep
        assert rep["n_samples"] == 24

    def test_split_acc_is_the_accuracy_on_split_evidence_eyes(self, trained_ckpt, data_dir,
                                                             tmp_path):
        report = tmp_path / "r.json"
        assert run_cli("eval", "--data", data_dir, "--ckpt", trained_ckpt,
                       "--report", str(report)) == 0
        data = sd.load_dataset(data_dir)
        with ad.default_dtype_scope(np.float32):
            model = build_model_from_checkpoint(load_checkpoint(trained_ckpt))
            grades, _ = predict_dataset(model, data)
        split = data.split_evidence
        assert split.any()
        expected = float((grades[split] == data.grades[split]).mean())
        assert json.loads(report.read_text())["split_acc"] == pytest.approx(expected, abs=1e-6)

    def test_undefined_auc_is_one_warning_line_each(self, trained_ckpt, data_dir, tmp_path,
                                                   capsys, recwarn):
        """The 5-eye test split leaves class AUCs undefined: each is one
        `warning:` line on stderr, and no Python warning escapes."""
        assert run_cli("eval", "--data", data_dir, "--ckpt", trained_ckpt, "--subset", "test",
                       "--report", str(tmp_path / "r.json")) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines and len(set(lines)) == len(lines)
        assert all(re.fullmatch(r"warning: class \d absent or universal in eval split; its "
                                r"AUC is undefined and excluded from the macro mean", l)
                   for l in lines)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_confusion_consistent_with_accuracy(self, trained_ckpt, data_dir, tmp_path):
        report = str(tmp_path / "r.json")
        run_cli("eval", "--data", data_dir, "--ckpt", trained_ckpt,
                "--report", report)
        with open(report, encoding="utf-8") as fh:
            rep = json.load(fh)
        conf = np.array(rep["confusion"])
        assert conf.sum() == rep["n_samples"]
        agree = np.trace(conf) / conf.sum()
        assert abs(agree - rep["accuracy"]) < 5e-6

    def test_missing_checkpoint_exits_2(self, data_dir, tmp_path):
        assert run_cli("eval", "--data", data_dir, "--ckpt",
                       str(tmp_path / "absent.bin"),
                       "--report", str(tmp_path / "r.json")) == 2

    def test_corrupt_header_exits_2(self, trained_ckpt, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        blob = bytearray(Path(trained_ckpt).read_bytes())
        blob[10] = ord("#")                  # first byte of the JSON header
        bad.write_bytes(bytes(blob))
        assert run_cli("eval", "--data", data_dir, "--ckpt", str(bad),
                       "--report", str(tmp_path / "r.json")) == 2
        assert "corrupt header" in capsys.readouterr().err

    def test_negative_tensor_dims_exit_2(self, trained_ckpt, data_dir, tmp_path, capsys):
        def negate(header):
            shape = header["tensors"][0]["shape"]
            header["tensors"][0]["shape"] = [-shape[0], -shape[1], *shape[2:]]
        bad = tmp_path / "neg.bin"
        _rewrite_header(trained_ckpt, bad, negate)
        assert run_cli("eval", "--data", data_dir, "--ckpt", str(bad),
                       "--report", str(tmp_path / "r.json")) == 2
        assert "corrupt index entry" in capsys.readouterr().err

    def test_string_grade_exits_2(self, trained_ckpt, tmp_path, capsys):
        path = str(tmp_path / "eyes")
        assert run_cli("gen-data", "--out", path, "--n", "3", "--seed", "5") == 0
        mpath = os.path.join(path, "manifest.jsonl")
        with open(mpath, encoding="utf-8") as fh:
            recs = [json.loads(line) for line in fh]
        recs[1]["grade"] = str(recs[1]["grade"])
        with open(mpath, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in recs)
        assert run_cli("eval", "--data", path, "--ckpt", trained_ckpt,
                       "--report", str(tmp_path / "r.json")) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("num_classes", 5.5), ("num_classes", 5.0), ("cfa.layers", 1.5),
        ("encoder.stage_channels", [24.0]), ("mask_enabled", "no"),
    ])
    def test_mistyped_model_config_exits_2(self, trained_ckpt, data_dir, tmp_path,
                                           capsys, key, value):
        def mistype(header):
            section, _, name = key.rpartition(".")
            target = header["config"]["model"]
            (target[section] if section else target)[name] = value
        bad = tmp_path / "typed.bin"
        _rewrite_header(trained_ckpt, bad, mistype)
        assert run_cli("eval", "--data", data_dir, "--ckpt", str(bad),
                       "--report", str(tmp_path / "r.json")) == 2
        assert "no valid model config" in capsys.readouterr().err

    def test_learnable_pe_checkpoint_exits_2(self, trained_ckpt, data_dir, tmp_path, capsys):
        bad = tmp_path / "learnable.bin"
        _rewrite_header(trained_ckpt, bad,
                        lambda header: header["config"]["model"].update(pe_mode="learnable"))
        assert run_cli("eval", "--data", data_dir, "--ckpt", str(bad),
                       "--report", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint holds no valid model config: unknown pe mode 'learnable'; "
            "one of ('aligned', 'regular', 'none')\n")

    @staticmethod
    def _fill_head(ckpt: str, value: float, out, name: str = "param/head.w") -> None:
        """Copy `ckpt` to `out` with every entry of tensor `name` set to `value`."""
        blob = bytearray(Path(ckpt).read_bytes())
        (hlen,) = struct.unpack("<I", blob[6:10])
        header = json.loads(blob[10:10 + hlen].decode())
        (entry,) = [e for e in header["tensors"] if e["name"] == name]
        start = 10 + hlen + entry["offset"]
        blob[start:start + entry["length"]] = np.full(entry["length"] // 4, value,
                                                      dtype="<f4").tobytes()
        out.write_bytes(bytes(blob))

    def test_non_finite_weights_exit_2(self, trained_ckpt, data_dir, tmp_path, capsys):
        bad = tmp_path / "nan.bin"
        self._fill_head(trained_ckpt, np.nan, bad)
        report = tmp_path / "r.json"
        assert run_cli("eval", "--data", data_dir, "--ckpt", str(bad),
                       "--report", str(report)) == 2
        assert "param/head.w holds NaN or infinite" in capsys.readouterr().err
        assert not report.exists()

    def test_weights_overflowing_float32_exit_2(self, trained_ckpt, data_dir, tmp_path,
                                               capsys):
        """Finite weights pass `load_checkpoint`, but 3e38 overflows the logits."""
        bad = tmp_path / "huge.bin"
        self._fill_head(trained_ckpt, 3e38, bad)
        report = tmp_path / "r.json"
        assert run_cli("eval", "--data", data_dir, "--ckpt", str(bad),
                       "--report", str(report)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model outputs are non-finite") and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inspect_weights_overflowing_float32_exit_2(self, trained_ckpt, data_dir,
                                                        tmp_path, capsys):
        """`inspect` checks its logits as `eval` does: no NaN argmax, no warning."""
        bad = tmp_path / "huge.bin"
        self._fill_head(trained_ckpt, 3e38, bad)
        out = tmp_path / "probe"
        assert run_cli("inspect", "--ckpt", str(bad), "--data", data_dir,
                       "--eye", "0", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("error: model outputs are non-finite")
                and captured.err.count("\n") == 1)
        assert not out.exists()

    @staticmethod
    def _non_finite_exit_2(command, ckpt, data_dir, tmp_path, capsys) -> None:
        """`command` on `ckpt` exits 2 with one non-finite-outputs line and
        writes neither its report nor its probe directory."""
        out = tmp_path / "out"
        args = (["eval", "--report", str(out)] if command == "eval"
                else ["inspect", "--eye", "0", "--out", str(out)])
        assert run_cli(*args, "--data", data_dir, "--ckpt", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model outputs are non-finite") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_encoder_overflowing_float32_exit_2(self, trained_ckpt, data_dir, tmp_path,
                                               capsys, command):
        """Encoder features that overflow leave the mask nothing finite to
        threshold; the non-finite outputs, not the mask, are reported."""
        bad = tmp_path / "huge_encoder.bin"
        self._fill_head(trained_ckpt, 3e38, bad, name="param/enc.stage0.w")
        self._non_finite_exit_2(command, bad, data_dir, tmp_path, capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_attention_overflowing_float32_exit_2(self, trained_ckpt, data_dir, tmp_path,
                                                 capsys, command):
        """q and k biases of ±3e38 make every attention logit of layer 0
        -inf; the NaN rows reach the outputs' finite check."""
        bad = tmp_path / "huge_attention.bin"
        self._fill_head(trained_ckpt, 3e38, bad, name="param/cfa.layer0.mha.q.b")
        self._fill_head(bad, -3e38, bad, name="param/cfa.layer0.mha.k.b")
        self._non_finite_exit_2(command, bad, data_dir, tmp_path, capsys)

    @staticmethod
    def _eval_with_frac(ckpt, data_dir, tmp_path, subset, edit) -> int:
        """`eval --subset` of a copy of `ckpt` whose header `edit` changed."""
        changed = tmp_path / "frac.bin"
        _rewrite_header(ckpt, changed, edit)
        return run_cli("eval", "--data", data_dir, "--ckpt", str(changed),
                       "--subset", subset, "--report", str(tmp_path / "r.json"))

    @pytest.mark.parametrize("subset, frac, message", [
        ("test", 0.99, "24 train and 0 test"),
        ("train", 0.01, "0 train and 24 test"),
    ])
    def test_recorded_split_without_eyes_exits_2(self, trained_ckpt, data_dir, tmp_path,
                                                 capsys, subset, frac, message):
        def record(header):
            header["config"]["data"]["train_frac"] = frac
        assert self._eval_with_frac(trained_ckpt, data_dir, tmp_path, subset, record) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1.0, 0.0, 1, 0, -0.5, math.nan, True, "0.8", [0.8]],
                             ids=["one", "zero", "int-one", "int-zero", "negative", "nan",
                                  "true", "string", "list"])
    def test_mistyped_train_frac_exits_2(self, trained_ckpt, data_dir, tmp_path, capsys,
                                         value):
        def mistype(header):
            header["config"]["data"]["train_frac"] = value
        assert self._eval_with_frac(trained_ckpt, data_dir, tmp_path, "test", mistype) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1
        assert f"config.data.train_frac {json.dumps(value)} is not a number in (0, 1)" in err

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].pop("data"),
        lambda h: h["config"]["data"].pop("train_frac"),
        lambda h: h["config"]["data"].update(train_frac=None),
        lambda h: h["config"].update(data=0.8),
    ], ids=["no-data-section", "no-key", "null", "data-not-an-object"])
    @pytest.mark.parametrize("subset", ["train", "test"])
    def test_header_without_train_frac_refuses_a_subset(self, trained_ckpt, data_dir,
                                                        tmp_path, capsys, edit, subset):
        """As every checkpoint written before `train` recorded the fraction."""
        assert self._eval_with_frac(trained_ckpt, data_dir, tmp_path, subset, edit) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1
        assert "records no config.data.train_frac" in err

    def test_header_without_train_frac_scores_all(self, trained_ckpt, data_dir, tmp_path):
        def drop(header):
            header["config"].pop("data")
        assert self._eval_with_frac(trained_ckpt, data_dir, tmp_path, "all", drop) == 0
        assert json.loads((tmp_path / "r.json").read_text())["n_samples"] == 24

    def test_test_subset_holds_no_training_eye(self, tiny_config, tmp_path):
        """At data.train_frac 0.9, 54 of 60 eyes train and `eval --subset test`
        scores the other 6, not the 12 eyes a fixed 0.8 split would give."""
        data, ckpt = str(tmp_path / "eyes"), str(tmp_path / "m.bin")
        assert run_cli("gen-data", "--out", data, "--n", "60", "--seed", "11") == 0
        assert run_cli("train", "--data", data, "--config", tiny_config, "--out", ckpt,
                       "--set", "data.train_frac=0.9", "--set", "train.epochs=1") == 0
        for subset, n in (("train", 54), ("test", 6)):
            report = tmp_path / f"{subset}.json"
            assert run_cli("eval", "--data", data, "--ckpt", ckpt, "--subset", subset,
                           "--report", str(report)) == 0
            assert json.loads(report.read_text())["n_samples"] == n

    def test_subset_split(self, trained_ckpt, data_dir, tmp_path):
        rep_tr = str(tmp_path / "tr.json")
        rep_te = str(tmp_path / "te.json")
        run_cli("eval", "--data", data_dir, "--ckpt", trained_ckpt,
                "--report", rep_tr, "--subset", "train")
        run_cli("eval", "--data", data_dir, "--ckpt", trained_ckpt,
                "--report", rep_te, "--subset", "test")
        with open(rep_tr, encoding="utf-8") as fh:
            n_tr = json.load(fh)["n_samples"]
        with open(rep_te, encoding="utf-8") as fh:
            n_te = json.load(fh)["n_samples"]
        assert n_tr == 19 and n_te == 5


class TestCompare:
    def test_table_rows_and_report(self, data_dir, tiny_config, tmp_path, capsys):
        report = str(tmp_path / "cmp.json")
        code = run_cli("compare", "--data", data_dir, "--config", tiny_config,
                       "--strategies", "feat_max,single_field_1",
                       "--seeds", "1,2", "--report", report)
        assert code == 0
        with open(report, encoding="utf-8") as fh:
            table = json.load(fh)
        assert [r["strategy"] for r in table["rows"]] == ["feat_max", "single_field_1"]
        assert len(table["cells"]) == 4
        assert table["workers"] == min(4, cli._usable_cpus())
        text = capsys.readouterr().out
        assert "feat_max" in text and "single_field_1" in text

    def test_unknown_strategy_lists_valid_names(self, data_dir, tmp_path, capsys):
        code = run_cli("compare", "--data", data_dir, "--strategies",
                       "crossfit,bogus", "--seeds", "1",
                       "--report", str(tmp_path / "x.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "feat_max" in err and "crossfit" in err

    def test_split_without_test_eyes_exits_2(self, two_eyes, tmp_path, capsys):
        assert run_cli("compare", "--data", two_eyes, "--strategies", "feat_max",
                       "--seeds", "1", "--report", str(tmp_path / "x.json")) == 2
        assert "2 train and 0 test" in capsys.readouterr().err

    def test_bad_seeds(self, data_dir, tmp_path):
        assert run_cli("compare", "--data", data_dir, "--strategies", "feat_max",
                       "--seeds", "one,two",
                       "--report", str(tmp_path / "x.json")) == 2


class TestCompareGrid:
    """`compare --vary KEY=V1,V2`: one cell per grid point and seed."""

    def test_threshold_grid_covers_table(self, data_dir, tiny_config, tmp_path):
        report = str(tmp_path / "grid.json")
        code = run_cli("compare", "--data", data_dir, "--config", tiny_config,
                       "--vary", "cfa.threshold=0.02,0.04,0.06,0.08,0.10",
                       "--seeds", "1", "--report", report)
        assert code == 0
        with open(report, encoding="utf-8") as fh:
            table = json.load(fh)
        assert [r["cfa.threshold"] for r in table["rows"]] == [0.02, 0.04, 0.06, 0.08, 0.10]
        for row in table["rows"]:
            assert row["strategy"] == "crossfit" and np.isfinite(row["kappa"])

    def test_undefined_metric_prints_dashes(self, tmp_path, capsys):
        # one test eye: every class AUC, so the macro mean, is undefined
        path = str(tmp_path / "eyes")
        assert run_cli("gen-data", "--out", path, "--n", "5", "--seed", "5") == 0
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"cfa.layers": 1, "train.epochs": 1}, fh)
        capsys.readouterr()
        assert run_cli("compare", "--data", path, "--config", cfg_path, "--seeds", "1",
                       "--vary", "cfa.threshold=0.06",
                       "--report", str(tmp_path / "s.json")) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert header.split() == ["strategy", "cfa.threshold", "kappa", "acc",
                                  "macro-auc", "split-acc"]
        assert row.split()[:2] == ["crossfit", "0.06"] and row.split()[4] == "---"

    @staticmethod
    def _refused(monkeypatch, capsys, tmp_path, *argv) -> str:
        """Run a compare that must exit 2 before any cell trains; its stderr."""
        def no_training(*_args, **_kwargs):
            raise AssertionError("a cell trained")
        monkeypatch.setattr("crossfit.cli._run_cells", no_training)
        report = tmp_path / "x.json"
        assert run_cli("compare", "--seeds", "1", *argv, "--report", str(report)) == 2
        assert not report.exists()
        return capsys.readouterr().err

    def test_bad_threshold_grid(self, data_dir, tiny_config, tmp_path, monkeypatch, capsys):
        # the first point is valid; the second is refused before it trains
        err = self._refused(monkeypatch, capsys, tmp_path, "--data", data_dir,
                            "--config", tiny_config, "--vary", "cfa.threshold=0.2,1.4")
        assert "mask threshold 1.4 outside [0,1]" in err

    @pytest.mark.parametrize("argv, message", [
        (["--vary", "cfa.layer_count=1,2"], "unknown config key 'cfa.layer_count'"),
        (["--vary", "cfa.layers=2,1.5"], "config key 'cfa.layers' must be an integer"),
        (["--vary", "model.mask=true,off"], "config key 'model.mask' must be true or false"),
        (["--vary", "cfa.heads=2,3"], "must divide by heads (3)"),
        (["--vary", "cfa.layers"], "expected KEY=V1,V2"),
        (["--vary", "cfa.layers=,"], "--vary cfa.layers is empty"),
        (["--vary", "train.seed=1,2"], "train.seed is the --seeds axis"),
        (["--strategies", "crossfit", "--vary", "model.strategy=feat_max"],
         "'model.strategy' is varied twice"),
        (["--vary", "cfa.layers=1", "--vary", "cfa.layers=2"], "'cfa.layers' is varied twice"),
        (["--vary", "train.lr=0.01,NaN"], "lr nan must be finite"),
        (["--vary", "train.momentum=Infinity"], "momentum inf must be finite"),
        (["--seeds", "1,2,1"], "--seeds '1,2,1' repeats a value"),
        (["--vary", "cfa.layers=1,2,1"], "--vary cfa.layers '1,2,1' repeats a value"),
        (["--vary", "encoder.stage_channels=[8],[8]"], "'[8],[8]' repeats a value"),
        (["--strategies", "crossfit,crossfit"], "'crossfit,crossfit' repeats a value"),
    ], ids=["unknown-key", "mistyped-int", "mistyped-bool", "inconsistent-point", "no-values",
            "empty-values", "seed-axis", "strategy-twice", "key-twice", "nan-lr", "inf-momentum",
            "repeated-seed", "repeated-value", "repeated-list", "repeated-strategy"])
    def test_refused_grid_trains_nothing(self, data_dir, tiny_config, tmp_path,
                                         monkeypatch, capsys, argv, message):
        err = self._refused(monkeypatch, capsys, tmp_path, "--data", data_dir,
                            "--config", tiny_config, *argv)
        assert message in err and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_cell_keeps_the_report(self, data_dir, tiny_config, tmp_path, capfd,
                                            monkeypatch):
        # The cells run in worker processes: capfd reads their stderr, and the
        # workers turn a RuntimeWarning into an error as the marker does here.
        # The tiny test split leaves class AUCs undefined in both finished
        # cells: the parent prints each distinct notice once, as one line.
        monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        report = tmp_path / "grid.json"
        capfd.readouterr()
        assert run_cli("compare", "--data", data_dir, "--config", tiny_config,
                       "--strategies", "feat_max", "--vary", "train.lr=0.01,1e9",
                       "--seeds", "1,2", "--report", str(report)) == 1
        *notices, last = capfd.readouterr().err.splitlines()
        assert last.startswith("training diverged: 2 of 4 cells")
        assert notices and len(set(notices)) == len(notices)
        assert all(l.startswith("warning: class ") and l.endswith("macro mean") for l in notices)
        table = json.loads(report.read_text())
        assert not any("notices" in c for c in table["cells"])
        finished, diverged = table["rows"]
        assert np.isfinite(finished["kappa"]) and diverged["kappa"] is None
        for cell in table["cells"]:
            assert ("diverged" in cell) == (cell["train.lr"] == 1e9)
            assert (cell["kappa"] is None) == (cell["train.lr"] == 1e9)
        assert finished["kappa"] == pytest.approx(
            np.mean([c["kappa"] for c in table["cells"][:2]]), abs=1e-5)

    def test_two_key_product(self, data_dir, tiny_config, tmp_path, capsys):
        report = str(tmp_path / "grid.json")
        assert run_cli("compare", "--data", data_dir, "--config", tiny_config,
                       "--vary", "model.pe_mode=aligned,none",
                       "--vary", "model.mask=true,false",
                       "--seeds", "1,2", "--report", report) == 0
        with open(report, encoding="utf-8") as fh:
            table = json.load(fh)
        points = [("aligned", True), ("aligned", False), ("none", True), ("none", False)]
        assert [(r["model.pe_mode"], r["model.mask"]) for r in table["rows"]] == points
        assert [list(r)[:3] for r in table["rows"]] == [
            ["strategy", "model.pe_mode", "model.mask"]] * 4
        cells = table["cells"]
        assert [(c["model.pe_mode"], c["model.mask"], c["seed"]) for c in cells] == [
            (*p, seed) for p in points for seed in (1, 2)]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:3] == ["strategy", "model.pe_mode", "model.mask"]
        assert [l.split()[:3] for l in lines[1:5]] == [
            ["crossfit", pe, json.dumps(mask)] for pe, mask in points]

    def test_axes_multiply_in_flag_order(self, data_dir, tiny_config, tmp_path):
        report = str(tmp_path / "grid.json")
        assert run_cli("compare", "--data", data_dir, "--config", tiny_config,
                       "--vary", "model.mask=true,false",
                       "--strategies", "feat_max,crossfit",
                       "--seeds", "1", "--report", report) == 0
        with open(report, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        assert [(r["strategy"], r["model.mask"]) for r in rows] == [
            ("feat_max", True), ("crossfit", True), ("feat_max", False), ("crossfit", False)]
        assert [list(r)[:2] for r in rows] == [["strategy", "model.mask"]] * 4

    def test_values_split_outside_brackets(self):
        values = cli._comma_list("--vary", "[8,16],[24], aligned ,1e-3,true",
                                 cli._json_or_word)
        assert values == [[8, 16], [24], "aligned", 0.001, True]

    def test_sweep_is_gone(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--data", data_dir, "--report", str(tmp_path / "x.json"))
        assert exc.value.code == 2


class TestSet:
    """`--set KEY=VALUE`: one config key over the `--config` file's value,
    read as one `--vary` value is read."""

    def test_set_overrides_config_file(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"train.epochs": 5, "cfa.layers": 2}))
        sets = ["train.epochs=1", "encoder.stage_channels=[8,16]", "model.pe_mode=regular",
                "model.mask=false", "cfa.threshold=0.1"]
        cfg = _merged_config(argparse.Namespace(config=str(cfg_path), sets=sets))
        assert cfg == {**_DEFAULTS, "train.epochs": 1, "cfa.layers": 2,
                       "encoder.stage_channels": [8, 16], "model.pe_mode": "regular",
                       "model.mask": False, "cfa.threshold": 0.1}

    def test_axes_override_set_values(self, data_dir, tiny_config, tmp_path, monkeypatch):
        """In `compare`, --strategies and --vary override --set as they
        override file values; the other --set values reach every cell."""
        payloads = []

        def capture(cells, _workers):
            payloads.extend(cells)
            raise UsageError("captured")
        monkeypatch.setattr("crossfit.cli._run_cells", capture)
        assert run_cli("compare", "--data", data_dir, "--config", tiny_config,
                       "--set", "model.strategy=feat_max", "--set", "cfa.layers=1",
                       "--set", "train.epochs=1", "--strategies", "crossfit",
                       "--vary", "cfa.layers=3", "--seeds", "4",
                       "--report", str(tmp_path / "x.json")) == 2
        (_, base, point, seed), = payloads
        assert (base["model.strategy"], base["cfa.layers"], base["train.epochs"]) == (
            "feat_max", 1, 1)
        assert point == {"model.strategy": "crossfit", "cfa.layers": 3} and seed == 4

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("sets, message", [
        (["cfa.layer_count=2"], "unknown config key 'cfa.layer_count'"),
        (["cfa.layers=1.5"], "config key 'cfa.layers' must be an integer"),
        (["model.mask=off"], "config key 'model.mask' must be true or false"),
        (["model.strategy=bogus"], "unknown strategy 'bogus'; one of ('crossfit'"),
        (["model.pe_mode=bogus"], "unknown pe mode 'bogus'"),
        (["model.pe_mode=learnable"], "unknown pe mode 'learnable'"),
        (["cfa.layers"], "bad --set 'cfa.layers'; expected KEY=VALUE"),
        (["cfa.layers=1", "cfa.layers=2"], "config key 'cfa.layers' is set twice"),
        (["cfa.threshold=1.5"], "mask threshold 1.5 outside [0,1]"),
    ], ids=["unknown-key", "mistyped-int", "mistyped-bool", "bad-strategy", "bad-pe-mode",
            "learnable-pe-mode", "no-value", "set-twice", "bad-threshold"])
    def test_refused_before_any_work(self, data_dir, tiny_config, tmp_path, monkeypatch,
                                     capsys, command, sets, message):
        def no_work(*_args, **_kwargs):
            raise AssertionError("work ran")
        for name in ("crossfit.cli.train", "crossfit.cli._run_cells"):
            monkeypatch.setattr(name, no_work)
        out = tmp_path / "out"
        argv = [command, "--data", data_dir, "--config", tiny_config,
                *(arg for spec in sets for arg in ("--set", spec))]
        argv += (["--out", str(out)] if command == "train"
                 else ["--seeds", "1", "--report", str(out)])
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def test_compare_refuses_set_seed(self, data_dir, tiny_config, tmp_path, monkeypatch,
                                      capsys):
        err = TestCompareGrid._refused(monkeypatch, capsys, tmp_path, "--data", data_dir,
                                       "--config", tiny_config, "--set", "train.seed=1")
        assert err == "error: train.seed is the --seeds axis; it cannot be set\n"


class TestInspect:
    def test_dumps_all_payloads(self, trained_ckpt, data_dir, tmp_path):
        out = str(tmp_path / "probe")
        assert run_cli("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
                       "--eye", "3", "--out", out) == 0
        names = sorted(os.listdir(out))
        attn = [n for n in names if n.startswith("attn_layer")]
        assert len(attn) == 2  # tiny config trains a 2-layer stack
        assert "mask_field1.json" in names and "mask_field2.json" in names
        assert "grids.json" in names
        assert "heatmap_f1_to_f2.ppm" in names

    def test_heatmap_is_readable_ppm(self, trained_ckpt, data_dir, tmp_path):
        out = str(tmp_path / "probe2")
        run_cli("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
                "--eye", "0", "--out", out)
        img = sd.read_ppm(os.path.join(out, "heatmap_f1_to_f2.ppm"))
        assert img.shape == (64, 64, 3)

    def test_grid_offset_matches_annotations(self, trained_ckpt, data_dir, tmp_path):
        out = str(tmp_path / "probe3")
        run_cli("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
                "--eye", "1", "--out", out)
        with open(os.path.join(out, "grids.json"), encoding="utf-8") as fh:
            grids = json.load(fh)
        data = sd.load_dataset(data_dir)
        i = int(np.flatnonzero(data.eye_ids == 1)[0])
        dx = 2.0 * (data.od2[i, 0] - data.od1[i, 0])
        assert abs(grids["offset"][0] - dx) < 1e-5
        f1 = np.array(grids["field1"])
        f2 = np.array(grids["field2"])
        assert f1.shape == f2.shape and f1.shape[-1] == 2

    def test_grids_label_fields_as_the_model_aligns(self, trained_ckpt, data_dir, tmp_path):
        # the model aligns field 1 onto field 2's regular grid
        out = str(tmp_path / "probe4")
        run_cli("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
                "--eye", "2", "--out", out)
        with open(os.path.join(out, "grids.json"), encoding="utf-8") as fh:
            grids = json.load(fh)
        axis = np.linspace(-1.0, 1.0, 4)             # tiny config: 4x4 tokens
        regular = np.stack(np.meshgrid(axis, axis), axis=-1)
        f1 = np.array(grids["field1"])
        f2 = np.array(grids["field2"])
        np.testing.assert_allclose(f2, regular, atol=1e-6)
        np.testing.assert_allclose(f1 - f2, np.broadcast_to(grids["offset"], f1.shape),
                                   atol=1e-5)
        assert np.abs(grids["offset"]).max() > 1e-3   # the eye's discs do move

    def test_leaves_the_tape_empty(self, trained_ckpt, data_dir, tmp_path):
        """inspect records no op; its attention and mask files still hold what
        a forward with the tape recording computes for the same eye."""
        ad.active_tape().clear()
        out = tmp_path / "probe5"
        assert run_cli("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
                       "--eye", "3", "--out", str(out)) == 0
        assert len(ad.active_tape()) == 0
        data = sd.load_dataset(data_dir)
        i = int(np.flatnonzero(data.eye_ids == 3)[0])
        with ad.default_dtype_scope(np.float32):
            model = build_model_from_checkpoint(load_checkpoint(trained_ckpt))
            _, extras = model.forward_batch(data.images1[i:i + 1], data.images2[i:i + 1],
                                            data.od1[i:i + 1], data.od2[i:i + 1],
                                            record=True)
        assert len(ad.active_tape()) > 0
        ad.active_tape().clear()
        for path in export_attention_record(extras["attention"], str(tmp_path / "taped")):
            name = os.path.basename(path)
            assert (out / name).read_bytes() == Path(path).read_bytes(), name
        for name, m in zip(("mask_field1.json", "mask_field2.json"), extras["masks"]):
            bits = json.loads((out / name).read_text(encoding="utf-8"))["bits"]
            assert bits == [int(b) for b in m.reshape(-1)]

    def test_absent_eye_is_lookup_error(self, trained_ckpt, data_dir, tmp_path):
        assert run_cli("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
                       "--eye", "9999", "--out", str(tmp_path / "x")) == 2


class TestDtypeScope:
    """Commands build float32 models but must not leak the default: later
    float64 parameters (gradchecks, exact oracles) read the same process
    default."""

    def test_success_restores_float64(self, trained_ckpt, data_dir, tiny_config, tmp_path):
        runs = [
            ("train", "--data", data_dir, "--config", tiny_config,
             "--out", str(tmp_path / "m.bin"), "--set", "train.epochs=1"),
            ("eval", "--data", data_dir, "--ckpt", trained_ckpt,
             "--report", str(tmp_path / "r.json")),
            ("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
             "--eye", "0", "--out", str(tmp_path / "probe")),
            ("compare", "--data", data_dir, "--config", tiny_config,
             "--strategies", "feat_max", "--seeds", "1",
             "--report", str(tmp_path / "cmp.json")),
        ]
        for argv in runs:
            assert run_cli(*argv) == 0, argv[0]
            assert ad.parameter(0.0).dtype == np.float64, argv[0]

    def test_failure_after_switch_restores_float64(self, trained_ckpt, data_dir, tmp_path):
        not_a_dataset = tmp_path / "empty"
        not_a_dataset.mkdir()
        runs = [
            ("eval", "--data", str(not_a_dataset), "--ckpt", trained_ckpt,
             "--report", str(tmp_path / "r.json")),
            ("inspect", "--ckpt", trained_ckpt, "--data", data_dir,
             "--eye", "9999", "--out", str(tmp_path / "x")),
        ]
        for argv in runs:
            assert run_cli(*argv) == 2, argv[0]
            assert ad.parameter(0.0).dtype == np.float64, argv[0]


class TestRefusedPaths:
    """An output or input path the OS would refuse exits 2 with one line,
    before any eye is generated, trained on or evaluated."""

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "{data}", "--config", "{cfg}", "--out", "{tmp}/nodir/m.bin"],
         "--out {tmp}/nodir/m.bin is in no directory"),
        (["train", "--data", "{data}", "--config", "{cfg}", "--out", "{tmp}"],
         "--out {tmp} is a directory"),
        (["train", "--data", "{data}", "--config", "{tmp}", "--out", "{tmp}/m.bin"],
         "config file {tmp}: Is a directory"),
        (["compare", "--data", "{data}", "--config", "{cfg}", "--strategies", "feat_max",
          "--seeds", "1", "--report", "{tmp}/nodir/c.json"],
         "--report {tmp}/nodir/c.json is in no directory"),
        (["eval", "--data", "{data}", "--ckpt", "{ckpt}", "--report", "{tmp}/nodir/r.json"],
         "--report {tmp}/nodir/r.json is in no directory"),
        (["eval", "--data", "{data}", "--ckpt", "{tmp}", "--report", "{tmp}/r.json"],
         "checkpoint {tmp}: Is a directory"),
        (["gen-data", "--out", "{tmp}/file", "--n", "2"],
         "--out {tmp}/file: {tmp}/file is not a directory"),
        (["gen-data", "--out", "{tmp}/file/eyes", "--n", "2"],
         "--out {tmp}/file/eyes: {tmp}/file is not a directory"),
        (["inspect", "--ckpt", "{ckpt}", "--data", "{data}", "--eye", "0",
          "--out", "{tmp}/file"], "--out {tmp}/file: {tmp}/file is not a directory"),
    ], ids=["train-out-no-dir", "train-out-is-dir", "train-config-is-dir",
            "compare-report-no-dir", "eval-report-no-dir", "eval-ckpt-is-dir",
            "gen-data-out-is-file", "gen-data-out-under-file", "inspect-out-is-file"])
    def test_exits_2_before_any_work(self, data_dir, tiny_config, trained_ckpt, tmp_path,
                                     monkeypatch, capsys, argv, message):
        def no_work(*_args, **_kwargs):
            raise AssertionError("work ran")
        for name in ("crossfit.cli.train", "crossfit.cli._run_cells",
                     "crossfit.cli.predict_dataset", "crossfit.cli.finite_outputs",
                     "crossfit.synthdata.generate_dataset"):
            monkeypatch.setattr(name, no_work)
        (tmp_path / "file").write_text("not a directory")
        names = {"data": data_dir, "cfg": tiny_config, "ckpt": trained_ckpt, "tmp": tmp_path}
        capsys.readouterr()
        assert run_cli(*(a.format(**names) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(**names)) and err.count("\n") == 1
        assert not (tmp_path / "nodir").exists()


def _note_threads(monkeypatch, names, get) -> list:
    """Wrap each `cli` function in `names` to note the BLAS thread count it
    starts on; the list they append to."""
    seen = []
    for name in names:
        def spy(*args, _real=getattr(cli, name), **kwargs):
            seen.append(get())
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    return seen


class TestBlasThreads:
    """Every command, and each `compare` cell in its spawned worker, runs
    model work on one BLAS thread and gives the thread count back after, so
    the host reaches a report only as `compare`'s `workers` count."""

    @pytest.mark.parametrize("command, work", [("train", "train"), ("eval", "predict_dataset"),
                                               ("inspect", "finite_outputs")])
    def test_model_work_runs_one_thread(self, data_dir, tiny_config, trained_ckpt, tmp_path,
                                        monkeypatch, blas_threads, command, work):
        seen = _note_threads(monkeypatch, [work], blas_threads)
        argv = {"train": ["--config", tiny_config, "--out", str(tmp_path / "m.bin"),
                          "--set", "train.epochs=1"],
                "eval": ["--ckpt", trained_ckpt, "--report", str(tmp_path / "r.json")],
                "inspect": ["--ckpt", trained_ckpt, "--eye", "0", "--out", str(tmp_path / "p")]}
        assert run_cli(command, "--data", data_dir, *argv[command]) == 0
        assert seen == [1]
        assert blas_threads() == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_commands_give_the_count_back(self, data_dir, tiny_config, trained_ckpt,
                                                 tmp_path, blas_threads):
        huge = tmp_path / "huge.bin"
        TestEval._fill_head(trained_ckpt, 3e38, huge)
        runs = [
            (1, "train", "--config", tiny_config, "--set", "model.strategy=feat_max",
             "--set", "train.lr=1e9", "--out", str(tmp_path / "m.bin")),
            (2, "eval", "--ckpt", str(huge), "--report", str(tmp_path / "r.json")),
            (2, "inspect", "--ckpt", trained_ckpt, "--eye", "9999", "--out", str(tmp_path / "p")),
        ]
        for code, *argv in runs:
            assert run_cli(*argv, "--data", data_dir) == code, argv[0]
            assert blas_threads() == 2, argv[0]

    def test_blas_is_looked_up_once_per_process(self, monkeypatch):
        with te._one_blas_thread():
            pass
        opened = []

        def spy(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)
        monkeypatch.setattr(te, "open", spy, raising=False)
        with te._one_blas_thread():
            pass
        assert opened == []

    def test_cells_run_one_thread_and_leave_the_parent(self, data_dir, tiny_config,
                                                       monkeypatch, blas_threads):
        seen = _note_threads(monkeypatch, ["train", "predict_dataset"], blas_threads)
        base, env = _merged_config(argparse.Namespace(config=tiny_config)), dict(os.environ)
        cell = cli._train_eval_cell((data_dir, base, {"model.strategy": "feat_max"}, 1))
        assert seen == [1, 1] and np.isfinite(cell["kappa"])
        assert blas_threads() == 2 and dict(os.environ) == env

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_report_is_the_same_on_one_cpu(self, data_dir, tiny_config, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def report(name: str, preexec_fn=None) -> str:
            path = tmp_path / name
            subprocess.run([sys.executable, "-m", "crossfit.cli", "compare",
                            "--data", data_dir, "--config", tiny_config,
                            "--seeds", "1,2", "--report", str(path)],
                           env=env, preexec_fn=preexec_fn, capture_output=True,
                           timeout=300, check=True)
            return path.read_text()

        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        pinned, free = report("pinned.json", one_cpu), report("free.json")
        assert '\n "workers": 1,\n' in pinned
        drop_workers = re.compile(r'\n "workers": \d+,')
        assert drop_workers.sub("", pinned) == drop_workers.sub("", free)


_SMALL_INTS = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-3, 24))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 24), st.floats(-2.0, 70.0),
              st.sampled_from([float("nan"), float("inf")]), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=5)


class TestConfigDefaults:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.dictionaries(st.sampled_from(sorted(_DEFAULTS)), _JSON_VALUES, max_size=4),
        st.dictionaries(st.sampled_from(sorted(_DEFAULTS)),
                        st.one_of(_SMALL_INTS, st.lists(_SMALL_INTS, min_size=1, max_size=3)),
                        max_size=3),
        _JSON_VALUES,
        st.binary(max_size=40)))
    @example(b'{"cfa.d_t": 0}')
    @example(b'{"cfa.heads": 0}')
    @example(b'{"train.seed": -1}')
    @example(b'{"encoder.stage_channels": [8, -1]}')
    @example(b'{"encoder.input_size": -16}')
    @example(b'{"train.lr": 0.1}\n\xff')
    @example(b'{"cfa.layers": ' + b"[" * 100_000 + b"}")
    def test_config_fuzz_raises_only_usage_error(self, tmp_path_factory, doc):
        """Whatever a config file holds, loading it and building the model it
        describes either works or raises UsageError."""
        path = tmp_path_factory.mktemp("cfg") / "fuzz.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        try:
            model_cfg, train_cfg, _ = _build_configs(
                _merged_config(argparse.Namespace(config=str(path))))
        except UsageError:
            return
        CrossFiTModel(ad.make_rng(train_cfg.seed), model_cfg)

    def test_library_defaults_are_the_cli_defaults(self):
        """The config dataclasses' own defaults are the recipe every command runs."""
        model_cfg, train_cfg, _ = _build_configs(dict(_DEFAULTS))
        assert CrossFiTConfig() == model_cfg and TrainConfig() == train_cfg

    def test_defaults_are_consistent(self):
        model_cfg, train_cfg, frac = _build_configs(dict(_DEFAULTS))
        assert model_cfg.cfa.d_t % model_cfg.cfa.heads == 0
        assert model_cfg.cfa.d_t % 4 == 0
        assert 0 < frac < 1
        assert train_cfg.lr > 0

    # a second valid value for every key; a key missing here fails the test
    _SECOND_VALUES = {
        "encoder.stage_channels": [96], "encoder.stride": 8, "encoder.kernel": 13,
        "encoder.input_size": 128, "cfa.layers": 2, "cfa.heads": 8, "cfa.d_t": 32,
        "cfa.mlp_ratio": 2, "cfa.threshold": 0.1, "cfa.zero_init_out": False,
        "model.strategy": "feat_max", "model.pe_mode": "none", "model.mask": False,
        "model.num_classes": 3, "train.lr": 0.1, "train.momentum": 0.5,
        "train.weight_decay": 0.0, "train.batch_size": 8, "train.epochs": 2,
        "train.seed": 1, "train.hflip": False, "data.train_frac": 0.5,
    }

    def test_every_key_changes_the_built_configs(self):
        """A grid over a key that nothing reads would print identical rows."""
        assert set(self._SECOND_VALUES) == set(_DEFAULTS)
        default = _build_configs(dict(_DEFAULTS))
        for key, value in self._SECOND_VALUES.items():
            assert value != _DEFAULTS[key], key
            cli._check_config_type(key, value)
            assert _build_configs({**_DEFAULTS, key: value}) != default, key


    def test_each_config_field_has_one_key(self, monkeypatch):
        """Each field of the model and train configs is set by exactly one
        `_DEFAULTS` key, and each key outside `data.` sets one field; so a new
        field needs only its dataclass field and its key."""
        seen = {}
        walk = cli.config_from_dict

        def capture(cls, d):
            seen[cls] = d
            return walk(cls, d)

        monkeypatch.setattr(cli, "config_from_dict", capture)
        _build_configs(dict(_DEFAULTS))

        def leaves(cls, d):
            assert set(d) == {f.name for f in dataclasses.fields(cls)}, cls
            nested = {f.name: type(getattr(cls(), f.name)) for f in dataclasses.fields(cls)}
            return sum(leaves(nested[k], v) if dataclasses.is_dataclass(nested[k]) else 1
                       for k, v in d.items())

        assert set(seen) == {CrossFiTConfig, TrainConfig}
        n_fields = sum(leaves(cls, d) for cls, d in seen.items())
        assert n_fields == len([k for k in _DEFAULTS if not k.startswith("data.")])


def test_docstring_lists_every_subcommand():
    line, = [l for l in cli.__doc__.splitlines() if l.startswith("Subcommands:")]
    listed = [name.strip() for name in line.split(":")[1].strip(" .").split(",")]
    parser = cli._build_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(sub.choices)


def test_only_set_and_the_axes_set_config_keys():
    """No per-key flag copies the config schema: `train` sets keys only
    through --config and --set, `compare` also through its three axes, and
    `eval` through none."""
    parser = cli._build_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {flag for a in p._actions for flag in a.option_strings}
             for name, p in sub.choices.items()}
    common = {"-h", "--help", "--data", "--config", "--set"}
    assert flags["train"] == common | {"--out"}
    assert flags["compare"] == common | {"--report", "--strategies", "--vary", "--seeds"}
    # eval splits by the checkpoint's data.train_frac, and takes no config key
    assert flags["eval"] == {"-h", "--help", "--data", "--ckpt", "--report", "--subset"}


def test_docstring_examples_parse():
    """Every command line the usage text quotes parses, and its --set values
    are valid keys and values, so the text cannot drift from the parser."""
    lines = [shlex.split(l) for l in cli.__doc__.replace("\\\n", " ").splitlines()
             if l.strip().startswith("crossfit ")]
    parser = cli._build_parser()
    assert [argv[1] for argv in lines] == ["gen-data", "train", "eval", "compare", "inspect"]
    for argv in lines:
        args = parser.parse_args(argv[1:])
        sets = argparse.Namespace(sets=getattr(args, "sets", None))
        _build_configs(_merged_config(sets, seed_axis=args.fn is cli.cmd_compare))
    assert any("--set" in argv for argv in lines)
