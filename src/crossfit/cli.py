"""Command-line front end.

Subcommands: gen-data, train, eval, compare, inspect, sweep, verify.
Every command is deterministic given its flags and seeds.  Exit codes:
0 success, 1 verification or training failure, 2 usage / I-O error.

Config files are JSON objects with flat dotted keys ("cfa.layers": 3);
command-line flags override file values, file values override defaults.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import time

import numpy as np

from . import autodiff as ad
from . import synthdata as sd
from .attention import CfaConfig, MultiHeadAttention, export_attention_record
from .autodiff import ContractError, Tensor
from .encoder import EncoderConfig
from .geometry import (aligned_position_embeddings, field1_grid, regular_coords,
                       regular_position_embedding, sinusoidal_pe)
from .model import PE_MODES, STRATEGIES, CrossFiTConfig, CrossFiTModel
from .train_eval import (CheckpointError, NonFiniteOutputError, TrainConfig,
                         TrainingDiverged, build_model_from_checkpoint, evaluate,
                         json_type_error, load_checkpoint, metrics_from_predictions,
                         predict_dataset, quadratic_weighted_kappa, roc_auc_ovr,
                         save_checkpoint, train)


class UsageError(ValueError):
    """Bad flags, bad config, bad lookup: anything the caller must fix."""


# ---------------------------------------------------------------------------
# config plumbing

_DEFAULTS = {
    "encoder.stage_channels": [192],
    "encoder.stride": 16,
    "encoder.kernel": 15,
    "encoder.input_size": 64,
    "cfa.layers": 3,
    "cfa.heads": 4,
    "cfa.d_t": 64,
    "cfa.mlp_ratio": 4,
    "cfa.threshold": 0.06,
    "cfa.zero_init_out": True,
    "model.strategy": "crossfit",
    "model.pe_mode": "aligned",
    "model.mask": True,
    "model.num_classes": 5,
    "train.lr": 0.01,
    "train.momentum": 0.9,
    "train.weight_decay": 1e-4,
    "train.batch_size": 16,
    "train.epochs": 40,
    "train.seed": 0,
    "train.hflip": True,
    "data.train_frac": 0.8,
}


def _check_config_type(key: str, value) -> None:
    problem = json_type_error(key, value, _DEFAULTS[key])
    if problem:
        raise UsageError(f"config key {key!r} {problem}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise UsageError(f"config file {path}: bad JSON ({err})") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    for key, value in raw.items():
        if key not in _DEFAULTS:
            known = ", ".join(sorted(_DEFAULTS))
            raise UsageError(f"unknown config key {key!r}; known keys: {known}")
        _check_config_type(key, value)
    return raw


def _merged_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    cfg.update(_load_config_file(getattr(args, "config", None)))
    if getattr(args, "strategy", None) is not None:
        cfg["model.strategy"] = args.strategy
    if getattr(args, "pe_mode", None) is not None:
        cfg["model.pe_mode"] = args.pe_mode
    if getattr(args, "mask", None) is not None:
        cfg["model.mask"] = args.mask == "on"
    if getattr(args, "threshold", None) is not None:
        cfg["cfa.threshold"] = args.threshold
    if getattr(args, "epochs", None) is not None:
        cfg["train.epochs"] = args.epochs
    if getattr(args, "seed", None) is not None:
        cfg["train.seed"] = args.seed
    return cfg


def _build_configs(cfg: dict) -> tuple[CrossFiTConfig, TrainConfig, float]:
    """Dotted-key dict -> validated config objects.

    Consistency rules (width divisible by heads and by 4, threshold range,
    stride arithmetic) are all enforced here, before any data is touched."""
    try:
        model_cfg = CrossFiTConfig(
            encoder=EncoderConfig(
                stage_channels=tuple(cfg["encoder.stage_channels"]),
                stride=cfg["encoder.stride"],
                kernel=cfg["encoder.kernel"],
                input_size=cfg["encoder.input_size"]),
            cfa=CfaConfig(
                layers=cfg["cfa.layers"], heads=cfg["cfa.heads"],
                d_t=cfg["cfa.d_t"], mlp_ratio=cfg["cfa.mlp_ratio"],
                threshold=cfg["cfa.threshold"],
                zero_init_out=cfg["cfa.zero_init_out"]),
            strategy=cfg["model.strategy"],
            pe_mode=cfg["model.pe_mode"],
            mask_enabled=cfg["model.mask"],
            num_classes=cfg["model.num_classes"])
        train_cfg = TrainConfig(
            lr=cfg["train.lr"], momentum=cfg["train.momentum"],
            weight_decay=cfg["train.weight_decay"],
            batch_size=cfg["train.batch_size"], epochs=cfg["train.epochs"],
            seed=cfg["train.seed"], hflip=cfg["train.hflip"])
    except ContractError as err:
        raise UsageError(f"inconsistent configuration: {err}") from None
    frac = cfg["data.train_frac"]
    _check_train_frac("data.train_frac", frac)
    return model_cfg, train_cfg, frac


def _check_train_frac(name: str, frac: float) -> None:
    if not (0.0 < frac < 1.0):
        raise UsageError(f"{name} {frac} outside (0,1)")


def _check_dataset_fit(data: sd.ArrayDataset, model_cfg: CrossFiTConfig) -> None:
    size = data.images1.shape[1]
    if size != model_cfg.encoder.input_size:
        raise UsageError(f"dataset images are {size}x{size} but the encoder "
                         f"expects {model_cfg.encoder.input_size}")
    top = int(data.grades.max())
    if top >= model_cfg.num_classes:
        raise UsageError(f"dataset contains grade {top} but the model has "
                         f"{model_cfg.num_classes} classes")


def _g6(x):
    """Round floats to 6 significant digits for every printed number."""
    if isinstance(x, float):
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _g6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_g6(v) for v in x]
    return x


def _emit(obj: dict) -> None:
    print(json.dumps(_g6(obj)))


def _split(data: sd.ArrayDataset, frac: float):
    """(train, test) parts of `data`; each must keep at least one eye."""
    train_set, test_set = data.train_test_split(frac)
    if len(train_set) == 0 or len(test_set) == 0:
        raise UsageError(f"train fraction {frac} splits {len(data)} eyes into "
                         f"{len(train_set)} train and {len(test_set)} test; "
                         f"each part needs at least one eye")
    return train_set, test_set


def _load_split(data_dir: str, num_classes: int, frac: float):
    return _split(sd.load_dataset(data_dir, num_classes=num_classes), frac)


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    cfg = sd.GenConfig(size=args.size, split_rate=args.split_evidence_rate,
                       artifact_rate=args.artifact_rate)
    out = args.out
    if os.path.isdir(out) and os.listdir(out):
        if not args.force:
            raise UsageError(f"{out} exists and is not empty (use --force to replace)")
        shutil.rmtree(out)
    samples = sd.generate_dataset(args.seed, args.n, cfg)
    sd.write_dataset(samples, out)
    summary = {"out": out, "n": args.n, "seed": args.seed, "size": args.size}
    summary.update(sd.grade_histogram(samples, cfg.num_classes))
    _emit(summary)
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    model_cfg, train_cfg, frac = _build_configs(cfg)
    train_set, _ = _load_split(args.data, model_cfg.num_classes, frac)
    _check_dataset_fit(train_set, model_cfg)

    t0 = time.time()
    epoch_log = []

    def on_epoch(epoch: int, loss: float) -> None:
        entry = {"epoch": epoch, "loss": loss, "elapsed_s": time.time() - t0}
        epoch_log.append(entry)
        _emit(entry)

    with ad.default_dtype_scope(np.float32):
        model = CrossFiTModel(ad.make_rng(train_cfg.seed), model_cfg)
        ckpt, _losses = train(model, train_set, train_cfg, on_epoch=on_epoch)
    save_checkpoint(ckpt, args.out)
    log_path = args.out + ".log.json"
    with open(log_path, "w", encoding="utf-8") as fh:
        json.dump(_g6({"config": cfg, "epochs": epoch_log}), fh, indent=1)
    _emit({"checkpoint": args.out, "log": log_path,
           "final_loss": epoch_log[-1]["loss"] if epoch_log else None,
           "train_eyes": len(train_set)})
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    _check_train_frac("--train-frac", args.train_frac)
    try:
        ckpt = load_checkpoint(args.ckpt)
    except FileNotFoundError:
        raise UsageError(f"checkpoint not found: {args.ckpt}") from None
    with ad.default_dtype_scope(np.float32):
        model = build_model_from_checkpoint(ckpt)
        data = sd.load_dataset(args.data, num_classes=model.cfg.num_classes)
        _check_dataset_fit(data, model.cfg)
        if args.subset != "all":
            train_part, test_part = _split(data, args.train_frac)
            data = train_part if args.subset == "train" else test_part
        report = evaluate(model, data).to_dict()
    report["subset"] = args.subset
    report["data"] = args.data
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(_g6(report), fh, indent=1)
    auc = "---" if report["macro_auc"] is None else f"{report['macro_auc']:.6g}"
    print(f"kappa {report['kappa']:.6g}  acc {report['accuracy']:.6g}  "
          f"macro-auc {auc}  n {report['n_samples']}")
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# compare


def _train_eval_cell(payload: tuple) -> dict:
    """One (strategy, seed) cell, isolated enough to run in a worker process."""
    data_dir, cfg, strategy, seed = payload
    cfg = dict(cfg)
    cfg["model.strategy"] = strategy
    cfg["train.seed"] = seed
    model_cfg, train_cfg, frac = _build_configs(cfg)
    train_set, test_set = _load_split(data_dir, model_cfg.num_classes, frac)
    _check_dataset_fit(train_set, model_cfg)
    with ad.default_dtype_scope(np.float32):
        model = CrossFiTModel(ad.make_rng(seed), model_cfg)
        train(model, train_set, train_cfg)
        grades, probs = predict_dataset(model, test_set)
    m = metrics_from_predictions(test_set.grades, grades, probs, model_cfg.num_classes)
    split = test_set.split_evidence
    hits = grades[split] == test_set.grades[split]
    split_acc = float(hits.mean()) if hits.size else None
    return {"strategy": strategy, "seed": seed, "kappa": m.kappa,
            "accuracy": m.accuracy, "macro_auc": m.macro_auc, "split_acc": split_acc}


def _worker_count(n_cells: int) -> int:
    raw = os.environ.get("CROSSFIT_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"CROSSFIT_THREADS={raw!r} is not an integer") from None
    return max(1, min(cap, n_cells))


def _run_cells(payloads: list) -> list:
    workers = _worker_count(len(payloads))
    if workers == 1:
        return [_train_eval_cell(p) for p in payloads]
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        return pool.map(_train_eval_cell, payloads)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --seeds {text!r}; expected comma-separated integers") from None
    if not seeds:
        raise UsageError("--seeds is empty")
    return seeds


def _mean(vals):
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


_METRICS = ("kappa", "accuracy", "macro_auc", "split_acc")


def _mean_metrics(cells: list) -> dict:
    """Seed-averaged metrics of a group of cells, None where none is defined."""
    return {k: _mean(c[k] for c in cells) for k in _METRICS}


def _print_rows(rows: list, key: str, align: str, fmt: str) -> None:
    """A table of `rows`: the `key` column, then each metric, --- if undefined."""
    print(f"{key:{align}}{'kappa':>10}{'acc':>10}{'macro-auc':>12}{'split-acc':>12}")
    for r in rows:
        kappa, acc, auc, split = ("---" if r[k] is None else f"{r[k]:.4f}"
                                  for k in _METRICS)
        print(f"{r[key]:{align}{fmt}}{kappa:>10}{acc:>10}{auc:>12}{split:>12}")


def cmd_compare(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise UsageError("--strategies is empty")
    for s in strategies:
        if s not in STRATEGIES:
            raise UsageError(f"unknown strategy {s!r}; valid: {', '.join(STRATEGIES)}")
    seeds = _parse_seeds(args.seeds)
    cfg = _merged_config(args)

    payloads = [(args.data, cfg, s, seed) for s in strategies for seed in seeds]
    cells = _run_cells(payloads)

    rows = []
    for s in strategies:
        own = [c for c in cells if c["strategy"] == s]
        rows.append({"strategy": s, **_mean_metrics(own)})
    table = {"seeds": seeds, "rows": rows, "cells": cells}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(_g6(table), fh, indent=1)
    _print_rows(rows, "strategy", "<16", "")
    _emit({"report": args.report, "rows": rows})
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    try:
        thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"bad --thresholds {args.thresholds!r}") from None
    if not thresholds:
        raise UsageError("--thresholds is empty")
    for p in thresholds:
        if not (0.0 <= p <= 1.0):
            raise UsageError(f"threshold {p} outside [0,1]")
    seeds = _parse_seeds(args.seeds)
    base = _merged_config(args)

    rows = []
    for p in thresholds:
        cfg = dict(base)
        cfg["cfa.threshold"] = p
        cells = _run_cells([(args.data, cfg, cfg["model.strategy"], s) for s in seeds])
        rows.append({"threshold": p, **_mean_metrics(cells)})
    table = {"seeds": seeds, "strategy": base["model.strategy"], "rows": rows}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(_g6(table), fh, indent=1)
    _print_rows(rows, "threshold", ">10", ".4g")
    _emit({"report": args.report, "rows": rows})
    return 0


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    try:
        ckpt = load_checkpoint(args.ckpt)
    except FileNotFoundError:
        raise UsageError(f"checkpoint not found: {args.ckpt}") from None
    with ad.default_dtype_scope(np.float32):
        model = build_model_from_checkpoint(ckpt)
        if model.cfg.strategy != "crossfit":
            raise UsageError(f"attention inspection needs the crossfit strategy; "
                             f"checkpoint was trained with {model.cfg.strategy!r}")
        data = sd.load_dataset(args.data, num_classes=model.cfg.num_classes)
        _check_dataset_fit(data, model.cfg)
        hits = np.flatnonzero(data.eye_ids == args.eye)
        if hits.size == 0:
            raise UsageError(f"eye {args.eye} not in manifest at {args.data}")
        i = int(hits[0])

        logits, extras = model.forward_batch(
            data.images1[i:i + 1], data.images2[i:i + 1],
            data.od1[i:i + 1], data.od2[i:i + 1], record=True)
    os.makedirs(args.out, exist_ok=True)
    attn_paths = export_attention_record(extras["attention"], args.out)

    m1, m2 = extras["masks"]
    mask_paths = []
    for name, m in (("mask_field1.json", m1), ("mask_field2.json", m2)):
        path = os.path.join(args.out, name)
        bits = None if m is None else [int(b) for b in np.asarray(m).reshape(-1)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"bits": bits, "threshold": model.cfg.cfa.threshold,
                       "enabled": model.cfg.mask_enabled}, fh)
        mask_paths.append(path)

    # the grids the model embeds: field 1 aligned onto field 2's regular grid
    side = model.cfg.encoder.feature_side
    offset, field1 = field1_grid(data.od1[i:i + 1], data.od2[i:i + 1], side)
    grid_path = os.path.join(args.out, "grids.json")
    with open(grid_path, "w", encoding="utf-8") as fh:
        json.dump(_g6({"offset": offset[0].tolist(),
                       "field1": field1[0].tolist(),
                       "field2": regular_coords(side).tolist()}), fh)

    # per-token mass flowing from field-1 queries onto each field-2 key,
    # averaged over layers and heads
    l = model.cfg.tokens_per_field
    mass = np.zeros(l)
    for a in extras["attention"].layers:
        a = np.asarray(a)[0]                     # (heads, 2l, 2l)
        mass += a[:, :l, l:].sum(axis=(0, 1))
    mass /= max(mass.max(), 1e-12)
    up = model.cfg.encoder.input_size // side
    gray = np.repeat(np.repeat(mass.reshape(side, side), up, 0), up, 1)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    heat_path = os.path.join(args.out, "heatmap_f1_to_f2.ppm")
    sd.write_ppm(heat_path, np.round(rgb * 255.0).astype(np.uint8))

    pred = int(np.argmax(logits.data[0]))
    _emit({"eye": args.eye, "grade": int(data.grades[i]), "predicted": pred,
           "attention_files": attn_paths, "mask_files": mask_paths,
           "grid_file": grid_path, "heatmap": heat_path})
    return 0


# ---------------------------------------------------------------------------
# verify


def _fault(group: str) -> bool:
    return os.environ.get("CROSSFIT_VERIFY_FAULT", "") == group


def _verify_gradchecks() -> tuple[bool, str]:
    rng = ad.make_rng(0)
    worst = 0.0

    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(4), requires_grad=True)
    beta = Tensor(rng.standard_normal(4), requires_grad=True)
    labels = np.array([0, 3, 1])

    def composite():
        h = ad.gelu(ad.matmul(x, w))
        h = ad.layer_norm(h, gamma, beta)
        return ad.cross_entropy_logits(h, labels)

    worst = max(worst, ad.gradcheck(composite, [x, w, gamma, beta]))

    img = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
    kern = Tensor(0.3 * rng.standard_normal((4, 3, 3, 3)), requires_grad=True)

    def conv():
        return ad.sum_(ad.relu(ad.conv2d(img, kern, stride=2, pad=1)))

    worst = max(worst, ad.gradcheck(conv, [img, kern]))

    cfg = CrossFiTConfig(
        encoder=EncoderConfig(stage_channels=(6,), stride=4, kernel=3, input_size=8),
        cfa=CfaConfig(layers=1, heads=2, d_t=8, mlp_ratio=2),
        num_classes=3)
    model = CrossFiTModel(ad.make_rng(1), cfg)
    imgs1 = rng.random((2, 8, 8, 3))
    imgs2 = rng.random((2, 8, 8, 3))
    od1 = np.array([[0.3, 0.4], [0.5, 0.5]])
    od2 = np.array([[0.5, 0.5], [0.4, 0.6]])
    lab = np.array([0, 2])
    params = [p for _, p in model.parameters()]

    def loss():
        return model.loss_batch(imgs1, imgs2, od1, od2, lab)

    worst = max(worst, ad.gradcheck(loss, params, max_elems=6, rng=ad.make_rng(2)))
    if _fault("gradchecks"):
        worst += 1.0
    ok = worst < 1e-3
    return ok, f"max relative error {worst:.3g}"


def _verify_mask_exactness() -> tuple[bool, str]:
    rng = ad.make_rng(3)
    worst_col = 0.0
    worst_row = 0.0
    for trial in range(25):
        heads = int(rng.choice([1, 2, 4]))
        d = 4 * heads * int(rng.integers(1, 4))
        t = int(rng.integers(2, 10))
        mha = MultiHeadAttention(rng, CfaConfig(layers=1, heads=heads, d_t=d))
        x = Tensor(rng.standard_normal((1, t, d)))
        mask = (rng.random(t) < 0.7).astype(float)
        if mask.sum() == 0:
            mask[int(rng.integers(t))] = 1.0
        records = []
        with ad.no_grad():
            mha(x, mask[None, :], records)
        weights = np.asarray(records[0])[0]       # (heads, t, t)
        if _fault("mask_exactness") and trial == 0:
            weights = weights + 1e-6
        if (mask == 0.0).any():
            worst_col = max(worst_col, float(np.abs(weights[..., mask == 0.0]).max()))
        worst_row = max(worst_row, float(np.abs(weights.sum(axis=-1) - 1.0).max()))
        with ad.no_grad():
            ones_out = mha(x, np.ones((1, t)))
            plain_out = mha(x, None)
        if not np.array_equal(ones_out.data, plain_out.data):
            return False, "all-ones mask is not bitwise identical to unmasked"
    ok = worst_col == 0.0 and worst_row < 1e-12
    return ok, f"masked-column max {worst_col:.3g}, row-sum error {worst_row:.3g}"


def _verify_geometry() -> tuple[bool, str]:
    rng = ad.make_rng(4)
    reg = regular_position_embedding(4, 16)
    for _ in range(20):
        od1, od2 = rng.random((1, 2)), rng.random((1, 2))
        offset, coords = field1_grid(od1, od2, 4)
        want = np.array([2.0 * (od2[0, 0] - od1[0, 0]), 2.0 * (od2[0, 1] - od1[0, 1])])
        if _fault("geometry"):
            want = want + 0.5
        if not np.array_equal(offset[0], want):
            return False, f"offset mismatch: got {offset[0]}, want {want}"
        if not np.array_equal(coords[0], regular_coords(4) + want[None, None, :]):
            return False, "aligned coordinates are not regular plus the offset"
        same = aligned_position_embeddings(od1, od1, 4, 16)
        if not (np.array_equal(same[0][0], reg) and np.array_equal(same[1], reg)):
            return False, "identical landmarks do not reduce to the regular embedding"
    pos = np.array([[[0.25, 0.75], [0.9, 0.75]]])        # one row, two cells
    pe = sinusoidal_pe(pos, 8)
    solo_x = sinusoidal_pe(np.array([[[0.25, 0.1]]]), 8)
    if not np.array_equal(pe[0, :4], solo_x[0, :4]):
        return False, "first half of the embedding does not track x alone"
    if not np.array_equal(pe[0, 4:], pe[1, 4:]):
        return False, "shared row does not share the y half of the embedding"
    return True, "offsets exact, reductions bitwise"


def _verify_metric_oracles() -> tuple[bool, str]:
    rng = ad.make_rng(5)
    worst = 0.0
    for _ in range(30):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(10, 60))
        labels = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=n)
        scores = rng.random((n, c))
        conf = np.zeros((c, c), dtype=np.int64)
        for a, b in zip(labels, preds):
            conf[a, b] += 1
        got = quadratic_weighted_kappa(conf)

        w = np.array([[(i - j) ** 2 for j in range(c)] for i in range(c)], float)
        w /= (c - 1) ** 2
        obs = conf / conf.sum()
        exp = np.outer(conf.sum(1), conf.sum(0)) / conf.sum() ** 2
        denom = (w * exp).sum()
        oracle = 1.0 - (w * obs).sum() / denom if denom > 0 else 0.0
        if _fault("metric_oracles"):
            oracle += 0.01
        worst = max(worst, abs(got - oracle))

        for cls in range(c):
            pos = labels == cls
            if pos.all() or not pos.any():
                continue
            got_auc = roc_auc_ovr(scores[:, cls], pos)
            s_pos = scores[pos, cls]
            s_neg = scores[~pos, cls]
            wins = sum((s_pos > v).sum() + 0.5 * (s_pos == v).sum() for v in s_neg)
            worst = max(worst, abs(got_auc - wins / (len(s_pos) * len(s_neg))))

    diag = np.diag(np.arange(1, 6))
    if quadratic_weighted_kappa(diag) != 1.0:
        return False, "diagonal confusion does not give kappa 1"
    ties = roc_auc_ovr(np.ones(10), np.arange(10) < 4)
    if ties != 0.5:
        return False, "all-tie scores do not give AUC 0.5"
    ok = worst < 1e-12
    return ok, f"max deviation from brute force {worst:.3g}"


_VERIFY_GROUPS = [
    ("gradchecks", _verify_gradchecks),
    ("mask_exactness", _verify_mask_exactness),
    ("geometry", _verify_geometry),
    ("metric_oracles", _verify_metric_oracles),
]


def cmd_verify(_args) -> int:
    failures = 0
    results = []
    t0 = time.time()
    with ad.default_dtype_scope(np.float64):  # the groups' bounds assume float64
        for name, fn in _VERIFY_GROUPS:
            ok, detail = fn()
            failures += not ok
            results.append({"group": name, "ok": bool(ok), "detail": detail})
            print(f"{name:<16} {'PASS' if ok else 'FAIL'}  ({detail})")
    _emit({"groups": results, "elapsed_s": time.time() - t0,
           "ok": failures == 0})
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="crossfit", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic two-field dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--split-evidence-rate", type=float, default=0.3)
    g.add_argument("--artifact-rate", type=float, default=0.25)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train one model")
    t.add_argument("--data", required=True)
    t.add_argument("--config")
    t.add_argument("--out", required=True)
    t.add_argument("--strategy", choices=STRATEGIES)
    t.add_argument("--pe-mode", choices=PE_MODES)
    t.add_argument("--mask", choices=["on", "off"])
    t.add_argument("--threshold", type=float)
    t.add_argument("--epochs", type=int)
    t.add_argument("--seed", type=int)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--report", required=True)
    e.add_argument("--subset", choices=["all", "train", "test"], default="all")
    e.add_argument("--train-frac", type=float, default=0.8)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("compare", help="train and rank fusion strategies")
    c.add_argument("--data", required=True)
    c.add_argument("--strategies", required=True)
    c.add_argument("--seeds", default="1,2,3")
    c.add_argument("--report", required=True)
    c.add_argument("--config")
    c.add_argument("--epochs", type=int)
    c.set_defaults(fn=cmd_compare)

    w = sub.add_parser("sweep", help="train across mask thresholds")
    w.add_argument("--data", required=True)
    w.add_argument("--report", required=True)
    w.add_argument("--thresholds", default="0.02,0.04,0.06,0.08,0.10")
    w.add_argument("--seeds", default="1")
    w.add_argument("--config")
    w.add_argument("--epochs", type=int)
    w.set_defaults(fn=cmd_sweep)

    i = sub.add_parser("inspect", help="dump masks, grids, attention for one eye")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--data", required=True)
    i.add_argument("--eye", type=int, required=True)
    i.add_argument("--out", required=True)
    i.set_defaults(fn=cmd_inspect)

    v = sub.add_parser("verify", help="run the built-in property suites")
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, sd.DataError, CheckpointError, NonFiniteOutputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
