r"""Command-line front end.

Subcommands: gen-data, train, eval, compare, inspect.
Every command is deterministic given its flags and seeds.  Exit codes:
0 success, 1 training diverged (`compare` still writes its report, with
null metrics for each diverged cell), 2 usage / I-O error (bad flags,
config, data or checkpoint, an output path the OS would refuse, found
before any work, or a model whose outputs overflow).

  crossfit gen-data --out eyes --n 600 --seed 11
  crossfit train --data eyes --out m.bin --config c.json --set train.seed=3
  crossfit eval --data eyes --ckpt m.bin --subset test --report eval.json
  crossfit compare --data eyes --strategies crossfit,feat_max --seeds 1,2 \
      --vary model.mask=true,false --set train.epochs=8 --report cmp.json
  crossfit inspect --ckpt m.bin --data eyes --eye 3 --out probe

Each config key ("cfa.layers") takes its config dataclass field's default
(`data.train_frac`: 0.8), then its value in the `--config` JSON file, then
its `--set KEY=VALUE` (JSON or a bare word of the key's type; one per key).
In `compare`, `--strategies`, `--vary` and `--seeds` override all three,
and train.seed, the seed axis, cannot be `--set`.  `eval --subset
train|test` splits the eyes by the data.train_frac `train` recorded in the
checkpoint.  Every command runs numpy's OpenBLAS on one thread, and gives
the count back on exit: the count changes BLAS's float summation order, so
a checkpoint or report (all but `compare`'s `workers` count) is the same on
any host.  Each `compare` cell runs on one thread too, in one of
min(usable CPUs, cells) spawned workers.  `eval` and `compare` print each
distinct warning of the metrics (an undefined class AUC) as one `warning:`
line on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import re
import shutil
import sys
import time

import numpy as np

from . import autodiff as ad
from . import synthdata as sd
from .attention import export_attention_record
from .autodiff import ContractError
from .geometry import field1_grid, regular_coords
from .model import CrossFiTConfig, CrossFiTModel
from .train_eval import (CheckpointError, NonFiniteOutputError, TrainConfig,
                         TrainingDiverged, _one_blas_thread, build_model_from_checkpoint,
                         config_from_dict, field_defaults, finite_outputs,
                         json_type_error, load_checkpoint, metrics_from_predictions,
                         predict_dataset, save_checkpoint, train)


class UsageError(ValueError):
    """Bad flags, bad config, bad lookup: anything the caller must fix."""


# ---------------------------------------------------------------------------
# config plumbing

# config key -> "section.field" where the field has another name
_RENAMED = {"model.mask": "model.mask_enabled"}
# each config field's default, keyed as `_build_configs` groups them
_DEFAULTS = {{v: k for k, v in _RENAMED.items()}.get(path, path): value
             for cls, section in ((CrossFiTConfig, "model"), (TrainConfig, "train"))
             for path, value in field_defaults(cls, section).items()}
_DEFAULTS["data.train_frac"] = 0.8


def _check_config_type(key: str, value) -> None:
    if key not in _DEFAULTS:
        known = ", ".join(sorted(_DEFAULTS))
        raise UsageError(f"unknown config key {key!r}; known keys: {known}")
    problem = json_type_error(key, value, _DEFAULTS[key])
    if problem:
        raise UsageError(f"config key {key!r} {problem}")


def _json_or_word(text: str):
    """A JSON value, or a bare word such as aligned read as a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise UsageError(f"config file {path}: {err.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise UsageError(f"config file {path}: bad JSON ({err})") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    for key, value in raw.items():
        _check_config_type(key, value)
    return raw


def _merged_config(args, seed_axis: bool = False) -> dict:
    """Defaults, then the --config file's values, then each --set KEY=VALUE,
    read as one --vary value; with `seed_axis` (--seeds), not train.seed."""
    sets = {}
    for spec in getattr(args, "sets", None) or []:
        key, sep, text = spec.partition("=")
        if not sep:
            raise UsageError(f"bad --set {spec!r}; expected KEY=VALUE")
        if seed_axis and key == "train.seed":
            raise UsageError("train.seed is the --seeds axis; it cannot be set")
        if key in sets:
            raise UsageError(f"config key {key!r} is set twice")
        sets[key] = _json_or_word(text)
        _check_config_type(key, sets[key])
    return {**_DEFAULTS, **_load_config_file(getattr(args, "config", None)), **sets}


def _build_configs(cfg: dict) -> tuple[CrossFiTConfig, TrainConfig, float]:
    """Dotted-key dict -> validated config objects.

    A key names its config section and field, but for the keys `_RENAMED`
    gives another. Consistency rules (width divisible by heads and by 4,
    threshold range, stride arithmetic) are all enforced here, before any
    data is touched."""
    model = {"encoder": {}, "cfa": {}}
    sections = {**model, "model": model, "train": {}, "data": {}}
    for key, value in cfg.items():
        section, name = _RENAMED.get(key, key).split(".")
        sections[section][name] = value
    try:
        model_cfg = config_from_dict(CrossFiTConfig, model)
        train_cfg = config_from_dict(TrainConfig, sections["train"])
    except ContractError as err:
        raise UsageError(f"inconsistent configuration: {err}") from None
    frac = cfg["data.train_frac"]
    if not 0.0 < frac < 1.0:
        raise UsageError(f"data.train_frac {frac} outside (0,1)")
    return model_cfg, train_cfg, frac


def _load_dataset(path: str, model_cfg: CrossFiTConfig) -> sd.ArrayDataset:
    """The dataset at `path`, refused when a grade has no class in the model
    or the images are not the encoder's size."""
    data = sd.load_dataset(path, num_classes=model_cfg.num_classes)
    h, w = data.images1.shape[1:3]
    size = model_cfg.encoder.input_size
    if h != size or w != size:
        raise UsageError(f"dataset images are {w}x{h} but the encoder "
                         f"expects {size}x{size}")
    return data


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


def _check_out_file(flag: str, path: str) -> None:
    """Refuse, before any work, a file the OS would not let us write."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "is a directory"
    elif not os.path.isdir(parent):
        problem = f"is in no directory: {parent} is missing or a file"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = "is not writable"
    else:
        return
    raise UsageError(f"{flag} {path} {problem}")


def _check_out_dir(flag: str, path: str) -> None:
    """Refuse, before any work, a directory the OS would not let us make or
    fill: its nearest existing ancestor (or itself) must be a writable one."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise UsageError(f"{flag} {path}: {head} is not a directory")
    if not os.access(head, os.W_OK):
        raise UsageError(f"{flag} {path}: {head} is not writable")


def _read_model(path: str):
    """The checkpoint at `path` and the float32 model it holds."""
    try:
        ckpt = load_checkpoint(path)
    except OSError as err:
        raise UsageError(f"checkpoint {path}: {err.strerror}") from None
    with ad.default_dtype_scope(np.float32):
        return ckpt, build_model_from_checkpoint(ckpt)


def _fit(model_cfg: CrossFiTConfig, train_cfg: TrainConfig, train_set, on_epoch=None):
    """A float32 model of `model_cfg` trained on `train_set` from
    train.seed: (model, checkpoint). Raises TrainingDiverged as `train` does."""
    with ad.default_dtype_scope(np.float32):
        model = CrossFiTModel(ad.make_rng(train_cfg.seed), model_cfg)
    ckpt, _losses = train(model, train_set, train_cfg, on_epoch=on_epoch)
    return model, ckpt


def _score(model: CrossFiTModel, data: sd.ArrayDataset) -> tuple[dict, list]:
    """`model`'s metrics on `data` with `split_acc`, its accuracy on the
    split-evidence eyes (None without any); and a notice for each class
    whose AUC is undefined."""
    grades, probs = predict_dataset(model, data)
    m = metrics_from_predictions(data.grades, grades, probs, model.cfg.num_classes)
    hits = (grades == data.grades)[data.split_evidence]
    split_acc = float(hits.mean()) if hits.size else None
    notices = [f"class {c} absent or universal in eval split; its AUC is "
               f"undefined and excluded from the macro mean"
               for c, auc in enumerate(m.per_class_auc) if auc is None]
    return {**m.to_dict(), "split_acc": split_acc}, notices


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    for flag, rate in (("--split-evidence-rate", args.split_evidence_rate),
                       ("--artifact-rate", args.artifact_rate)):
        if not 0.0 <= rate <= 1.0:
            raise UsageError(f"{flag} {rate} outside [0, 1]")
    if args.size < sd.MIN_SIZE:
        raise UsageError(f"--size {args.size} below {sd.MIN_SIZE}, the smallest "
                         "field the generator can place lesions in")
    cfg = sd.GenConfig(size=args.size, split_rate=args.split_evidence_rate,
                       artifact_rate=args.artifact_rate)
    out = args.out
    if os.path.isdir(out) and os.listdir(out):
        if not args.force:
            raise UsageError(f"{out} exists and is not empty (use --force to replace)")
        try:
            shutil.rmtree(out)
        except OSError as err:
            raise UsageError(f"--out {out}: cannot replace it: {err}") from None
    _check_out_dir("--out", out)
    samples = sd.generate_dataset(args.seed, args.n, cfg)
    sd.write_dataset(samples, out)
    summary = {"out": out, "n": args.n, "seed": args.seed, "size": args.size}
    summary.update(sd.grade_histogram(samples))
    _emit(summary)
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    model_cfg, train_cfg, frac = _build_configs(cfg)
    log_path = args.out + ".log.json"
    for path in (args.out, log_path):
        _check_out_file("--out", path)
    train_set, _ = _split(_load_dataset(args.data, model_cfg), frac)

    t0 = time.time()
    epoch_log = []

    def on_epoch(epoch: int, loss: float) -> None:
        entry = {"epoch": epoch, "loss": loss, "elapsed_s": time.time() - t0}
        epoch_log.append(entry)
        _emit(entry)

    _, ckpt = _fit(model_cfg, train_cfg, train_set, on_epoch)
    ckpt.config["data"] = {"train_frac": frac}
    save_checkpoint(ckpt, args.out)
    with open(log_path, "w", encoding="utf-8") as fh:
        json.dump(_g6({"config": cfg, "epochs": epoch_log}), fh, indent=1)
    _emit({"checkpoint": args.out, "log": log_path,
           "final_loss": epoch_log[-1]["loss"] if epoch_log else None,
           "train_eyes": len(train_set)})
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    _check_out_file("--report", args.report)
    ckpt, model = _read_model(args.ckpt)
    data = _load_dataset(args.data, model.cfg)
    if args.subset != "all":  # split as `train` did, by the fraction it recorded
        section = ckpt.config.get("data")
        frac = section.get("train_frac") if isinstance(section, dict) else None
        if frac is None:
            raise CheckpointError(f"checkpoint {args.ckpt} records no config.data.train_frac "
                                  f"(older checkpoints lack it); --subset all needs none")
        if not (isinstance(frac, float) and 0.0 < frac < 1.0):
            raise CheckpointError(f"checkpoint {args.ckpt}: config.data.train_frac "
                                  f"{json.dumps(frac)} is not a number in (0, 1)")
        train_part, test_part = _split(data, frac)
        data = train_part if args.subset == "train" else test_part
    scores, notices = _score(model, data)
    for text in notices:
        print(f"warning: {text}", file=sys.stderr)
    report = {**scores, "subset": args.subset, "data": args.data}
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
    """One (grid point, seed) cell, run in a worker process on one BLAS
    thread. It returns its metrics' warnings as `notices`; a cell whose
    training diverged has null metrics and says why."""
    data_dir, base_cfg, point, seed = payload
    model_cfg, train_cfg, frac = _build_configs({**base_cfg, **point, "train.seed": seed})
    train_set, test_set = _split(_load_dataset(data_dir, model_cfg), frac)
    with _one_blas_thread():
        try:
            model, _ = _fit(model_cfg, train_cfg, train_set)
        except TrainingDiverged as err:
            return {"seed": seed, **dict.fromkeys(_METRICS), "diverged": str(err)}
        scores, notices = _score(model, test_set)
    return {"seed": seed, **{k: scores[k] for k in _METRICS}, "notices": notices}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


def _run_cells(payloads: list, workers: int) -> list:
    """Each cell in one of `workers` spawned processes."""
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        return pool.map(_train_eval_cell, payloads, chunksize=1)


def _comma_list(flag: str, text: str, parse=str) -> list:
    """The distinct items of a comma-separated flag value, each read by `parse`.
    A comma inside brackets stays in its item: "[8,16],[24]" is two items."""
    items = [item.strip() for item in re.split(r",(?![^\[]*\])", text)]
    try:
        values = [parse(item) for item in items if item]
    except ValueError:
        raise UsageError(f"bad {flag} {text!r}") from None
    if not values:
        raise UsageError(f"{flag} is empty")
    if any(v in values[:i] for i, v in enumerate(values)):
        raise UsageError(f"{flag} {text!r} repeats a value")
    return values


def _grid_axes(specs: list) -> dict[str, list]:
    """Key -> typed values for each KEY=V1,V2 spec, in flag order."""
    axes = {}
    for spec in specs:
        key, sep, text = spec.partition("=")
        if not sep:
            raise UsageError(f"bad --vary {spec!r}; expected KEY=V1,V2")
        if key == "train.seed":
            raise UsageError("train.seed is the --seeds axis; it cannot be varied")
        if key in axes:
            raise UsageError(f"config key {key!r} is varied twice; --strategies "
                             f"varies model.strategy")
        values = _comma_list(f"--vary {key}", text, _json_or_word)
        for v in values:
            _check_config_type(key, v)
        axes[key] = values
    return axes


_METRICS = ("kappa", "accuracy", "macro_auc", "split_acc")


def _mean(vals):
    vals = [v for v in vals if v is not None]
    return float(np.mean(vals)) if vals else None


def _print_table(rows: list) -> None:
    """Rows as a table: the strategy, each varied key, then each metric,
    --- where a metric is undefined."""
    def text(v):
        return v if isinstance(v, str) else json.dumps(v)

    widths = {k: 2 + max(len(k), *(len(text(r[k])) for r in rows))
              for k in rows[0] if k not in ("strategy", *_METRICS)}
    keys = "".join(f"{k:>{w}}" for k, w in widths.items())
    print(f"{'strategy':<16}{keys}{'kappa':>10}{'acc':>10}{'macro-auc':>12}{'split-acc':>12}")
    for r in rows:
        vals = "".join(f"{text(r[k]):>{w}}" for k, w in widths.items())
        kappa, acc, auc, split = ("---" if r[k] is None else f"{r[k]:.4f}"
                                  for k in _METRICS)
        print(f"{r['strategy']:<16}{vals}{kappa:>10}{acc:>10}{auc:>12}{split:>12}")


def cmd_compare(args) -> int:
    seeds = _comma_list("--seeds", args.seeds, int)
    base = _merged_config(args, seed_axis=True)
    axes = _grid_axes(args.axes or [])
    points = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]
    for point, seed in itertools.product(points, seeds):  # all valid before any trains
        _build_configs({**base, **point, "train.seed": seed})
    _check_out_file("--report", args.report)
    labels = [{"strategy": p.get("model.strategy", base["model.strategy"]),
               **{k: v for k, v in p.items() if k != "model.strategy"}} for p in points]

    n = len(seeds)
    payloads = [(args.data, base, p, seed) for p in points for seed in seeds]
    workers = min(_usable_cpus(), len(payloads))
    cells = _run_cells(payloads, workers)
    for text in dict.fromkeys(t for c in cells for t in c.pop("notices", [])):
        print(f"warning: {text}", file=sys.stderr)
    cells = [{**labels[i // n], **c} for i, c in enumerate(cells)]
    rows = [{**label, **{k: _mean(c[k] for c in cells[i * n:(i + 1) * n]) for k in _METRICS}}
            for i, label in enumerate(labels)]
    table = {"seeds": seeds, "workers": workers, "rows": rows, "cells": cells}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(_g6(table), fh, indent=1)
    _print_table(rows)
    _emit({"report": args.report, "rows": rows})
    diverged = sum("diverged" in c for c in cells)
    if diverged:
        raise TrainingDiverged(f"{diverged} of {len(cells)} cells; {args.report} gives "
                               f"each one's cause, and its rows average the others")
    return 0


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    _check_out_dir("--out", args.out)
    _, model = _read_model(args.ckpt)
    if model.cfg.strategy != "crossfit":
        raise UsageError(f"attention inspection needs the crossfit strategy; "
                         f"checkpoint was trained with {model.cfg.strategy!r}")
    data = _load_dataset(args.data, model.cfg)
    hits = np.flatnonzero(data.eye_ids == args.eye)
    if hits.size == 0:
        raise UsageError(f"eye {args.eye} not in manifest at {args.data}")
    i = int(hits[0])

    def forward():
        with ad.no_grad():  # no backward follows; the attention record is a copy
            out, extras = model.forward_batch(
                data.images1[i:i + 1], data.images2[i:i + 1],
                data.od1[i:i + 1], data.od2[i:i + 1], record=True)
        return out.data, extras

    logits, extras = finite_outputs(forward)
    os.makedirs(args.out, exist_ok=True)
    attn_paths = export_attention_record(extras["attention"], args.out)

    mask_paths = []
    for field, m in enumerate(extras["masks"], 1):
        path = os.path.join(args.out, f"mask_field{field}.json")
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

    pred = int(np.argmax(logits[0]))
    _emit({"eye": args.eye, "grade": int(data.grades[i]), "predicted": pred,
           "attention_files": attn_paths, "mask_files": mask_paths,
           "grid_file": grid_path, "heatmap": heat_path})
    return 0


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
    gen = sd.GenConfig()
    g.add_argument("--size", type=int, default=gen.size)
    g.add_argument("--split-evidence-rate", type=float, default=gen.split_rate)
    g.add_argument("--artifact-rate", type=float, default=gen.artifact_rate)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train one model")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--report", required=True)
    e.add_argument("--subset", choices=["all", "train", "test"], default="all")
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("compare", help="train and evaluate a grid of configs, per seed")
    c.add_argument("--data", required=True)
    c.add_argument("--strategies", dest="axes", action="append", metavar="S1,S2",
                   type="model.strategy={}".format,
                   help="the model.strategy axis (default: the config's strategy)")
    c.add_argument("--vary", dest="axes", action="append", metavar="KEY=V1,V2",
                   help="an axis over any other config key; each value is JSON "
                        "or a bare word; repeatable, the grid is their product")
    c.add_argument("--seeds", default="1,2,3", help="the seed axis")
    c.add_argument("--report", required=True)
    c.set_defaults(fn=cmd_compare)
    for p in (t, c):
        p.add_argument("--config")
        p.add_argument("--set", dest="sets", action="append", metavar="KEY=VALUE",
                       help="a config key's value, over the --config file's; repeatable")

    i = sub.add_parser("inspect", help="dump masks, grids, attention for one eye")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--data", required=True)
    i.add_argument("--eye", type=int, required=True)
    i.add_argument("--out", required=True)
    i.set_defaults(fn=cmd_inspect)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.fn(args)
    except (UsageError, sd.DataError, CheckpointError, NonFiniteOutputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
