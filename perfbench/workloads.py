"""The benchmark's workloads: model configs on top of the CLI default recipe.

Every workload generates its own eyes with the `gen-data` defaults from the
run's seed, trains with the CLI's default training recipe under its float32
scope, and evaluates on the held-out split. Only the model config differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from crossfit import cli


@dataclass(frozen=True)
class Workload:
    name: str
    eyes: int                  # generated eyes; the CLI's train fraction splits them
    overrides: dict = field(default_factory=dict)   # dotted CLI config keys


# Why each workload exists is written next to its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("crossfit_default", eyes=160),
    Workload("feat_max_default", eyes=160, overrides={"model.strategy": "feat_max"}),
)}


def cli_config(workload: Workload) -> dict:
    """The workload's dotted-key config: CLI defaults plus its overrides."""
    cfg = dict(cli._DEFAULTS)
    cfg.update(workload.overrides)
    return cfg


def build_configs(workload: Workload):
    """(model config, train config, train fraction), validated as the CLI does."""
    return cli._build_configs(cli_config(workload))
