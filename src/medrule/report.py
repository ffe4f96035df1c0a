"""Batch pipeline: config parsing, end-to-end run, JSON/CSV artifacts.

The run config is a single JSON document; the pipeline is deterministic given
(config, seed) and emits a JSON report (timestamp aside), CSV audit files and
an SVG forest plot into the output directory.
"""
from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .crossfit import make_plan
from .data import ColumnSchema, Dataset, read_csv, validate_dataset, write_csv
from .effects import constant_rule, effect_table, estimated_rule
from .eif import NuisanceConfig, fit_nuisances, pseudo_contrast
from .errors import ConfigError, MedruleError
from .learners import DEFAULT_STACK, make_learner
from .plot import render_forest_plot
from .subgroup import assign_subgroup, fit_blip, subgroup_summary

BLIP_METHODS = ("stack", "adaptive-lasso")


@dataclass(frozen=True)
class RunConfig:
    data: str
    schema: ColumnSchema
    folds: int = 5
    seed: int = 1
    stack: tuple[str, ...] = DEFAULT_STACK
    blip_methods: tuple[str, ...] = BLIP_METHODS
    epsilon: float = 0.01
    output_dir: str = "medrule-out"
    z_value: float = 1.96

    def __post_init__(self):
        object.__setattr__(self, "stack", tuple(self.stack))
        object.__setattr__(self, "blip_methods", tuple(self.blip_methods))
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if not 0.0 < self.epsilon <= 0.2:
            raise ConfigError("epsilon must lie in (0, 0.2]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0.0 < self.z_value < math.inf:
            raise ConfigError("z_value must be a finite number > 0")
        if not self.stack:
            raise ConfigError("the learner stack cannot be empty")
        for name in self.stack:
            try:
                make_learner(name)
            except ValueError as exc:
                raise ConfigError(f"stack: {exc}") from None
        unknown = set(self.blip_methods) - set(BLIP_METHODS)
        if unknown:
            raise ConfigError(f"unknown blip methods: {sorted(unknown)}")


def _list(key: str, value) -> tuple:
    """A list-valued key's value; a string would otherwise split into characters."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a JSON list, got {value!r}")
    return tuple(value)


def _whole(key: str, value) -> int:
    """An integer-valued key's value; whole floats such as 5.0 are accepted."""
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and float(value).is_integer()):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    """A real-valued key's value; neither true/false nor a numeric string is one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _string(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a JSON string, got {value!r}")
    return value


def _levels(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return {name: _list(f"{key}.{name}", levels) for name, levels in value.items()}


# The run config's keys (README) and how each is read. A key the config omits
# takes its RunConfig or ColumnSchema default; None marks the two keys that
# RunConfig does not take: "roles" builds the schema, and "threads" is
# accepted from older configs and ignored.
CONFIG_KEYS = {"data": _string, "roles": None, "folds": _whole, "seed": _whole,
               "stack": _list, "blip_methods": _list, "epsilon": _number,
               "output_dir": _string, "z_value": _number, "threads": None}
ROLE_KEYS = {"baseline": _list, "rule_covariates": _list, "treatment": _string,
             "post_treatment": _string, "mediators": _list, "outcome": _string,
             "weight": lambda key, value: value if value is None else _string(key, value),
             "outcome_range": lambda key, value: tuple(_number(key, v) for v in _list(key, value)),
             "categorical_levels": _levels}


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run config (see README for the layout)."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        roles = doc["roles"]
        if not isinstance(roles, dict):
            raise ConfigError(f"roles must be a JSON object, got {roles!r}")
        unknown = [k for k in doc if k not in CONFIG_KEYS]
        unknown += [f"roles.{k}" for k in roles if k not in ROLE_KEYS]
        if unknown:
            raise ConfigError(f"unknown run config keys: {', '.join(unknown)}")
        schema = ColumnSchema(**{k: ROLE_KEYS[k](f"roles.{k}", v) for k, v in roles.items()})
        return RunConfig(schema=schema, **{k: CONFIG_KEYS[k](k, v) for k, v in doc.items()
                                           if CONFIG_KEYS[k]})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad run config: {exc}") from exc


class PipelineError(MedruleError):
    def __init__(self, stage: str, error: Exception):
        super().__init__(f"[{stage}] {error}")
        self.stage = stage
        self.error = error


@contextmanager
def _stage(name: str):
    try:
        yield
    except (MedruleError, OSError) as exc:
        raise PipelineError(name, exc) from exc


def run_pipeline(config: RunConfig, write: bool = True) -> dict:
    """Ingest, cross-fit, estimate and report; returns the report dict.

    Deterministic given (config, seed): rerunning yields byte-identical JSON
    apart from the timestamp field.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        with _stage("ingest"):
            dataset = validate_dataset(read_csv(config.data), config.schema)
        with _stage("crossfit"):
            plan = make_plan(dataset.n, config.folds, config.seed)
        with _stage("nuisances"):
            nuis_config = NuisanceConfig(stack=config.stack, epsilon=config.epsilon,
                                         seed=config.seed)
            fits = fit_nuisances(dataset, plan, nuis_config)
        with _stage("pseudo-outcomes"):
            pseudo = pseudo_contrast(dataset, fits)

        subgroups, assignments = {}, {}
        with _stage("subgroup"):
            for method in config.blip_methods:
                blip = fit_blip(pseudo, dataset, plan, method=method,
                                stack=config.stack, seed=config.seed)
                assignments[method] = assign_subgroup(blip, dataset)
                subgroups[method] = subgroup_summary(assignments[method], dataset)

        with _stage("effects"):
            rules = [constant_rule(1, "no-individualization")]
            rules += [estimated_rule(assignments[m], m) for m in config.blip_methods]
            table = effect_table(dataset, pseudo, rules, z_value=config.z_value)

    report = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "provenance": {
            "data": str(config.data), "seed": config.seed, "folds": config.folds,
            "stack": list(config.stack), "blip_methods": list(config.blip_methods),
            "epsilon": config.epsilon, "z_value": config.z_value,
        },
        "dataset": dataset.summary(),
        "diagnostics": {
            "clip_fractions": {k: float(v) for k, v in fits.clip_fractions.items()},
            "shift_weight_range": {
                f"{ap},{st}": {"min": float(h.min()), "max": float(h.max())}
                for (ap, st), h in sorted(pseudo.h.items())
            },
            "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
        },
        "subgroups": subgroups,
        "effects": [est.to_dict() for est in table],
    }

    if write:
        write_artifacts(report, dataset, fits, pseudo, assignments, Path(config.output_dir))
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_artifacts(report, dataset: Dataset, fits, pseudo, assignments,
                    outdir: Path) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(report_json(report))
    effects_doc = report["effects"]
    (outdir / "effects.json").write_text(
        json.dumps(effects_doc, indent=2, sort_keys=True) + "\n")

    rows = np.arange(dataset.n)
    write_csv(outdir / "fold_assignment.csv",
              {"row": rows, "fold": fits.plan.assignment})
    write_csv(outdir / "pseudo_outcomes.csv",
              {"row": rows, "fold": pseudo.fold, "d11": pseudo[1, 1],
               "d10": pseudo[1, 0], "d": pseudo.values})
    for method, asg in assignments.items():
        write_csv(outdir / f"subgroup_{method.replace('-', '_')}.csv",
                  {"row": rows, "blip": asg.blip, "harm": asg.harm,
                   "rule": asg.rule,
                   "provenance": [asg.provenance] * dataset.n})
    write_csv(outdir / "effects.csv",
              {k: [est[k] for est in effects_doc]
               for k in ("contrast", "rule", "estimate", "se",
                         "ci_low", "ci_high", "n", "folds")})
    (outdir / "forest.svg").write_text(render_forest_plot(effects_doc))
