"""Command-line entry point.

Subcommands: ``run`` (full pipeline from a JSON config), ``simulate`` (draw a
sample from a DGP specification file), ``oracle`` (print exact blips and
population effects), ``plot`` (forest plot from an effects.json).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import oracle
from .data import write_csv
from .eif import CONTRAST_PAIRS
from .errors import MedruleError
from .plot import render_forest_plot
from .report import PipelineError, load_config, run_pipeline


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (MedruleError, OSError, json.JSONDecodeError) as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_pipeline(config)
    except PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    n_effects = len(report["effects"])
    print(f"report written to {config.output_dir} "
          f"(n={report['dataset']['n']}, {n_effects} effect estimates)")
    for warning in report["diagnostics"]["warnings"]:
        print(f"warning: {warning}")
    return 0


def _load_dgp(path) -> oracle.DiscreteDGP:
    return oracle.from_json(Path(path).read_text())


def _cmd_simulate(args) -> int:
    try:
        dgp = _load_dgp(args.dgp)
        dataset = oracle.simulate(dgp, args.n, args.seed)
    except (MedruleError, OSError, ValueError, KeyError) as exc:
        print(f"error [simulate]: {exc}", file=sys.stderr)
        return 1
    columns = {name: dataset.column(name) for name in dataset.schema.all_columns}
    write_csv(args.out, columns)
    print(f"wrote {dataset.n} rows to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    try:
        dgp = _load_dgp(args.dgp)
        blips = {str(v): oracle.true_blip(dgp, v) for v in dgp.v_support}
        rule = oracle.sign_rule(dgp)
        doc = {
            "blips": blips,
            "sign_rule": {str(v): d for v, d in rule.items()},
            "effects": {
                "rule=0": vars(oracle.true_population_effects(dgp, lambda v: 0)),
                "rule=1": vars(oracle.true_population_effects(dgp, lambda v: 1)),
                "sign-rule": vars(oracle.true_population_effects(dgp, rule)),
            },
            "positivity_margin": {
                f"{ap},{st}": oracle.positivity_margin(dgp, ap, st)
                for ap, st in CONTRAST_PAIRS
            },
        }
    except (MedruleError, OSError, ValueError, KeyError) as exc:
        print(f"error [oracle]: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_plot(args) -> int:
    try:
        estimates = json.loads(Path(args.effects).read_text())
        svg = render_forest_plot(estimates)
    except (MedruleError, OSError, ValueError, KeyError) as exc:
        print(f"error [plot]: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medrule",
        description="Harm-subgroup discovery and interventional effect "
                    "estimation for mediated treatments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline from a JSON config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="sample a CSV from a DGP JSON file")
    p_sim.add_argument("dgp")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_orc = sub.add_parser("oracle", help="print exact blips and effects for a DGP")
    p_orc.add_argument("dgp")
    p_orc.set_defaults(func=_cmd_oracle)

    p_plot = sub.add_parser("plot", help="render a forest plot from effects.json")
    p_plot.add_argument("effects")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
