import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medrule import oracle, render_forest_plot
from medrule.cli import main
from medrule.data import read_csv, write_csv
from medrule.dgps import crossover_dgp, rich_support_dgp
from medrule.errors import ConfigError, EmptyTable
from medrule.learners import SATURATED_MAX_LEVELS
from medrule.report import load_config, run_pipeline

DATA_DIR = Path(__file__).parent / "data"


def write_run_inputs(tmp_path, n=2000, sim_seed=11, run_seed=2,
                     stack=("mean", "glm", "glm_sat"), dgp=None, **overrides):
    ds = oracle.simulate(dgp or crossover_dgp(), n, seed=sim_seed)
    schema = ds.schema
    data_path = tmp_path / "data.csv"
    write_csv(data_path, {name: ds.column(name) for name in schema.all_columns})
    config = {
        "data": str(data_path),
        "roles": {"baseline": list(schema.baseline),
                  "rule_covariates": list(schema.rule_covariates),
                  "treatment": schema.treatment, "post_treatment": schema.post_treatment,
                  "mediators": list(schema.mediators), "outcome": schema.outcome},
        "folds": 5, "seed": run_seed, "stack": list(stack),
        "blip_methods": ["stack", "adaptive-lasso"],
        "epsilon": 0.01, "output_dir": str(tmp_path / "out"), "threads": 1,
    }
    config.update(overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def strip_timestamp(report_text: str) -> str:
    doc = json.loads(report_text)
    doc.pop("timestamp")
    return json.dumps(doc, sort_keys=True)


def test_pipeline_rerun_byte_identical(tmp_path):
    config = load_config(write_run_inputs(tmp_path, n=1200))
    from medrule.report import report_json
    r1 = report_json(run_pipeline(config, write=False))
    r2 = report_json(run_pipeline(config, write=False))
    assert strip_timestamp(r1) == strip_timestamp(r2)


def test_config_with_single_fold_fails_before_any_computation(tmp_path):
    # points at a nonexistent data file: the error must come from validation
    config = {
        "data": str(tmp_path / "never_created.csv"),
        "roles": {"baseline": ["w"], "rule_covariates": ["w"], "treatment": "A",
                  "post_treatment": "Z", "mediators": ["m"], "outcome": "Y"},
        "folds": 1,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match="folds"):
        load_config(path)


def test_bad_epsilon_rejected(tmp_path):
    path = write_run_inputs(tmp_path, n=50, epsilon=0.5)
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(path)


def test_effect_table_matches_committed_golden(tmp_path):
    """Pins the n=20000 effect table against tests/data/golden_effects.json.

    Row count and order, each row's key set, and the ``arms``, ``contrast``,
    ``rule``, ``n`` and ``folds`` fields must match exactly; ``estimate``,
    ``se``, ``ci_low`` and ``ci_high`` must match to within 1e-12 absolute.
    The nuisance learners go through BLAS/LAPACK (IRLS normal equations,
    ``eigvalsh``, the stacking QP), so the last digits depend on the BLAS
    build and CPU kernel: switching OpenBLAS core types on one host moved
    every float field by up to 7.3e-15. 1e-12 clears that drift and is still
    about 1e9 below the smallest SE in the table, so any change to a learner,
    weight or fold fails. Byte-identical output within one machine is checked
    by test_pipeline_rerun_byte_identical and acceptance criterion 8.

    Regenerate with: python tests/data/regen_golden.py (writes
    tests/data/golden_effects.json from a fresh n=20000 run).
    """
    config_path = write_run_inputs(tmp_path, n=20000, sim_seed=11, run_seed=2)
    run_pipeline(load_config(config_path))
    produced = json.loads((tmp_path / "out" / "effects.json").read_text())
    golden = json.loads((DATA_DIR / "golden_effects.json").read_text())
    assert len(produced) == len(golden)
    for i, (got, want) in enumerate(zip(produced, golden)):
        assert set(got) == set(want), f"row {i} keys"
        for key, expected in want.items():
            actual = got[key]
            if key in ("estimate", "se", "ci_low", "ci_high"):
                assert abs(actual - expected) <= 1e-12, (
                    f"row {i} {key}: {actual!r} vs golden {expected!r}")
            else:
                assert (type(actual), actual) == (type(expected), expected), (
                    f"row {i} {key}: {actual!r} vs golden {expected!r}")


def test_artifacts_written(tmp_path):
    config_path = write_run_inputs(tmp_path, n=800, stack=("glm_sat",))
    report = run_pipeline(load_config(config_path))
    out = tmp_path / "out"
    expected = ["report.json", "effects.json", "effects.csv",
                "fold_assignment.csv", "pseudo_outcomes.csv",
                "subgroup_stack.csv", "subgroup_adaptive_lasso.csv",
                "forest.svg"]
    for name in expected:
        assert (out / name).exists(), name
    saved = json.loads((out / "report.json").read_text())
    assert strip_timestamp(json.dumps(saved)) == strip_timestamp(json.dumps(report))
    # audit CSVs carry one row per observation
    folds = (out / "fold_assignment.csv").read_text().strip().splitlines()
    assert len(folds) == 801 and folds[0] == "row,fold"
    pseudo = (out / "pseudo_outcomes.csv").read_text().strip().splitlines()
    assert pseudo[0] == "row,fold,d11,d10,d"
    assert len(pseudo) == 801


def test_report_contents(tmp_path):
    config_path = write_run_inputs(tmp_path, n=800, stack=("glm_sat",))
    report = run_pipeline(load_config(config_path), write=False)
    assert report["dataset"]["n"] == 800
    assert set(report["subgroups"]) == {"stack", "adaptive-lasso"}
    assert "rule" in report["subgroups"]["adaptive-lasso"]
    assert {e["rule"] for e in report["effects"]} == {
        "no-individualization", "stack", "adaptive-lasso"}
    diag = report["diagnostics"]
    assert set(diag["shift_weight_range"]) == {"0,0", "1,0", "1,1"}
    assert all(0 <= v <= 1 for v in diag["clip_fractions"].values())


# ---------------------------------------------------------------------------
# forest plot

def example_rows():
    # report-format illustration mirroring a published three-rule figure;
    # the numbers are layout inputs, not estimation targets
    rows = []
    for rule, (ind, ind_l, ind_h, tot, tot_l, tot_h) in {
        "no-individualization": (0.0432, -0.1009, 0.1873, -0.0683, -0.2882, 0.1053),
        "superlearner": (0.0004, -0.0690, 0.0698, -0.0224, -0.1500, 0.1053),
        "lasso": (0.0108, -0.0532, 0.0748, -0.0305, -0.1620, 0.1010),
    }.items():
        rows.append({"contrast": "piie", "rule": rule, "estimate": ind,
                     "se": 0.0, "ci_low": ind_l, "ci_high": ind_h,
                     "n": 2100, "folds": 5})
        rows.append({"contrast": "pite", "rule": rule, "estimate": tot,
                     "se": 0.0, "ci_low": tot_l, "ci_high": tot_h,
                     "n": 2100, "folds": 5})
    return rows


def test_forest_plot_six_rows():
    svg = render_forest_plot(example_rows())
    assert svg.count("<circle") == 6
    assert svg.count("stroke-dasharray") == 1  # one zero reference line
    for label in ("no-individualization: piie", "superlearner: pite"):
        assert label in svg


def test_forest_plot_zero_width_whisker():
    row = {"contrast": "piie", "rule": "r", "estimate": 0.1, "se": 0.0,
           "ci_low": 0.1, "ci_high": 0.1, "n": 10, "folds": 2}
    svg = render_forest_plot([row])
    assert svg.count("<circle") == 1
    # whisker endpoints coincide with the point marker
    import re
    xs = re.findall(r'x1="([0-9.]+)" y1="[0-9.]+" x2="([0-9.]+)"', svg)
    whisker = [x for x in xs if x[0] == x[1]]
    assert whisker  # degenerate interval renders as a zero-width whisker


def test_forest_plot_zero_line_inside_straddling_interval():
    import re
    row = {"contrast": "piie", "rule": "r", "estimate": 0.02, "se": 0.05,
           "ci_low": -0.078, "ci_high": 0.118, "n": 10, "folds": 2}
    svg = render_forest_plot([row])
    zero_x = float(re.search(r'<line x1="([0-9.]+)".*stroke-dasharray', svg).group(1))
    m = re.search(r'<line x1="([0-9.]+)" y1="([0-9.]+)" x2="([0-9.]+)" y2="\2" '
                  r'stroke="#1f3b66"', svg)
    lo_x, hi_x = float(m.group(1)), float(m.group(3))
    assert lo_x < zero_x < hi_x


def test_forest_plot_empty_table():
    with pytest.raises(EmptyTable):
        render_forest_plot([])


# ---------------------------------------------------------------------------
# CLI

def test_cli_simulate_oracle_run_plot(tmp_path, capsys):
    dgp_path = tmp_path / "dgp.json"
    dgp_path.write_text(oracle.to_json(crossover_dgp()))

    data_path = tmp_path / "sim.csv"
    assert main(["simulate", str(dgp_path), "--n", "900", "--seed", "4",
                 "--out", str(data_path)]) == 0
    assert len(data_path.read_text().strip().splitlines()) == 901
    capsys.readouterr()

    assert main(["oracle", str(dgp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["effects"]) == {"rule=0", "rule=1", "sign-rule"}
    assert doc["blips"]["(0.0,)"] > 0 > doc["blips"]["(1.0,)"]

    config = {
        "data": str(data_path),
        "roles": {"baseline": ["w"], "rule_covariates": ["w"], "treatment": "A",
                  "post_treatment": "Z", "mediators": ["m"], "outcome": "Y"},
        "folds": 5, "seed": 3, "stack": ["glm_sat"],
        "blip_methods": ["stack"], "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()

    svg_path = tmp_path / "plot.svg"
    assert main(["plot", str(tmp_path / "out" / "effects.json"),
                 "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")


def test_cli_rejects_bad_config(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({
        "data": "nope.csv",
        "roles": {"baseline": ["w"], "rule_covariates": ["w"], "treatment": "A",
                  "post_treatment": "Z", "mediators": ["m"], "outcome": "Y"},
        "folds": 1}))
    assert main(["run", str(config_path)]) == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("stack", ["mean", "glmm"]),
    ("seed", -3),
    ("z_value", float("nan")),
    ("z_value", -1.96),
])
def test_cli_rejects_bad_config_values(tmp_path, capsys, field, value):
    config_path = write_run_inputs(tmp_path, n=50, **{field: value})
    assert main(["run", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [config]") and field in err
    assert "Traceback" not in err


def test_legacy_threads_key_is_ignored(tmp_path):
    with_key = load_config(write_run_inputs(tmp_path, n=50, threads=8))
    without = json.loads((tmp_path / "config.json").read_text())
    del without["threads"]
    (tmp_path / "config.json").write_text(json.dumps(without))
    assert with_key == load_config(tmp_path / "config.json")


@pytest.mark.parametrize("top, roles, key", [
    ({"z_vaule": 2.58}, {}, "z_vaule"),
    ({}, {"weigth": "sw"}, "roles.weigth"),
])
def test_misspelt_config_key_rejected(tmp_path, top, roles, key):
    doc = json.loads(write_run_inputs(tmp_path, n=50, **top).read_text())
    doc["roles"].update(roles)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=key):
        load_config(tmp_path / "config.json")


@pytest.mark.parametrize("top, roles, key", [
    ({}, {"baseline": "w"}, "roles.baseline"),
    ({}, {"rule_covariates": "w"}, "roles.rule_covariates"),
    ({}, {"mediators": "m"}, "roles.mediators"),
    ({}, {"outcome_range": "01"}, "roles.outcome_range"),
    ({"stack": "glm"}, {}, "stack"),
    ({"blip_methods": "stack"}, {}, "blip_methods"),
    ({"folds": 2.7}, {}, "folds"),
    ({"seed": 1.9}, {}, "seed"),
    ({"seed": "2"}, {}, "seed"),
    ({"seed": True}, {}, "seed"),
    ({}, {"treatment": ["A"]}, "roles.treatment"),
    ({}, {"post_treatment": ["Z"]}, "roles.post_treatment"),
    ({}, {"outcome": ["Y"]}, "roles.outcome"),
    ({}, {"weight": ["w"]}, "roles.weight"),
    ({"roles": []}, {}, "roles"),
    ({"data": 7}, {}, "data"),
    ({"output_dir": 5}, {}, "output_dir"),
    ({"z_value": True}, {}, "z_value"),
    ({"epsilon": "0.05"}, {}, "epsilon"),
    ({}, {"categorical_levels": {"m": "012"}}, "roles.categorical_levels.m"),
    ({}, {"categorical_levels": {"m": ["a", "a", "b"]}}, "categorical_levels.m"),
    ({}, {"outcome_range": ["0", True]}, "roles.outcome_range"),
    ({}, {"outcome_range": [0, float("inf")]}, "outcome_range"),
])
def test_wrong_shape_config_value_rejected(tmp_path, top, roles, key):
    doc = json.loads(write_run_inputs(tmp_path, n=50).read_text())
    doc["roles"].update(roles)
    doc.update(top)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"{key} must be"):
        load_config(tmp_path / "config.json")


def test_cli_rejects_list_valued_column_role(tmp_path, capsys):
    config_path = write_run_inputs(tmp_path, n=50)
    doc = json.loads(config_path.read_text())
    doc["roles"]["treatment"] = ["A"]
    config_path.write_text(json.dumps(doc))
    assert main(["run", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [config]") and "roles.treatment must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("roles", []), ("data", 7), ("data", 0),
                                        ("output_dir", 5), ("epsilon", "0.05")])
def test_cli_rejects_wrong_type_config_value(tmp_path, capsys, key, value):
    config_path = write_run_inputs(tmp_path, n=50, **{key: value})
    assert main(["run", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [config]") and f"{key} must be" in err
    assert "Traceback" not in err


def test_whole_float_folds_and_seed_accepted(tmp_path):
    config = load_config(write_run_inputs(tmp_path, n=50, folds=5.0, seed=2.0))
    assert (config.folds, config.seed) == (5, 2)
    assert type(config.folds) is int and type(config.seed) is int


@pytest.mark.parametrize("column", ["Y", "A", "Z", "unlisted"])
def test_cli_rejects_categorical_levels_on_non_features(tmp_path, capsys, column):
    config_path = write_run_inputs(tmp_path, n=50)
    doc = json.loads(config_path.read_text())
    doc["roles"]["categorical_levels"] = {column: ["0", "1"]}
    config_path.write_text(json.dumps(doc))
    assert main(["run", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [config]") and f"['{column}']" in err
    assert "Traceback" not in err


def test_every_documented_config_key_loads(tmp_path):
    roles = {"baseline": ["w"], "rule_covariates": ["w"], "treatment": "A",
             "post_treatment": "Z", "mediators": ["m"], "outcome": "Y",
             "weight": None, "outcome_range": [0, 1], "categorical_levels": {}}
    config = load_config(write_run_inputs(tmp_path, n=50, roles=roles, z_value=2.58))
    assert config.z_value == 2.58 and config.schema.weight is None
    assert config.output_dir == str(tmp_path / "out")


def test_cli_reports_stage_on_pipeline_error(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "data": str(tmp_path / "missing.csv"),
        "roles": {"baseline": ["w"], "rule_covariates": ["w"], "treatment": "A",
                  "post_treatment": "Z", "mediators": ["m"], "outcome": "Y"}}))
    assert main(["run", str(config_path)]) == 1


def test_cli_reports_glm_sat_refusal_of_a_continuous_covariate(tmp_path, capsys):
    config_path = write_run_inputs(tmp_path, n=200, stack=("glm_sat",))
    doc = json.loads(config_path.read_text())
    table = read_csv(doc["data"])
    table["x"] = np.random.default_rng(5).normal(size=200)
    write_csv(doc["data"], table)
    doc["roles"]["baseline"] = ["w", "x"]
    config_path.write_text(json.dumps(doc))
    assert main(["run", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [nuisances] fold 0: glm_sat needs at most "
                          f"{SATURATED_MAX_LEVELS} distinct values per feature")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_artifacts_independent_of_blas_threads(tmp_path):
    """A rich_support run writes the same artifacts at one and at two BLAS
    threads, byte for byte (report.json without its timestamp)."""
    doc = json.loads(write_run_inputs(tmp_path, n=1500, dgp=rich_support_dgp()).read_text())
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        doc["output_dir"] = str(tmp_path / f"out{threads}")
        config_path = tmp_path / f"config{threads}.json"
        config_path.write_text(json.dumps(doc))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "medrule.cli", "run", str(config_path)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(Path(doc["output_dir"]))
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        one, two = ((out / name).read_text() for out in outs)
        if name == "report.json":
            one, two = strip_timestamp(one), strip_timestamp(two)
        assert one == two, name


def test_cli_plot_empty_effects(tmp_path, capsys):
    eff = tmp_path / "effects.json"
    eff.write_text("[]")
    assert main(["plot", str(eff), "--out", str(tmp_path / "x.svg")]) == 1
    assert "plot" in capsys.readouterr().err
