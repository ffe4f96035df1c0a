import numpy as np
import pytest

from medrule import (
    NuisanceConfig,
    assign_subgroup,
    fit_blip,
    fit_nuisances,
    make_plan,
    pseudo_contrast,
    simulate,
    subgroup_summary,
    validate_dataset,
)
from medrule.data import ColumnSchema
from medrule.eif import PseudoOutcomes
from medrule.errors import SchemaMismatch
from medrule.oracle import true_blip


def test_stack_blip_recovers_stratum_values(big_run):
    blip = fit_blip(big_run.pseudo, big_run.dataset, big_run.plan,
                    method="stack", stack=("mean", "glm"), seed=5)
    asg = assign_subgroup(blip, big_run.dataset)
    w = big_run.dataset.column("w")
    for v in (0.0, 1.0):
        assert abs(asg.blip[w == v].mean() - true_blip(big_run.dgp, v)) < 0.05


def test_harm_flags_match_oracle_signs(big_run):
    asg = big_run.stack_assignment
    w = big_run.dataset.column("w")
    oracle_harm = np.where(
        np.array([true_blip(big_run.dgp, v) for v in w]) > 0, 1, 0)
    agreement = float((asg.harm == oracle_harm).mean())
    assert agreement >= 0.95


def test_harm_prevalence_matches_harmful_stratum_share(big_run):
    # the harmful stratum is w=0, which carries half the population
    summary = subgroup_summary(big_run.stack_assignment, big_run.dataset)
    assert abs(summary["harm_prevalence"] - 0.5) < 0.05


def test_flags_are_exact_complements(big_run):
    asg = big_run.stack_assignment
    assert np.array_equal(asg.harm, 1 - asg.rule)


def test_zero_pseudo_outcomes_assign_everyone_non_harmful(big_run):
    zeros = np.zeros(big_run.dataset.n)
    pseudo = PseudoOutcomes(d11=zeros, d10=zeros, values=zeros,
                            fold=big_run.plan.assignment.copy(), h_range={})
    blip = fit_blip(pseudo, big_run.dataset, big_run.plan,
                    method="stack", stack=("mean", "glm"), seed=1)
    asg = assign_subgroup(blip, big_run.dataset)
    assert np.all(asg.blip == 0.0)
    assert np.all(asg.rule == 1) and np.all(asg.harm == 0)


def test_positive_scaling_leaves_flags_unchanged(big_run):
    pseudo = big_run.pseudo
    scaled = PseudoOutcomes(d11=pseudo.d11 * 3.0, d10=pseudo.d10 * 3.0,
                            values=pseudo.values * 3.0,
                            fold=pseudo.fold.copy(), h_range=pseudo.h_range)
    base = assign_subgroup(
        fit_blip(pseudo, big_run.dataset, big_run.plan, method="stack",
                 stack=("mean", "glm"), seed=9), big_run.dataset)
    rescaled = assign_subgroup(
        fit_blip(scaled, big_run.dataset, big_run.plan, method="stack",
                 stack=("mean", "glm"), seed=9), big_run.dataset)
    assert np.array_equal(base.harm, rescaled.harm)


def test_adaptive_lasso_rule_detail(big_run):
    blip = fit_blip(big_run.pseudo, big_run.dataset, big_run.plan,
                    method="adaptive-lasso", seed=5)
    asg = assign_subgroup(blip, big_run.dataset)
    assert asg.provenance == "adaptive-lasso"
    assert asg.rule_detail is not None
    assert "w" in asg.rule_detail["coefficients"]
    summary = subgroup_summary(asg, big_run.dataset)
    assert "rule" in summary and "description" in summary["rule"]


def test_summary_prevalence_all_zero():
    n = 6
    zeros = np.zeros(n, dtype=np.uint8)
    from medrule.subgroup import SubgroupAssignment
    asg = SubgroupAssignment(blip=np.full(n, -0.5), harm=zeros,
                             rule=1 - zeros, provenance="stack",
                             covariates=("w",))
    schema = ColumnSchema(baseline=("w",), rule_covariates=("w",),
                          treatment="A", post_treatment="Z", mediators=("m",),
                          outcome="Y")
    ds = validate_dataset({"w": [0, 1] * 3, "A": [0, 1] * 3, "Z": [0, 1] * 3,
                           "m": [0, 1] * 3, "Y": [0, 1] * 3}, schema)
    assert subgroup_summary(asg, ds)["harm_prevalence"] == 0.0


def test_summary_prevalence_weighted_hand_check():
    # doubling the weight of the flagged stratum shifts the prevalence to
    # 2a/(2a+b) computed by hand
    schema = ColumnSchema(baseline=("w",), rule_covariates=("w",),
                          treatment="A", post_treatment="Z", mediators=("m",),
                          outcome="Y", weight="wt")
    table = {"w": [0, 0, 1, 1], "A": [0, 1, 0, 1], "Z": [0, 1, 0, 1],
             "m": [0, 1, 0, 1], "Y": [0, 1, 0, 1], "wt": [2, 2, 1, 1]}
    ds = validate_dataset(table, schema)
    from medrule.subgroup import SubgroupAssignment
    harm = np.array([1, 1, 0, 0], dtype=np.uint8)  # w=0 stratum flagged
    asg = SubgroupAssignment(blip=np.array([0.1, 0.1, -0.1, -0.1]), harm=harm,
                             rule=1 - harm, provenance="stack", covariates=("w",))
    expected = (2 + 2) / (2 + 2 + 1 + 1)
    assert subgroup_summary(asg, ds)["harm_prevalence"] == pytest.approx(expected)


def test_schema_mismatch_on_foreign_dataset(big_run):
    blip = fit_blip(big_run.pseudo, big_run.dataset, big_run.plan,
                    method="stack", stack=("mean",), seed=2)
    other_schema = ColumnSchema(baseline=("x",), rule_covariates=("x",),
                                treatment="A", post_treatment="Z",
                                mediators=("m",), outcome="Y")
    other = validate_dataset({"x": [0, 1], "A": [0, 1], "Z": [0, 1],
                              "m": [0, 1], "Y": [0, 1]}, other_schema)
    with pytest.raises(SchemaMismatch):
        assign_subgroup(blip, other)


def test_blip_requires_matching_plan(big_run):
    other_plan = make_plan(big_run.dataset.n, 5, seed=999)
    with pytest.raises(SchemaMismatch):
        fit_blip(big_run.pseudo, big_run.dataset, other_plan, method="stack")


def test_adaptive_lasso_ignores_junk_covariates(crossover):
    rng = np.random.default_rng(31)
    ds = simulate(crossover, 20000, seed=31)
    junk_names = [f"junk{k}" for k in range(5)]
    table = {name: ds.column(name) for name in ds.schema.all_columns}
    for name in junk_names:
        table[name] = rng.integers(0, 2, size=ds.n).astype(float)
    schema = ColumnSchema(baseline=("w", *junk_names),
                          rule_covariates=("w", *junk_names),
                          treatment="A", post_treatment="Z",
                          mediators=("m",), outcome="Y")
    aug = validate_dataset(table, schema)
    plan = make_plan(aug.n, 5, seed=8)
    fits = fit_nuisances(aug, plan, NuisanceConfig(stack=("glm_sat",), seed=8))
    pseudo = pseudo_contrast(aug, fits)
    blip = fit_blip(pseudo, aug, plan, method="adaptive-lasso", seed=8)
    asg = assign_subgroup(blip, aug)
    assert asg.rule_detail["selected"] == ["w"]
