import dataclasses

import numpy as np
import pytest

from medrule import constant_rule, effect_table, estimate_effect, estimated_rule
from medrule.errors import MissingArm, PositivityDiagnosticWarning
from medrule.oracle import (
    derive_true_nuisances,
    oracle_pseudo_values,
    sign_rule,
    true_population_effects,
)
from medrule.subgroup import SubgroupAssignment


def test_zero_rule_gives_exact_zero_everything(big_run):
    for contrast in ("indirect", "direct", "total"):
        est = estimate_effect(big_run.dataset, big_run.fits,
                              constant_rule(0), contrast)
        assert est.estimate == 0.0 and est.se == 0.0
        assert est.ci_low == 0.0 and est.ci_high == 0.0


def test_static_effects_within_three_se(big_run):
    truth = true_population_effects(big_run.dgp, lambda v: 1)
    piie = estimate_effect(big_run.dataset, big_run.fits, constant_rule(1), "piie")
    pite = estimate_effect(big_run.dataset, big_run.fits, constant_rule(1), "pite")
    assert abs(piie.estimate - truth.indirect) <= 3 * piie.se
    assert abs(pite.estimate - truth.total) <= 3 * pite.se


def test_estimated_rule_tracks_oracle_sign_rule(big_run):
    rule = estimated_rule(big_run.stack_assignment, "stack")
    est = estimate_effect(big_run.dataset, big_run.fits, rule, "indirect")
    truth = true_population_effects(big_run.dgp, sign_rule(big_run.dgp)).indirect
    assert abs(est.estimate - truth) <= 3 * est.se


def test_rule_based_indirect_not_worse_than_static(big_run):
    rule = estimated_rule(big_run.stack_assignment, "stack")
    est_rule = estimate_effect(big_run.dataset, big_run.fits, rule, "indirect")
    est_one = estimate_effect(big_run.dataset, big_run.fits,
                              constant_rule(1), "indirect")
    assert est_rule.estimate <= est_one.estimate


def test_decomposition_additivity(big_run):
    rule = estimated_rule(big_run.stack_assignment, "stack")
    parts = {c: estimate_effect(big_run.dataset, big_run.fits, rule, c)
             for c in ("indirect", "direct", "total")}
    assert abs(parts["indirect"].estimate + parts["direct"].estimate
               - parts["total"].estimate) <= 1e-10


def test_wald_interval_shape(big_run):
    est = estimate_effect(big_run.dataset, big_run.fits, constant_rule(1), "piie")
    assert est.ci_low == pytest.approx(est.estimate - 1.96 * est.se, abs=1e-15)
    assert est.ci_high == pytest.approx(est.estimate + 1.96 * est.se, abs=1e-15)


def test_extensionally_equal_rules_give_identical_estimates(big_run):
    n = big_run.dataset.n
    ones = np.ones(n, dtype=np.uint8)
    fake = SubgroupAssignment(blip=-np.ones(n), harm=1 - ones, rule=ones,
                              provenance="stack", covariates=("w",))
    est_const = estimate_effect(big_run.dataset, big_run.fits,
                                constant_rule(1), "indirect")
    est_fake = estimate_effect(big_run.dataset, big_run.fits,
                               estimated_rule(fake, "all-ones"), "indirect")
    assert est_fake.estimate == est_const.estimate
    assert est_fake.se == est_const.se


def test_effect_table_mirrors_rule_types(big_run):
    rules = [constant_rule(1, "no-individualization"),
             estimated_rule(big_run.stack_assignment, "stack")]
    table = effect_table(big_run.dataset, big_run.fits, rules)
    assert [(e.rule, e.contrast) for e in table] == [
        ("no-individualization", "indirect"), ("no-individualization", "total"),
        ("stack", "indirect"), ("stack", "total")]
    for est in table:
        assert est.ci_low <= est.estimate <= est.ci_high
        assert est.n == big_run.dataset.n and est.folds == 5


def test_missing_arm_surfaces(big_run):
    fits = dataclasses.replace(
        big_run.fits,
        u_vals={(1, 1): big_run.fits.u_vals[(1, 1)]},
        v_vals={(1, 1): big_run.fits.v_vals[(1, 1)]})
    with pytest.raises(MissingArm):
        estimate_effect(big_run.dataset, fits, constant_rule(1), "piie")


def test_weight_doubling_equals_row_duplication_for_point(crossover):
    # at the estimating-equation level: contrasts fixed, only weights change
    from medrule import simulate
    ds = simulate(crossover, 500, seed=41)
    n11 = derive_true_nuisances(crossover, 1, 1)
    n10 = derive_true_nuisances(crossover, 1, 0)
    c = oracle_pseudo_values(crossover, n11, ds) \
        - oracle_pseudo_values(crossover, n10, ds)
    w = np.ones(len(c))
    w[7] = 2.0
    weighted_point = np.sum(w * c) / np.sum(w)
    duplicated = np.append(c, c[7])
    assert weighted_point == pytest.approx(duplicated.mean(), abs=1e-8)


def test_weighted_analysis_recovers_population_effect(crossover):
    # W-biased sampling with inverse-inclusion weights: the weighted
    # estimator must target the population value, which the unweighted
    # stratum mix does not
    from medrule import (NuisanceConfig, fit_nuisances, make_plan, simulate,
                         validate_dataset)
    from medrule.data import ColumnSchema

    base = simulate(crossover, 30000, seed=77)
    rng = np.random.default_rng(78)
    incl_p = np.where(base.column("w") == 0.0, 0.7, 0.3)
    keep = rng.random(base.n) < incl_p
    table = {name: base.column(name)[keep] for name in base.schema.all_columns}
    table["wt"] = 1.0 / incl_p[keep]
    schema = ColumnSchema(baseline=("w",), rule_covariates=("w",),
                          treatment="A", post_treatment="Z", mediators=("m",),
                          outcome="Y", weight="wt")
    ds = validate_dataset(table, schema)
    plan = make_plan(ds.n, 5, seed=79)
    fits = fit_nuisances(ds, plan, NuisanceConfig(stack=("glm_sat",), seed=80,
                                                  pairs=((1, 1), (1, 0))))
    est = estimate_effect(ds, fits, constant_rule(1), "piie")
    truth = true_population_effects(crossover, lambda v: 1).indirect
    # the sampled (unweighted) stratum mix would target a shifted value
    from medrule.oracle import true_blip
    biased = 0.7 * true_blip(crossover, 0.0) + 0.3 * true_blip(crossover, 1.0)
    assert abs(est.estimate - truth) <= 3 * est.se
    assert abs(est.estimate - biased) > 3 * est.se


def test_rescaled_bounded_outcome_recovers_scaled_effects(crossover):
    # declared-range min-max scaling: an affine outcome transform must
    # scale every effect by the same factor
    from medrule import (NuisanceConfig, fit_nuisances, make_plan, simulate,
                         validate_dataset)
    from medrule.data import ColumnSchema

    base = simulate(crossover, 20000, seed=91)
    table = {name: base.column(name) for name in base.schema.all_columns}
    table["Y"] = 2.0 * base.column("Y") + 1.0
    schema = ColumnSchema(baseline=("w",), rule_covariates=("w",),
                          treatment="A", post_treatment="Z", mediators=("m",),
                          outcome="Y", outcome_range=(1.0, 3.0))
    ds = validate_dataset(table, schema)
    plan = make_plan(ds.n, 5, seed=92)
    fits = fit_nuisances(ds, plan, NuisanceConfig(stack=("glm_sat",), seed=93))
    truth = true_population_effects(crossover, lambda v: 1)
    for contrast, target in (("piie", 2 * truth.indirect),
                             ("pite", 2 * truth.total)):
        est = estimate_effect(ds, fits, constant_rule(1), contrast)
        assert abs(est.estimate - target) <= 3 * est.se


def test_positivity_diagnostic_warning(big_run):
    # force an extreme shift weight through an unclipped second Z-model
    fits = dataclasses.replace(
        big_run.fits,
        z_given_am1=np.full_like(big_run.fits.z_given_am1, 1e-9))
    with pytest.warns(PositivityDiagnosticWarning):
        estimate_effect(big_run.dataset, fits, constant_rule(1), "piie")


def test_arm_labels_and_unknown_contrast(big_run):
    expected = {"indirect": "(d,d)-(d,0)", "direct": "(d,0)-(0,0)",
                "total": "(d,d)-(0,0)", "piie": "(1,1)-(1,0)",
                "pite": "(1,1)-(0,0)"}
    for contrast, arms in expected.items():
        est = estimate_effect(big_run.dataset, big_run.fits, constant_rule(1),
                              contrast)
        assert est.arms == arms
    with pytest.raises(ValueError) as err:
        estimate_effect(big_run.dataset, big_run.fits, constant_rule(1), "nde")
    for contrast in expected:
        assert repr(contrast) in str(err.value)
