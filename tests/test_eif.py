import numpy as np
import pytest

from medrule import (
    NuisanceConfig,
    fit_nuisances,
    make_plan,
    pseudo_contrast,
    shift_weight_values,
    simulate,
    validate_dataset,
)
from medrule.eif import pseudo_outcome_and_weight
from medrule.errors import (
    ClippingSaturationWarning,
    ConvergenceWarning,
    DegenerateFold,
    MissingArm,
    NonFinitePseudoOutcome,
)
from medrule.oracle import (
    derive_true_nuisances,
    oracle_pseudo_values,
    support_indices,
    true_population_effects,
)


def test_crossfitted_propensity_near_truth(crossover):
    ds = simulate(crossover, 4000, seed=21)
    plan = make_plan(ds.n, 5, seed=2)
    fits = fit_nuisances(ds, plan, NuisanceConfig(stack=("mean", "glm"), seed=1))
    w = ds.column("w")
    for v in (0.0, 1.0):
        assert abs(fits.propensity1[w == v].mean() - 0.5) < 0.05


def test_clipping_saturation_warning_when_z_equals_a(crossover):
    ds = simulate(crossover, 1500, seed=22)
    table = {name: ds.column(name).copy() for name in ds.schema.all_columns}
    table["Z"] = table["A"].copy()  # Z deterministically equals A
    ds2 = validate_dataset(table, ds.schema)
    plan = make_plan(ds2.n, 5, seed=2)
    cfg = NuisanceConfig(stack=("glm",), epsilon=0.01, seed=1)
    with pytest.warns(ClippingSaturationWarning):
        with pytest.warns(ConvergenceWarning):  # IRLS on Z == A reaches its cap
            fits = fit_nuisances(ds2, plan, cfg)
    # P(Z=1 | A=1, W) hits the upper clipping bound
    assert np.all(fits.z_given_a1[:, 1] >= 0.9)
    assert np.any(fits.z_given_a1[:, 1] == 1 - cfg.epsilon)


def test_saturated_fits_converge_to_oracle_tables(crossover):
    ds = simulate(crossover, 20000, seed=23)
    plan = make_plan(ds.n, 5, seed=3)
    fits = fit_nuisances(ds, plan, NuisanceConfig(stack=("glm_sat",), seed=4))
    w_idx, a, z, m_idx, y = support_indices(crossover, ds)
    nuis = derive_true_nuisances(crossover, 1, 0)

    def mae(err):
        return float(np.abs(err).mean())

    assert mae(fits.propensity1 - nuis.propensity[w_idx, 1]) < 0.03
    assert mae(fits.propensity_given_m1
               - nuis.propensity_given_m[w_idx, m_idx, 1]) < 0.03
    for arm in (0, 1):
        assert mae(fits.z_given_a1[:, arm] - nuis.z_given_a[w_idx, arm, 1]) < 0.03
        assert mae(fits.z_given_am1[:, arm]
                   - nuis.z_given_am[w_idx, arm, m_idx, 1]) < 0.03
        for zz in (0, 1):
            assert mae(fits.outcome_az[:, arm, zz]
                       - nuis.outcome[w_idx, arm, zz, m_idx]) < 0.03


def test_rows_outside_both_arms_reduce_to_projection(big_run):
    ds, fits = big_run.dataset, big_run.fits
    d11 = pseudo_outcome_and_weight(ds, fits, 1, 1)[0]
    untreated = ds.column("A") == 0.0
    assert np.array_equal(d11[untreated], fits.v_vals[(1, 1)][untreated])


def test_shift_weight_literal_cancellation(big_run):
    ds, fits = big_run.dataset, big_run.fits
    z = ds.column("Z")
    h11 = shift_weight_values(ds, fits, 1, 1)
    q1 = fits.z_given_a1[:, 1]
    r1 = fits.z_given_am1[:, 1]
    qr = np.where(z == 1.0, q1, 1.0 - q1) / np.where(z == 1.0, r1, 1.0 - r1)
    assert np.array_equal(h11, qr)


def test_pseudo_outcomes_finite_and_bounded(big_run):
    ds, fits = big_run.dataset, big_run.fits
    eps = fits.config.epsilon
    bound = (1.0 / eps) ** 4 * 1.0 + 4.0 / eps  # coarse but explicit cap
    pseudo = pseudo_contrast(ds, fits)
    for arr in (pseudo.d11, pseudo.d10, pseudo.values):
        assert np.all(np.isfinite(arr))
        assert np.max(np.abs(arr)) < bound


def test_nuisance_fit_invariants(big_run):
    fits = big_run.fits
    eps = fits.config.epsilon
    lo, hi = big_run.dataset.schema.outcome_range
    for arr in (fits.propensity1, fits.propensity_given_m1,
                fits.z_given_a1, fits.z_given_am1):
        assert np.all((arr >= eps) & (arr <= 1 - eps))
    assert np.all((fits.outcome_az >= lo) & (fits.outcome_az <= hi))
    for pair in fits.pairs:
        assert np.all(np.isfinite(fits.u_vals[pair]))
        assert np.all(np.isfinite(fits.v_vals[pair]))


def test_pseudo_contrast_fold_provenance(big_run):
    pseudo = pseudo_contrast(big_run.dataset, big_run.fits)
    assert np.array_equal(pseudo.fold, big_run.plan.assignment)
    assert set(pseudo.h_range) == {(1, 1), (1, 0)}


def test_missing_arm(crossover):
    ds = simulate(crossover, 600, seed=24)
    plan = make_plan(ds.n, 3, seed=5)
    fits = fit_nuisances(ds, plan, NuisanceConfig(stack=("glm",), seed=1,
                                                  pairs=((1, 1), (1, 0))))
    with pytest.raises(MissingArm):
        pseudo_outcome_and_weight(ds, fits, 0, 0)[0]


def test_degenerate_fold_raises(crossover):
    ds = simulate(crossover, 300, seed=25)
    table = {name: ds.column(name).copy() for name in ds.schema.all_columns}
    table["A"] = np.ones(ds.n)  # single treatment level everywhere
    ds2 = validate_dataset(table, ds.schema)
    plan = make_plan(ds2.n, 3, seed=1)
    with pytest.raises(DegenerateFold):
        fit_nuisances(ds2, plan, NuisanceConfig(stack=("mean",), seed=1))


def test_non_finite_pseudo_outcome_reported(big_run):
    import dataclasses
    fits = big_run.fits
    broken = dataclasses.replace(fits, v_vals={p: v.copy() for p, v in fits.v_vals.items()})
    broken.v_vals[(1, 1)][5] = np.nan
    with pytest.raises(NonFinitePseudoOutcome) as err:
        pseudo_outcome_and_weight(big_run.dataset, broken, 1, 1)[0]
    assert err.value.row == 5


# ---------------------------------------------------------------------------
# oracle-table evaluation of the transform on sampled rows

def test_oracle_transform_sample_mean_near_population_value(crossover):
    n = 50000
    ds = simulate(crossover, n, seed=26)
    n11 = derive_true_nuisances(crossover, 1, 1)
    n10 = derive_true_nuisances(crossover, 1, 0)
    d = oracle_pseudo_values(crossover, n11, ds) \
        - oracle_pseudo_values(crossover, n10, ds)
    truth = true_population_effects(crossover, lambda v: 1).indirect
    mc_se = d.std(ddof=1) / np.sqrt(n)
    assert abs(d.mean() - truth) <= 3.0 * mc_se


def test_identical_rows_get_identical_transform_values(crossover):
    base = simulate(crossover, 40, seed=27)
    table = {name: np.tile(base.column(name)[:1], 25)
             for name in base.schema.all_columns}
    ds = validate_dataset(table, base.schema)
    nuis = derive_true_nuisances(crossover, 1, 0)
    vals = oracle_pseudo_values(crossover, nuis, ds)
    assert np.all(vals == vals[0])


def test_pseudo_outcomes_follow_the_dataset_passed(big_run):
    # the same rows with Y -> 1 - Y, evaluated with A's nuisances: nothing
    # computed for A may be served for B
    from medrule import constant_rule, estimate_effect
    ds_a = big_run.dataset
    table = {name: ds_a.column(name) for name in ds_a.schema.all_columns}
    table["Y"] = 1.0 - table["Y"]
    ds_b = validate_dataset(table, ds_a.schema)
    d_a = pseudo_outcome_and_weight(ds_a, big_run.fits, 1, 1)[0]
    d_b = pseudo_outcome_and_weight(ds_b, big_run.fits, 1, 1)[0]
    assert not np.array_equal(d_a, d_b)
    est_a = estimate_effect(ds_a, big_run.fits, constant_rule(1), "piie")
    est_b = estimate_effect(ds_b, big_run.fits, constant_rule(1), "piie")
    assert est_a.estimate != est_b.estimate
