from dataclasses import replace

import numpy as np
import pytest

from medrule import (
    NuisanceConfig,
    constant_rule,
    effect_table,
    fit_nuisances,
    make_plan,
    pseudo_contrast,
    simulate,
    validate_dataset,
)
from medrule.data import feature_block
from medrule.errors import (
    ClippingSaturationWarning,
    DegenerateFold,
    MissingArm,
    NonFinitePseudoOutcome,
    SeparationWarning,
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
        with pytest.warns(SeparationWarning):  # Z == A separates the Z model
            fits = fit_nuisances(ds2, plan, cfg)
    # P(Z=1 | A=1, W) hits the upper clipping bound
    assert np.all(fits.z_given_a1[:, 1] >= 0.9)
    assert np.any(fits.z_given_a1[:, 1] == 1 - cfg.epsilon)


def test_out_of_fold_values_match_column_stacked_designs(crossover):
    # pins the evaluation design layout [a, z, M, W] / [z, W] bit for bit
    ds = simulate(crossover, 1500, seed=24)
    plan = make_plan(ds.n, 3, seed=5)
    cfg = NuisanceConfig(stack=("mean", "glm", "glm_sat"), seed=6)
    fits = fit_nuisances(ds, plan, cfg)
    W, _ = feature_block(ds, ds.schema.baseline)
    M, _ = feature_block(ds, ds.schema.mediators)
    lo, hi = ds.schema.outcome_range
    for j, fm in enumerate(fits.fold_models):
        va = plan.val_indices(j)

        def full(c):
            return np.full(len(va), float(c))

        for arm in (0, 1):
            q = fm.z_given_a.predict(np.column_stack([full(arm), W[va]]))
            r = fm.z_given_am.predict(np.column_stack([full(arm), M[va], W[va]]))
            assert np.array_equal(fits.z_given_a1[va, arm],
                                  np.clip(q, cfg.epsilon, 1 - cfg.epsilon))
            assert np.array_equal(fits.z_given_am1[va, arm],
                                  np.clip(r, cfg.epsilon, 1 - cfg.epsilon))
            for z in (0, 1):
                b = fm.outcome.predict(np.column_stack([full(arm), full(z), M[va], W[va]]))
                assert np.array_equal(fits.outcome_az[va, arm, z],
                                      np.clip(b * (hi - lo) + lo, lo, hi))
        for pair, (m_u, _) in fm.projections.items():
            for z in (0, 1):
                u = m_u.predict(np.column_stack([full(z), W[va]]))
                assert np.array_equal(fits.u_vals[pair][va, z], u)


def test_fewer_pairs_change_no_nuisance_value(crossover):
    # with only a' = 1 the training rows are scored at arm 1 alone; no
    # u/v target and no out-of-fold value may move
    ds = simulate(crossover, 1500, seed=29)
    plan = make_plan(ds.n, 3, seed=5)
    cfg = NuisanceConfig(stack=("mean", "glm", "glm_sat"), seed=6)
    every = fit_nuisances(ds, plan, cfg)
    some = fit_nuisances(ds, plan, NuisanceConfig(stack=cfg.stack, seed=cfg.seed,
                                                  pairs=((1, 1), (1, 0))))
    for pair in ((1, 1), (1, 0)):
        assert np.array_equal(some.u_vals[pair], every.u_vals[pair])
        assert np.array_equal(some.v_vals[pair], every.v_vals[pair])
    for name in ("propensity1", "propensity_given_m1", "z_given_a1", "z_given_am1",
                 "outcome_az"):
        assert np.array_equal(getattr(some, name), getattr(every, name)), name


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


def test_saturated_fits_same_for_numeric_and_categorical_mediator(rich):
    # glm_sat is saturated on any discrete design, so the three-level m coded
    # as one numeric column or as two indicators gives the same fits, bit for bit
    ds = simulate(rich, 2000, seed=31)
    table = {name: ds.column(name) for name in ds.schema.all_columns}
    table["m"] = [f"{v:g}" for v in table["m"]]
    cat = validate_dataset(table, replace(ds.schema, categorical_levels={"m": ("0", "1", "2")}))
    plan = make_plan(ds.n, 5, seed=2)
    cfg = NuisanceConfig(stack=("glm_sat",), seed=4)
    num, cat_fits = fit_nuisances(ds, plan, cfg), fit_nuisances(cat, plan, cfg)
    for name in ("propensity1", "propensity_given_m1", "z_given_a1", "z_given_am1",
                 "outcome_az"):
        assert np.array_equal(getattr(num, name), getattr(cat_fits, name)), name
    assert num.pairs == cat_fits.pairs and num.clip_fractions == cat_fits.clip_fractions
    for pair in num.pairs:
        assert np.array_equal(num.u_vals[pair], cat_fits.u_vals[pair])
        assert np.array_equal(num.v_vals[pair], cat_fits.v_vals[pair])
    piie = [effect_table(d, pseudo_contrast(d, f), [constant_rule(1)], ("piie",))[0]
            for d, f in ((ds, num), (cat, cat_fits))]
    assert (piie[0].estimate, piie[0].se) == (piie[1].estimate, piie[1].se)


def test_rows_outside_both_arms_reduce_to_projection(big_run):
    ds, fits = big_run.dataset, big_run.fits
    d11 = pseudo_contrast(ds, fits)[1, 1]
    untreated = ds.column("A") == 0.0
    assert np.array_equal(d11[untreated], fits.v_vals[(1, 1)][untreated])


def test_shift_weight_literal_cancellation(big_run):
    ds, fits = big_run.dataset, big_run.fits
    z = ds.column("Z")
    h11 = pseudo_contrast(ds, fits).h[1, 1]
    q1 = fits.z_given_a1[:, 1]
    r1 = fits.z_given_am1[:, 1]
    qr = np.where(z == 1.0, q1, 1.0 - q1) / np.where(z == 1.0, r1, 1.0 - r1)
    assert np.array_equal(h11, qr)


def test_pseudo_outcomes_finite_and_bounded(big_run):
    ds, fits = big_run.dataset, big_run.fits
    eps = fits.config.epsilon
    bound = (1.0 / eps) ** 4 * 1.0 + 4.0 / eps  # coarse but explicit cap
    pseudo = pseudo_contrast(ds, fits)
    for arr in (pseudo[1, 1], pseudo[1, 0], pseudo.values):
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
    assert set(pseudo.h) == set(big_run.fits.pairs) == {(1, 1), (1, 0), (0, 0)}


def test_missing_arm(crossover):
    ds = simulate(crossover, 600, seed=24)
    plan = make_plan(ds.n, 3, seed=5)
    fits = fit_nuisances(ds, plan, NuisanceConfig(stack=("glm",), seed=1,
                                                  pairs=((1, 1), (1, 0))))
    with pytest.raises(MissingArm):
        pseudo_contrast(ds, fits)[0, 0]


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
        pseudo_contrast(big_run.dataset, broken)
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
    d_a = pseudo_contrast(ds_a, big_run.fits)[1, 1]
    d_b = pseudo_contrast(ds_b, big_run.fits)[1, 1]
    assert not np.array_equal(d_a, d_b)
    est_a = estimate_effect(ds_a, big_run.fits, constant_rule(1), "piie")
    est_b = estimate_effect(ds_b, big_run.fits, constant_rule(1), "piie")
    assert est_a.estimate != est_b.estimate


def test_run_pipeline_builds_each_pair_shift_weight_once(crossover, tmp_path,
                                                        monkeypatch):
    # counts full-n evaluations of the shift weight per contrast pair over one
    # run; training-fold evaluations inside fit_nuisances are shorter
    import medrule.eif as eif
    from medrule.data import write_csv
    from medrule.report import RunConfig, run_pipeline

    n = 600
    ds = simulate(crossover, n, seed=28)
    write_csv(tmp_path / "data.csv", {c: ds.column(c) for c in ds.schema.all_columns})
    config = RunConfig(data=str(tmp_path / "data.csv"), schema=ds.schema,
                       seed=2, stack=("mean", "glm"))
    calls = {}
    inner = eif._shift_weight

    def counted(g1, e1, qr, a_prime, a_star):
        if len(qr) == n:
            calls[a_prime, a_star] = calls.get((a_prime, a_star), 0) + 1
        return inner(g1, e1, qr, a_prime, a_star)

    monkeypatch.setattr(eif, "_shift_weight", counted)
    report = run_pipeline(config, write=False)
    assert calls == {pair: 1 for pair in eif.CONTRAST_PAIRS}
    assert len(report["diagnostics"]["shift_weight_range"]) == 3
