"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line with the measured quantities (visible with
``pytest -s``); a failed assertion is the corresponding FAIL. The expensive
shared estimation run comes from the session-scoped ``big_run`` fixture.
"""
import itertools
import json
import re
import time

import numpy as np

from medrule import (
    NuisanceConfig,
    assign_subgroup,
    constant_rule,
    estimate_effect,
    fit_blip,
    fit_nuisances,
    make_plan,
    pseudo_contrast,
    simulate,
    validate_dataset,
)
from medrule.data import ColumnSchema, write_csv
from medrule.oracle import (
    derive_true_nuisances,
    enumerated_blip_transform_mean,
    mediator_marginal,
    sign_rule,
    true_blip,
    true_population_effects,
)
from medrule.report import load_config, run_pipeline

from helpers import corrupt_outcome_and_propensity, corrupt_ratios_and_projection

PAIRS = ((1, 1), (1, 0), (0, 0))


def _report(criterion: int, message: str) -> None:
    print(f"CRITERION {criterion} PASS: {message}")


def test_criterion_1_identification_oracle(all_dgps):
    t0 = time.monotonic()
    for name, dgp in all_dgps.items():
        for ap, st in PAIRS:
            nuis = derive_true_nuisances(dgp, ap, st)
            # (a) Bayes and row-sum invariants
            assert np.all(np.abs(nuis.z_given_am.sum(axis=3) - 1.0) <= 1e-10)
            assert np.all(np.abs(nuis.propensity_given_m.sum(axis=2) - 1.0) <= 1e-10)
            marg = mediator_marginal(dgp)
            recovered = np.einsum("wamz,wam->waz", nuis.z_given_am, marg)
            assert np.all(np.abs(recovered - dgp.p_z) <= 1e-10)
        # (b) the constant-1 rule's indirect effect equals the stratum-share
        # weighted average of the conditional blips
        eff1 = true_population_effects(dgp, lambda v: 1)
        v_of_w = dgp.v_index_of_w
        avg = sum(float(dgp.p_w[v_of_w == k].sum()) * true_blip(dgp, v)
                  for k, v in enumerate(dgp.v_support))
        assert abs(eff1.indirect - avg) <= 1e-10
        # (c) decomposition additivity, exactly
        for rule in (lambda v: 0, lambda v: 1, sign_rule(dgp)):
            eff = true_population_effects(dgp, rule)
            assert eff.total == eff.indirect + eff.direct
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"identification oracle invariants on {len(all_dgps)} DGPs "
               f"in {elapsed:.3f}s")


def test_criterion_2_unbiased_transformation(all_dgps):
    t0 = time.monotonic()
    worst = 0.0
    for dgp in all_dgps.values():
        n11 = derive_true_nuisances(dgp, 1, 1)
        n10 = derive_true_nuisances(dgp, 1, 0)
        for v in dgp.v_support:
            got = enumerated_blip_transform_mean(dgp, n11, n10, v)
            worst = max(worst, abs(got - true_blip(dgp, v)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(2, f"enumerated E[D|V=v] equals the blip within {worst:.2e} "
               f"in {elapsed:.3f}s")


def test_criterion_3_multiple_robustness(all_dgps):
    worst = 0.0
    for dgp in all_dgps.values():
        for corrupt in (corrupt_outcome_and_propensity,
                        corrupt_ratios_and_projection):
            n11 = corrupt(derive_true_nuisances(dgp, 1, 1), dgp)
            n10 = corrupt(derive_true_nuisances(dgp, 1, 0), dgp)
            for v in dgp.v_support:
                got = enumerated_blip_transform_mean(dgp, n11, n10, v)
                worst = max(worst, abs(got - true_blip(dgp, v)))
    assert worst <= 1e-10
    _report(3, f"both corruption branches stay unbiased within {worst:.2e}")


def test_criterion_4_estimator_consistency(big_run):
    truth = true_population_effects(big_run.dgp, lambda v: 1)
    piie = estimate_effect(big_run.dataset, big_run.fits, constant_rule(1), "piie")
    pite = estimate_effect(big_run.dataset, big_run.fits, constant_rule(1), "pite")
    z_piie = abs(piie.estimate - truth.indirect) / piie.se
    z_pite = abs(pite.estimate - truth.total) / pite.se
    assert z_piie <= 3.0
    assert z_pite <= 3.0
    assert big_run.elapsed < 120.0
    _report(4, f"n=20000 static PIIE off by {z_piie:.2f} SE, PITE by "
               f"{z_pite:.2f} SE; run took {big_run.elapsed:.1f}s")


def _coverage_sweep(dgp, truth, reps, n, seed_base):
    covered = 0
    for r in range(reps):
        ds = simulate(dgp, n, seed=seed_base + r)
        plan = make_plan(n, 5, seed=seed_base + 100_000 + r)
        fits = fit_nuisances(ds, plan, NuisanceConfig(
            stack=("glm_sat",), seed=r, pairs=((1, 1), (1, 0))))
        est = estimate_effect(ds, fits, constant_rule(1), "piie")
        covered += est.ci_low <= truth <= est.ci_high
    return covered / reps


def test_criterion_5_inference(crossover, null_dgp):
    t0 = time.monotonic()
    reps, n = 500, 2000
    truth = true_population_effects(crossover, lambda v: 1).indirect
    cov_static = _coverage_sweep(crossover, truth, reps, n, seed_base=300_000)
    null_truth = true_population_effects(null_dgp, lambda v: 1).indirect
    assert abs(null_truth) <= 1e-12  # the null DGP really is null
    cov_null = _coverage_sweep(null_dgp, 0.0, reps, n, seed_base=400_000)
    elapsed = time.monotonic() - t0
    assert cov_static >= 0.90
    assert cov_null >= 0.93
    assert elapsed < 1800.0
    _report(5, f"coverage {cov_static:.3f} (static PIIE) and {cov_null:.3f} "
               f"(null) over {reps} replicates each in {elapsed:.0f}s")


def test_criterion_6_subgroup_accuracy(big_run, crossover):
    # (a) harm flags against the oracle blip signs
    w = big_run.dataset.column("w")
    oracle_harm = np.where(
        np.array([true_blip(big_run.dgp, v) for v in w]) > 0, 1, 0)
    agreement = float((big_run.stack_assignment.harm == oracle_harm).mean())
    assert agreement >= 0.95

    # (b) interpretable rule: exact support recovery with junk covariates
    t0 = time.monotonic()
    junk_names = [f"junk{k}" for k in range(5)]
    schema = ColumnSchema(baseline=("w", *junk_names),
                          rule_covariates=("w", *junk_names),
                          treatment="A", post_treatment="Z",
                          mediators=("m",), outcome="Y")
    reps, n, wins = 100, 20000, 0
    for r in range(reps):
        rng = np.random.default_rng(50_000 + r)
        ds = simulate(crossover, n, seed=60_000 + r)
        table = {name: ds.column(name) for name in ds.schema.all_columns}
        for name in junk_names:
            table[name] = rng.integers(0, 2, size=n).astype(float)
        aug = validate_dataset(table, schema)
        plan = make_plan(n, 5, seed=70_000 + r)
        fits = fit_nuisances(aug, plan, NuisanceConfig(
            stack=("glm_sat",), seed=r, pairs=((1, 1), (1, 0))))
        blip = fit_blip(pseudo_contrast(aug, fits), aug, plan,
                        method="adaptive-lasso", seed=r)
        selected = assign_subgroup(blip, aug).rule_detail["selected"]
        wins += selected == ["w"]
    elapsed = time.monotonic() - t0
    assert wins >= 90
    _report(6, f"harm-flag agreement {agreement:.3f}; interpretable rule "
               f"recovered exactly ['w'] in {wins}/{reps} replicates "
               f"({elapsed:.0f}s)")


def test_criterion_7_argmin_property(all_dgps):
    for name, dgp in all_dgps.items():
        support = dgp.v_support
        assert len(support) <= 12
        sign_value = true_population_effects(dgp, sign_rule(dgp)).indirect
        values = [true_population_effects(dgp, dict(zip(support, bits))).indirect
                  for bits in itertools.product((0, 1), repeat=len(support))]
        assert sign_value <= min(values) + 1e-12
    _report(7, "the sign rule attains the exhaustive minimum on all "
               f"{len(all_dgps)} DGPs")


def _strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", text, flags=re.M)


def test_criterion_8_determinism(crossover, tmp_path):
    ds = simulate(crossover, 2000, seed=19)
    data_path = tmp_path / "data.csv"
    write_csv(data_path, {name: ds.column(name) for name in ds.schema.all_columns})
    config_doc = {
        "data": str(data_path),
        "roles": {"baseline": ["w"], "rule_covariates": ["w"], "treatment": "A",
                  "post_treatment": "Z", "mediators": ["m"], "outcome": "Y"},
        "folds": 5, "seed": 4, "stack": ["mean", "glm", "glm_sat"],
        "blip_methods": ["stack", "adaptive-lasso"], "threads": 1,
    }
    texts = {}
    for tag, threads in (("first", 1), ("second", 1), ("legacy-threads-key", 8)):
        doc = dict(config_doc, threads=threads,
                   output_dir=str(tmp_path / f"out-{tag}"))
        path = tmp_path / f"config-{tag}.json"
        path.write_text(json.dumps(doc))
        run_pipeline(load_config(path))
        texts[tag] = _strip_timestamp(
            (tmp_path / f"out-{tag}" / "report.json").read_text())
    assert texts["first"] == texts["second"]
    assert texts["first"] == texts["legacy-threads-key"]
    _report(8, "byte-identical reports across reruns and with a legacy "
               "'threads' key in the config")
