"""Blip regression on the rule covariates and harm-subgroup assignment.

The blip is fitted by regressing the pseudo-outcome contrast on V, either
with the flexible per-fold stacking ensemble (out-of-fold predictions for
every row) or with a single interpretable adaptive-lasso model. The harm flag
is 1{blip > 0}; the treat-permissible rule value is its exact complement,
with ties at zero counted as non-harmful.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossfit import CrossFitPlan, fit_folds, out_of_fold
from .data import Dataset, feature_block
from .errors import SchemaMismatch
from .eif import PseudoOutcomes
from .learners import AdaptiveLassoModel, fit_adaptive_lasso, fit_stack


@dataclass
class BlipModel:
    method: str                       # "stack" (flexible) or "adaptive-lasso"
    covariates: tuple[str, ...]       # expanded design column names
    plan: CrossFitPlan
    fold_models: list | None = None
    model: AdaptiveLassoModel | None = None


def fit_blip(pseudo: PseudoOutcomes, dataset: Dataset, plan: CrossFitPlan,
             method: str = "stack", stack=("mean", "glm", "lasso"),
             seed: int = 0) -> BlipModel:
    """Regress the pseudo-outcome contrast on the rule covariates.

    ``method="stack"`` trains one ensemble per cross-fit fold on that fold's
    training rows (whose pseudo-outcomes came from their own out-of-fold
    models), preserving out-of-fold purity. ``method="adaptive-lasso"`` fits
    one sparse linear model on all rows for interpretability.
    """
    if pseudo.n != dataset.n or not np.array_equal(pseudo.fold, plan.assignment):
        raise SchemaMismatch("pseudo-outcomes were not computed under this plan")
    Xv, names = feature_block(dataset, dataset.schema.rule_covariates)
    d = pseudo.values
    w = dataset.weights
    if method == "stack":
        fold_models = fit_folds(plan, lambda j, tr: fit_stack(
            stack, Xv[tr], d[tr], w[tr], seed=abs(seed * 7_919 + j)))
        return BlipModel(method="stack", covariates=tuple(names), plan=plan,
                         fold_models=fold_models)
    if method == "adaptive-lasso":
        model = fit_adaptive_lasso(Xv, d, w, seed=seed, feature_names=names)
        return BlipModel(method="adaptive-lasso", covariates=tuple(names),
                         plan=plan, model=model)
    raise ValueError(f"unknown blip method {method!r}")


@dataclass
class SubgroupAssignment:
    """Per-row blip prediction, harm flag and rule value.

    ``harm = 1{blip > 0}``; ``rule = 1 - harm`` exactly (ties at zero are
    non-harmful). ``rule_detail`` carries the interpretable model's named
    coefficients when the adaptive lasso produced the rule.
    """

    blip: np.ndarray
    harm: np.ndarray
    rule: np.ndarray
    provenance: str
    covariates: tuple[str, ...]
    rule_detail: dict | None = None


def assign_subgroup(blip: BlipModel, dataset: Dataset) -> SubgroupAssignment:
    """Evaluate the blip model on a dataset and flag the predicted-harm rows.

    Stack predictions for row i come from the fold-j(i) submodel to keep
    out-of-fold purity; adaptive-lasso predictions come from the single model.
    """
    Xv, names = feature_block(dataset, dataset.schema.rule_covariates)
    if tuple(names) != blip.covariates:
        raise SchemaMismatch(
            f"rule covariates {names} do not match the fitted model "
            f"{list(blip.covariates)}")
    if blip.method == "stack":
        if dataset.n != blip.plan.n:
            raise SchemaMismatch("dataset does not match the cross-fit plan")
        values = out_of_fold(blip.plan, blip.fold_models,
                             lambda model, va: model.predict(Xv[va]))
        detail = None
    else:
        values = blip.model.predict(Xv)
        detail = {
            "intercept": float(blip.model.intercept),
            "coefficients": {n: float(c) for n, c in
                             zip(blip.model.feature_names, blip.model.coef)},
            "selected": blip.model.selected,
            "description": blip.model.describe(),
        }
    harm = (values > 0.0).astype(np.uint8)
    return SubgroupAssignment(blip=values, harm=harm, rule=1 - harm,
                              provenance=blip.method, covariates=blip.covariates,
                              rule_detail=detail)


def subgroup_summary(assignment: SubgroupAssignment, dataset: Dataset) -> dict:
    """Weighted prevalence of the harm flag, plus the interpretable rule when
    the adaptive lasso produced it."""
    w = dataset.weights
    prevalence = float(np.sum(w * assignment.harm) / np.sum(w))
    out = {
        "method": assignment.provenance,
        "n": dataset.n,
        "harm_count": int(assignment.harm.sum()),
        "harm_prevalence": prevalence,
        "blip_min": float(assignment.blip.min()),
        "blip_max": float(assignment.blip.max()),
    }
    if assignment.rule_detail is not None:
        out["rule"] = assignment.rule_detail
    return out
