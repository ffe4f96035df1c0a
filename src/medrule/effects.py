"""One-step estimation of population interventional effects under a rule.

Each contrast is a weighted mean of per-row pseudo-outcome differences, with
the pseudo-outcome instantiated at the row's own rule value; the standard
error is the weighted standard deviation of the same per-row contrast over
sqrt(n). Rows the rule leaves untreated contribute an exact zero to the
rule-dependent contrasts, since both arms coincide.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .eif import NuisanceFits, pseudo_outcome_and_weight
from .errors import PositivityDiagnosticWarning
from .subgroup import SubgroupAssignment

# contrast -> (minuend pair, subtrahend pair, rule-dependent). In the pairs
# (a', a*) of a rule-dependent contrast, each 1 stands for the row's rule value d.
CONTRASTS = {
    "indirect": ((1, 1), (1, 0), True),
    "direct": ((1, 0), (0, 0), True),
    "total": ((1, 1), (0, 0), True),
    "piie": ((1, 1), (1, 0), False),
    "pite": ((1, 1), (0, 0), False),
}


@dataclass(frozen=True)
class RuleSpec:
    """A treatment decision per row: a constant arm or an estimated subgroup
    assignment."""

    kind: str
    label: str
    constant: int | None = None
    assignment: SubgroupAssignment | None = None

    def values(self, dataset: Dataset) -> np.ndarray:
        if self.kind == "constant":
            return np.full(dataset.n, self.constant, dtype=int)
        if len(self.assignment.rule) != dataset.n:
            raise ValueError("rule assignment does not match the dataset")
        return self.assignment.rule.astype(int)


def constant_rule(value: int, label: str | None = None) -> RuleSpec:
    if value not in (0, 1):
        raise ValueError("constant rules must be 0 or 1")
    return RuleSpec(kind="constant", label=label or f"constant-{value}",
                    constant=value)


def estimated_rule(assignment: SubgroupAssignment,
                   label: str | None = None) -> RuleSpec:
    return RuleSpec(kind="estimated", label=label or assignment.provenance,
                    assignment=assignment)


def _arms(contrast: str) -> str:
    """The arm label, e.g. "(d,d)-(d,0)" for the indirect contrast."""
    *pairs, by_rule = CONTRASTS[contrast]
    return "-".join("(" + ",".join("d" if by_rule and arm else str(arm) for arm in pair)
                    + ")" for pair in pairs)


@dataclass(frozen=True)
class EffectEstimate:
    contrast: str
    rule: str
    arms: str
    estimate: float
    se: float
    ci_low: float
    ci_high: float
    n: int
    folds: int

    def to_dict(self) -> dict:
        return {"contrast": self.contrast, "rule": self.rule, "arms": self.arms,
                "estimate": self.estimate, "se": self.se,
                "ci_low": self.ci_low, "ci_high": self.ci_high,
                "n": self.n, "folds": self.folds}


def _positivity_check(fits: NuisanceFits, pair, h: np.ndarray) -> None:
    bound = 1.0 / fits.config.epsilon ** 3
    worst = float(np.abs(h).max())
    if worst > bound:
        warnings.warn(
            f"shift weight reaches {worst:.3g} under contrast {pair}, "
            f"beyond 1/epsilon^3 = {bound:.3g}; estimates may be unstable",
            PositivityDiagnosticWarning, stacklevel=4)


def _estimate(dataset: Dataset, fits: NuisanceFits, rule: RuleSpec, contrast: str,
              z_value: float, pair_values: dict) -> EffectEstimate:
    """``estimate_effect`` with the (pseudo-outcome, shift weight) of each pair
    taken from, or added to, ``pair_values``."""
    d = rule.values(dataset)
    if contrast not in CONTRASTS:
        raise ValueError(f"unknown contrast {contrast!r}; choose from {tuple(CONTRASTS)}")
    minuend, subtrahend, by_rule = CONTRASTS[contrast]
    treated = d == 1
    if by_rule and not np.any(treated):
        c = np.zeros(dataset.n)  # both arms coincide row-wise: exact zero
    else:
        for pair in (minuend, subtrahend):
            if pair not in pair_values:
                pair_values[pair] = pseudo_outcome_and_weight(dataset, fits, *pair)
        for pair in sorted((minuend, subtrahend)):
            _positivity_check(fits, pair, pair_values[pair][1])
        c = pair_values[minuend][0] - pair_values[subtrahend][0]
        if by_rule:
            c = np.where(treated, c, 0.0)
    w = dataset.weights
    wsum = float(np.sum(w))
    point = float(np.sum(w * c) / wsum)
    var = float(np.sum(w * (c - point) ** 2) / wsum)
    se = float(np.sqrt(var / dataset.n))
    return EffectEstimate(contrast=contrast, rule=rule.label,
                          arms=_arms(contrast), estimate=point,
                          se=se, ci_low=point - z_value * se,
                          ci_high=point + z_value * se, n=dataset.n,
                          folds=fits.plan.folds)


def estimate_effect(dataset: Dataset, fits: NuisanceFits, rule: RuleSpec,
                    contrast: str, z_value: float = 1.96) -> EffectEstimate:
    """Point estimate, EIF-based standard error and Wald interval.

    The point is the weighted mean of the per-row contrast; the variance is
    the weighted (Hajek-centered) sample variance of that contrast over n.
    """
    return _estimate(dataset, fits, rule, contrast, z_value, {})


def effect_table(dataset: Dataset, fits: NuisanceFits, rules,
                 contrasts=("indirect", "total"),
                 z_value: float = 1.96) -> list[EffectEstimate]:
    """One estimate per (rule, contrast): the interventional indirect and
    total effects for each rule type, mirroring a forest-plot layout. Each
    contrast pair's pseudo-outcomes are computed once per call."""
    pair_values = {}
    return [_estimate(dataset, fits, rule, contrast, z_value, pair_values)
            for rule in rules for contrast in contrasts]
