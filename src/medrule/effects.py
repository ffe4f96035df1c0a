"""One-step estimation of population interventional effects under a rule.

Each contrast is a weighted mean psi of per-row pseudo-outcome differences c,
with the pseudo-outcome instantiated at the row's own rule value; its standard
error is the sandwich form sqrt(sum (w (c - psi))^2) / sum w (Binder 1983).
Rows the rule leaves untreated contribute an exact zero to the rule-dependent
contrasts, since both arms coincide.
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .eif import NuisanceFits, PseudoOutcomes, pseudo_contrast
from .errors import PositivityDiagnosticWarning, SchemaMismatch
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
        return asdict(self)


def _positivity_check(epsilon: float, pair, h: np.ndarray) -> None:
    bound = 1.0 / epsilon ** 3
    worst = float(np.abs(h).max())
    if worst > bound:
        warnings.warn(
            f"shift weight reaches {worst:.3g} under contrast {pair}, "
            f"beyond 1/epsilon^3 = {bound:.3g}; estimates may be unstable",
            PositivityDiagnosticWarning, stacklevel=3)


def estimate_effect(dataset: Dataset, fits: NuisanceFits, rule: RuleSpec,
                    contrast: str, z_value: float = 1.96) -> EffectEstimate:
    """Point estimate, EIF-based standard error and Wald interval.

    One ``pseudo_contrast`` call plus ``effect_table``: the point is the
    weighted mean of the per-row contrast, and the standard error is its
    sandwich form.
    """
    return effect_table(dataset, pseudo_contrast(dataset, fits), [rule],
                        (contrast,), z_value)[0]


def effect_table(dataset: Dataset, pseudo: PseudoOutcomes, rules,
                 contrasts=("indirect", "total"),
                 z_value: float = 1.96) -> list[EffectEstimate]:
    """One estimate per (rule, contrast), all from the one ``pseudo_contrast``
    result, mirroring a forest-plot layout: psi = sum w c / sum w, with the
    sandwich variance sum (w (c - psi))^2 / (sum w)^2, which for unit weights
    is the mean squared deviation of c over n."""
    if pseudo.n != dataset.n:
        raise SchemaMismatch("pseudo-outcomes belong to a different dataset")
    w = dataset.weights
    wsum = float(np.sum(w))
    table = []
    for rule in rules:
        treated = rule.values(dataset) == 1
        for contrast in contrasts:
            if contrast not in CONTRASTS:
                raise ValueError(
                    f"unknown contrast {contrast!r}; choose from {tuple(CONTRASTS)}")
            minuend, subtrahend, by_rule = CONTRASTS[contrast]
            if by_rule and not np.any(treated):
                c = np.zeros(dataset.n)  # both arms coincide row-wise: exact zero
            else:
                c = pseudo[minuend] - pseudo[subtrahend]
                for pair in sorted((minuend, subtrahend)):
                    _positivity_check(pseudo.epsilon, pair, pseudo.h[pair])
                if by_rule:
                    c = np.where(treated, c, 0.0)
            point = float(np.sum(w * c) / wsum)
            var = float(np.sum((w * (c - point)) ** 2) / wsum)
            se = float(np.sqrt(var / wsum))
            table.append(EffectEstimate(
                contrast=contrast, rule=rule.label, arms=_arms(contrast),
                estimate=point, se=se, ci_low=point - z_value * se,
                ci_high=point + z_value * se, n=dataset.n, folds=pseudo.folds))
    return table
