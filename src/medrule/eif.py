"""Cross-fitted nuisance fits and per-observation pseudo-outcomes.

The nuisance vector holds five fitted regressions (treatment propensity given
W and given (M, W), the two Z-models, and the outcome regression) plus, per
contrast (a', a*), two derived conditional-expectation regressions trained on
constructed targets. Row i is always evaluated with the models trained on the
complement of its fold, so no pseudo-outcome depends on the row's own target.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .crossfit import CrossFitPlan, fit_folds, out_of_fold
from .data import Dataset, feature_block
from .errors import (
    ClippingSaturationWarning,
    DegenerateFold,
    MissingArm,
    NonFinitePseudoOutcome,
    SchemaMismatch,
)
from .learners import fit_stack

CONTRAST_PAIRS = ((1, 1), (1, 0), (0, 0))


@dataclass(frozen=True)
class NuisanceConfig:
    """Learner stack and clipping used for every nuisance fit."""

    stack: tuple[str, ...] = ("mean", "glm", "lasso")
    epsilon: float = 0.01
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] = CONTRAST_PAIRS

    def __post_init__(self):
        object.__setattr__(self, "stack", tuple(self.stack))
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        if not 0.0 < self.epsilon <= 0.2:
            raise ValueError("epsilon must lie in (0, 0.2]")


@dataclass
class FoldModels:
    propensity: object
    propensity_given_m: object
    z_given_a: object
    z_given_am: object
    outcome: object
    projections: dict  # (a', a*) -> (u model on (Z, W), v model on W)


@dataclass
class NuisanceFits:
    """Fitted nuisances plus their out-of-fold evaluation at every row.

    ``z_given_a1[i, a]`` is the clipped P(Z=1 | A=a, W_i); ``outcome_az[i, a,
    z]`` is the outcome regression at (a, z) with the row's (M, W); the
    ``u_vals``/``v_vals`` maps are keyed by contrast pair.
    """

    plan: CrossFitPlan
    config: NuisanceConfig
    fold_models: list[FoldModels]
    propensity1: np.ndarray
    propensity_given_m1: np.ndarray
    z_given_a1: np.ndarray
    z_given_am1: np.ndarray
    outcome_az: np.ndarray
    u_vals: dict
    v_vals: dict
    clip_fractions: dict

    @property
    def pairs(self) -> tuple:
        return tuple(self.u_vals)


def _seed(base: int, fold: int, role: int) -> int:
    return abs(base * 1_000_003 + fold * 10_007 + role * 101)


def _clip_prob(p: np.ndarray, eps: float) -> np.ndarray:
    return np.clip(p, eps, 1.0 - eps)


def _prob_of(p1: np.ndarray, a: int) -> np.ndarray:
    return p1 if a == 1 else 1.0 - p1


def _with_consts(consts: list[float], blocks: list[np.ndarray], rows) -> np.ndarray:
    return np.column_stack([np.full(len(rows), float(c)) for c in consts]
                           + [b[rows] for b in blocks])


def _shift_weight(g1, e1, q1, r1, z, a_prime: int, a_star: int) -> np.ndarray:
    """h = [g(a')/g(a*)] [q(z|a')/r(z|a',m)] [e(a*|m)/e(a'|m)] at each row's
    observed z, from P(A=1|W), P(A=1|M,W), P(Z=1|a',W) and P(Z=1|a',M,W)."""
    q_obs = np.where(z == 1.0, q1, 1.0 - q1)
    r_obs = np.where(z == 1.0, r1, 1.0 - r1)
    return (_prob_of(g1, a_prime) / _prob_of(g1, a_star)) * (q_obs / r_obs) \
        * (_prob_of(e1, a_star) / _prob_of(e1, a_prime))


def _plugin(b: np.ndarray, q1: np.ndarray, a_prime: int) -> np.ndarray:
    """sum_z b(a', z) q(z | a'): the outcome regression averaged over Z."""
    return b[:, a_prime, 1] * q1[:, a_prime] + b[:, a_prime, 0] * (1.0 - q1[:, a_prime])


def _roles(values: np.ndarray) -> dict[str, np.ndarray]:
    """Name the columns of fit_nuisances' evaluate(): g, e, q[., arm],
    r[., arm] and b[., arm, z]."""
    return {"propensity": values[:, 0], "propensity_given_m": values[:, 1],
            "z_given_a": values[:, 2:4], "z_given_am": values[:, 4:6],
            "outcome": values[:, 6:10].reshape(-1, 2, 2)}


def fit_nuisances(dataset: Dataset, plan: CrossFitPlan,
                  config: NuisanceConfig | None = None) -> NuisanceFits:
    """Fit every nuisance with cross-fitting and evaluate it out of fold.

    Raises DegenerateFold when a training fold misses a treatment or
    post-treatment level, and warns when more than 5% of any probability
    fit's predictions sit on the epsilon clipping bound.
    """
    config = config or NuisanceConfig()
    schema = dataset.schema
    w = dataset.weights
    a = dataset.column(schema.treatment).astype(float)
    z = dataset.column(schema.post_treatment).astype(float)
    y = dataset.column(schema.outcome).astype(float)
    lo, hi = schema.outcome_range
    ys = (y - lo) / (hi - lo)
    Wb, _ = feature_block(dataset, schema.baseline)
    Mb, _ = feature_block(dataset, schema.mediators)
    MWb = np.column_stack([Mb, Wb])
    eps = config.epsilon

    for j in range(plan.folds):
        tr = plan.train_indices(j)
        for name, col in ((schema.treatment, a), (schema.post_treatment, z)):
            if len(np.unique(col[tr])) < 2:
                raise DegenerateFold(j, name)

    def evaluate(fm: FoldModels, rows) -> np.ndarray:
        """Clipped probabilities and rescaled outcome regression at ``rows``,
        in the column layout that ``_roles`` names."""
        cols = [_clip_prob(fm.propensity.predict(Wb[rows]), eps),
                _clip_prob(fm.propensity_given_m.predict(MWb[rows]), eps)]
        cols += [_clip_prob(fm.z_given_a.predict(_with_consts([arm], [Wb], rows)), eps)
                 for arm in (0, 1)]
        cols += [_clip_prob(fm.z_given_am.predict(_with_consts([arm], [Mb, Wb], rows)), eps)
                 for arm in (0, 1)]
        for arm in (0, 1):
            for zz in (0, 1):
                pred = fm.outcome.predict(_with_consts([arm, zz], [Mb, Wb], rows))
                cols.append(np.clip(pred * (hi - lo) + lo, lo, hi))
        return np.column_stack(cols)

    def fit_fold(j: int, tr: np.ndarray) -> FoldModels:
        def fit(X, target, rows, role):
            return fit_stack(config.stack, X[rows], target, w[rows],
                             seed=_seed(config.seed, j, role))

        fm = FoldModels(
            propensity=fit(Wb, a[tr], tr, 0),
            propensity_given_m=fit(MWb, a[tr], tr, 1),
            z_given_a=fit(np.column_stack([a[:, None], Wb]), z[tr], tr, 2),
            z_given_am=fit(np.column_stack([a[:, None], Mb, Wb]), z[tr], tr, 3),
            outcome=fit(np.column_stack([a[:, None], z[:, None], Mb, Wb]), ys[tr], tr, 4),
            projections={})
        v = _roles(evaluate(fm, tr))
        z_tr, a_tr = z[tr], a[tr]
        b_obs = v["outcome"][np.arange(len(tr)), :, z_tr.astype(int)]
        for k, (ap, st) in enumerate(config.pairs):
            h_tr = _shift_weight(v["propensity"], v["propensity_given_m"],
                                 v["z_given_a"][:, ap], v["z_given_am"][:, ap],
                                 z_tr, ap, st)
            u_target = (b_obs[:, ap] * h_tr)[a_tr == ap]
            m_u = fit(np.column_stack([z[:, None], Wb]), u_target, tr[a_tr == ap],
                      5 + 2 * k)
            # evaluated on the a = a* rows themselves: a BLAS product's result
            # for a row can depend on the row's position in the batch
            sub = _roles(evaluate(fm, tr[a_tr == st]))
            m_v = fit(Wb, _plugin(sub["outcome"], sub["z_given_a"], ap), tr[a_tr == st],
                      6 + 2 * k)
            fm.projections[(ap, st)] = (m_u, m_v)
        return fm

    fold_models = fit_folds(plan, fit_fold)

    def project(fm: FoldModels, rows) -> np.ndarray:
        cols = []
        for m_u, m_v in fm.projections.values():
            cols += [m_u.predict(_with_consts([zz], [Wb], rows)) for zz in (0, 1)]
            cols.append(m_v.predict(Wb[rows]))
        return np.column_stack(cols)

    values = _roles(out_of_fold(plan, fold_models, evaluate))
    uv = out_of_fold(plan, fold_models, project)
    u_vals = {pair: uv[:, 3 * k:3 * k + 2] for k, pair in enumerate(config.pairs)}
    v_vals = {pair: uv[:, 3 * k + 2] for k, pair in enumerate(config.pairs)}

    clip_fractions = {}
    for role in ("propensity", "propensity_given_m", "z_given_a", "z_given_am"):
        arr = values[role]
        frac = np.count_nonzero((arr == eps) | (arr == 1 - eps)) / arr.size
        clip_fractions[role] = frac
        if frac > 0.05:
            warnings.warn(
                f"{role}: {frac:.1%} of predictions sit on the epsilon={eps} bound",
                ClippingSaturationWarning, stacklevel=2)

    return NuisanceFits(plan=plan, config=config, fold_models=fold_models,
                        propensity1=values["propensity"],
                        propensity_given_m1=values["propensity_given_m"],
                        z_given_a1=values["z_given_a"], z_given_am1=values["z_given_am"],
                        outcome_az=values["outcome"], u_vals=u_vals, v_vals=v_vals,
                        clip_fractions=clip_fractions)


def shift_weight_values(dataset: Dataset, fits: NuisanceFits,
                        a_prime: int, a_star: int) -> np.ndarray:
    """The mediator-shift weight h at each row's observed (z, m, w).

    Computed from the literal three-ratio formula; when a' = a* the
    propensity ratios cancel to exactly one and h reduces to q/r.
    """
    z = dataset.column(dataset.schema.post_treatment).astype(float)
    return _shift_weight(fits.propensity1, fits.propensity_given_m1,
                         fits.z_given_a1[:, a_prime], fits.z_given_am1[:, a_prime],
                         z, a_prime, a_star)


def pseudo_outcome_and_weight(dataset: Dataset, fits: NuisanceFits, a_prime: int,
                              a_star: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row pseudo-outcomes for one contrast pair and the shift weight h
    they use, computed from (dataset, fits) on every call."""
    pair = (a_prime, a_star)
    if pair not in fits.u_vals:
        raise MissingArm(pair)
    if dataset.n != fits.plan.n:
        raise SchemaMismatch("nuisance fits belong to a different dataset")
    schema = dataset.schema
    a = dataset.column(schema.treatment).astype(float)
    z = dataset.column(schema.post_treatment).astype(float)
    y = dataset.column(schema.outcome).astype(float)

    ind_ap = (a == a_prime).astype(float)
    ind_st = (a == a_star).astype(float)
    g_ap = _prob_of(fits.propensity1, a_prime)
    g_st = _prob_of(fits.propensity1, a_star)
    q1 = fits.z_given_a1[:, a_prime]
    h = shift_weight_values(dataset, fits, a_prime, a_star)
    b_obs = fits.outcome_az[np.arange(dataset.n), a_prime, z.astype(int)]
    u = fits.u_vals[pair]
    v = fits.v_vals[pair]
    terms = {
        "outcome_residual": ind_ap / g_ap * h * (y - b_obs),
        "z_residual": ind_ap / g_ap * (u[:, 1] - u[:, 0]) * (z - q1),
        "plugin_centered": ind_st / g_st * (_plugin(fits.outcome_az, fits.z_given_a1,
                                                    a_prime) - v),
        "projection": v,
    }
    total = np.zeros(dataset.n)
    for name, arr in terms.items():
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise NonFinitePseudoOutcome(name, int(bad[0]))
        total += arr
    return total, h


@dataclass
class PseudoOutcomes:
    """Blip transform per row: the (1,1) and (1,0) arms and their difference,
    with fold provenance and shift-weight extremes for positivity audits."""

    d11: np.ndarray
    d10: np.ndarray
    values: np.ndarray
    fold: np.ndarray
    h_range: dict

    @property
    def n(self) -> int:
        return len(self.values)


def pseudo_contrast(dataset: Dataset, fits: NuisanceFits) -> PseudoOutcomes:
    """D = D^(1,1) - D^(1,0): the unbiased transform whose conditional mean
    given V is the blip."""
    d11, h11 = pseudo_outcome_and_weight(dataset, fits, 1, 1)
    d10, h10 = pseudo_outcome_and_weight(dataset, fits, 1, 0)
    h_range = {(1, 1): (float(h11.min()), float(h11.max())),
               (1, 0): (float(h10.min()), float(h10.max()))}
    return PseudoOutcomes(d11=d11, d10=d10, values=d11 - d10,
                          fold=fits.plan.assignment.copy(), h_range=h_range)
