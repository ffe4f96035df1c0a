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
from .learners import DEFAULT_STACK, fit_stack

CONTRAST_PAIRS = ((1, 1), (1, 0), (0, 0))


@dataclass(frozen=True)
class NuisanceConfig:
    """Learner stack and clipping used for every nuisance fit."""

    stack: tuple[str, ...] = DEFAULT_STACK
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


def _with_lead(block: np.ndarray, k: int) -> np.ndarray:
    """A copy of ``block`` behind ``k`` leading columns that the caller fills."""
    out = np.empty((block.shape[0], k + block.shape[1]))
    out[:, k:] = block
    return out


def _a_prime_terms(b, q1, r1, z, a_prime: int):
    """The terms every pair (a', .) shares: the ratio q(z|a')/r(z|a',m) at each
    row's observed z, the outcome regression b(a', z) there, and the plug-in
    sum_z b(a', z) q(z | a'), from P(Z=1|a',W) and P(Z=1|a',M,W)."""
    q, r = q1[:, a_prime], r1[:, a_prime]
    qr = np.where(z == 1.0, q, 1.0 - q) / np.where(z == 1.0, r, 1.0 - r)
    b_obs = b[np.arange(len(z)), a_prime, z.astype(int)]
    return qr, b_obs, b[:, a_prime, 1] * q + b[:, a_prime, 0] * (1.0 - q)


def _shift_weight(g1, e1, qr, a_prime: int, a_star: int) -> np.ndarray:
    """h = [g(a')/g(a*)] [q(z|a')/r(z|a',m)] [e(a*|m)/e(a'|m)] from P(A=1|W),
    P(A=1|M,W) and the q/r ratio of ``_a_prime_terms``."""
    return (_prob_of(g1, a_prime) / _prob_of(g1, a_star)) * qr \
        * (_prob_of(e1, a_star) / _prob_of(e1, a_prime))


def _roles(values: np.ndarray) -> dict[str, np.ndarray]:
    """Name the columns of fit_nuisances' evaluate(): g, e, q[., arm],
    r[., arm] and b[., arm, z]."""
    return {"propensity": values[:, 0], "propensity_given_m": values[:, 1],
            "z_given_a": values[:, 2:4], "z_given_am": values[:, 4:6],
            "outcome": values[:, 6:10].reshape(-1, 2, 2)}


def fit_nuisances(dataset: Dataset, plan: CrossFitPlan,
                  config: NuisanceConfig | None = None) -> NuisanceFits:
    """Fit every nuisance with cross-fitting and evaluate it out of fold.

    Each fold builds its designs from blocks gathered at its training rows,
    and scores those rows only at the a' arms that its u/v targets read; the
    out-of-fold evaluation covers every arm.

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

    def evaluate(fm: FoldModels, W, MW, arms=(0, 1)) -> np.ndarray:
        """Clipped probabilities and rescaled outcome regression at the rows of
        blocks W and MW, laid out as ``_roles`` names; other arms hold NaN."""
        out = np.full((len(W), 10), np.nan)
        v = _roles(out)  # views that write into out
        v["propensity"][:] = _clip_prob(fm.propensity.predict(W), eps)
        v["propensity_given_m"][:] = _clip_prob(fm.propensity_given_m.predict(MW), eps)
        aW, aMW, azMW = _with_lead(W, 1), _with_lead(MW, 1), _with_lead(MW, 2)
        for arm in arms:
            aW[:, 0] = aMW[:, 0] = arm
            v["z_given_a"][:, arm] = _clip_prob(fm.z_given_a.predict(aW), eps)
            v["z_given_am"][:, arm] = _clip_prob(fm.z_given_am.predict(aMW), eps)
            for zz in (0, 1):
                azMW[:, :2] = arm, zz
                b = fm.outcome.predict(azMW)
                v["outcome"][:, arm, zz] = np.clip(b * (hi - lo) + lo, lo, hi)
        return out

    def fit_fold(j: int, tr: np.ndarray) -> FoldModels:
        def fit(X, target, weights, role):
            return fit_stack(config.stack, X, target, weights,
                             seed=_seed(config.seed, j, role))

        W, MW, a_tr, z_tr, w_tr = Wb[tr], MWb[tr], a[tr], z[tr], w[tr]
        fm = FoldModels(
            propensity=fit(W, a_tr, w_tr, 0),
            propensity_given_m=fit(MW, a_tr, w_tr, 1),
            z_given_a=fit(np.column_stack([a_tr, W]), z_tr, w_tr, 2),
            z_given_am=fit(np.column_stack([a_tr, MW]), z_tr, w_tr, 3),
            outcome=fit(np.column_stack([a_tr, z_tr, MW]), ys[tr], w_tr, 4),
            projections={})
        arms = sorted({ap for ap, _ in config.pairs})
        v = _roles(evaluate(fm, W, MW, arms))
        terms = {ap: _a_prime_terms(v["outcome"], v["z_given_a"], v["z_given_am"], z_tr, ap)
                 for ap in arms}
        zW = np.column_stack([z_tr, W])
        for k, (ap, st) in enumerate(config.pairs):
            qr, b_obs, plugin = terms[ap]
            h_tr = _shift_weight(v["propensity"], v["propensity_given_m"], qr, ap, st)
            on_ap, on_st = a_tr == ap, a_tr == st
            m_u = fit(zW[on_ap], (b_obs * h_tr)[on_ap], w_tr[on_ap], 5 + 2 * k)
            m_v = fit(W[on_st], plugin[on_st], w_tr[on_st], 6 + 2 * k)
            fm.projections[(ap, st)] = (m_u, m_v)
        return fm

    fold_models = fit_folds(plan, fit_fold)

    def project(fm: FoldModels, rows) -> np.ndarray:
        W = Wb[rows]
        zW = _with_lead(W, 1)
        cols = []
        for m_u, m_v in fm.projections.values():
            for zz in (0, 1):
                zW[:, 0] = zz
                cols.append(m_u.predict(zW))
            cols.append(m_v.predict(W))
        return np.column_stack(cols)

    values = _roles(out_of_fold(plan, fold_models,
                                lambda fm, va: evaluate(fm, Wb[va], MWb[va])))
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


def _pair_pseudo_outcome(fits: NuisanceFits, a, z, y, side, a_prime: int,
                         a_star: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row pseudo-outcome D^(a', a*) and the mediator-shift weight h it
    uses, from the a'-side terms ``side`` that every pair (a', .) shares; h is
    the literal three-ratio formula at each row's observed (z, m, w), and when
    a' = a* its propensity ratios cancel to exactly one and h reduces to q/r."""
    ind_ap, g_ap, qr, b_obs, plugin = side
    ind_st = (a == a_star).astype(float)
    g_st = _prob_of(fits.propensity1, a_star)
    h = _shift_weight(fits.propensity1, fits.propensity_given_m1, qr, a_prime, a_star)
    u = fits.u_vals[a_prime, a_star]
    v = fits.v_vals[a_prime, a_star]
    terms = {
        "outcome_residual": ind_ap / g_ap * h * (y - b_obs),
        "z_residual": ind_ap / g_ap * (u[:, 1] - u[:, 0]) * (z - fits.z_given_a1[:, a_prime]),
        "plugin_centered": ind_st / g_st * (plugin - v),
        "projection": v,
    }
    total = np.zeros(len(z))
    for name, arr in terms.items():
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise NonFinitePseudoOutcome(name, int(bad[0]))
        total += arr
    return total, h


@dataclass
class PseudoOutcomes:
    """Per-row pseudo-outcome ``d[pair]`` and shift weight ``h[pair]`` of
    every fitted contrast pair (a', a*), and the blip transform ``values`` =
    D^(1,1) - D^(1,0) (None when the fits lack either pair). Carries the fold
    provenance, and the clipping epsilon and fold count that effect estimates
    audit against and report."""

    d: dict
    h: dict
    values: np.ndarray | None
    fold: np.ndarray
    epsilon: float
    folds: int

    def __getitem__(self, pair) -> np.ndarray:
        """D^(a', a*) per row; MissingArm when the fits lack the pair."""
        if pair not in self.d:
            raise MissingArm(pair)
        return self.d[pair]

    @property
    def n(self) -> int:
        return len(self.fold)


def pseudo_contrast(dataset: Dataset, fits: NuisanceFits) -> PseudoOutcomes:
    """Every fitted pair's pseudo-outcome and shift weight, each built once (its
    a'-side terms once per a'), and D = D^(1,1) - D^(1,0): the unbiased
    transform whose conditional mean given V is the blip."""
    if dataset.n != fits.plan.n:
        raise SchemaMismatch("nuisance fits belong to a different dataset")
    schema = dataset.schema
    a = dataset.column(schema.treatment).astype(float)
    z = dataset.column(schema.post_treatment).astype(float)
    y = dataset.column(schema.outcome).astype(float)
    sides = {ap: ((a == ap).astype(float), _prob_of(fits.propensity1, ap),
                  *_a_prime_terms(fits.outcome_az, fits.z_given_a1, fits.z_given_am1, z, ap))
             for ap in {ap for ap, _ in fits.pairs}}
    d, h = {}, {}
    for pair in fits.pairs:
        d[pair], h[pair] = _pair_pseudo_outcome(fits, a, z, y, sides[pair[0]], *pair)
    values = d[1, 1] - d[1, 0] if (1, 1) in d and (1, 0) in d else None
    return PseudoOutcomes(d=d, h=h, values=values, fold=fits.plan.assignment.copy(),
                          epsilon=fits.config.epsilon, folds=fits.plan.folds)
