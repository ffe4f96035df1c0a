"""Weighted regression learners, the stacking ensemble, and the adaptive lasso.

Every learner is a ``_Learner``, deterministic given (data, weights, seed): its
one public ``fit(X, y, w, seed)`` hands ``_prepare``'s checked arrays to its own
``_fit``. ``fit_stack`` runs ``_prepare`` once and fits its members (registry
names or ``_Learner`` instances) by ``_fit``, as ``fit_adaptive_lasso`` fits its
ridge and lasso stages. Every model is a ``_Bounded``, whose ``predict`` checks
the features and clips its raw prediction to [0, 1] for binary {0,1} targets, fit
as probabilities, and the observed training range expanded by 10% for continuous
ones. Stack weights are the exact simplex-constrained least-squares solution;
ties go to the fewest members, then the earliest in stack order. ``glm_sat`` is
the weighted mean of each cell of a discrete design; ridge and lasso paths are
exact from weighted sums; IRLS, the one iterative solver, warns at its cap.
"""
from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .crossfit import fit_folds, make_plan, out_of_fold
from .errors import (ConvergenceWarning, DroppedMemberWarning, NonFiniteFeature,
                     SeparationWarning, SingularDesignWarning, UnsaturableDesign)

CV_FOLDS = 5
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
ETA_CLIP = 30.0  # logistic predictions saturate here; |eta| beyond it is clipped
SEPARATION_TOL = 1e-6  # share of a step's largest move that counts as no move
N_LAMBDAS = 50
GB_ROUNDS = 200
GB_RATE = 0.1
SATURATED_MAX_FEATURES = 10  # glm_sat's dense cell table holds up to 2**10 cells
SATURATED_MAX_LEVELS = 16  # glm_sat refuses a feature with more distinct training values


def _check_features(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("feature matrix holds non-finite entries")
    return X


def _is_binary(y: np.ndarray) -> bool:
    return bool(np.all((y == 0.0) | (y == 1.0)))


def _pred_bounds(y: np.ndarray, binary: bool) -> tuple[float, float]:
    if binary:
        return 0.0, 1.0
    lo, hi = float(y.min()), float(y.max())
    pad = 0.1 * (hi - lo)
    return lo - pad, hi + pad


def _prepare(X, y, w):
    """The fit preamble: checked X, y and w (ones when None), whether y is
    binary, and the prediction bounds ``(lo, hi)``."""
    X = _check_features(X)
    y = np.asarray(y, dtype=float)
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonFiniteFeature("target vector holds non-finite entries")
    if not (X.shape[0] == len(y) == len(w)):
        raise ValueError("X, y and w must agree in length")
    binary = _is_binary(y)
    return X, y, w, binary, _pred_bounds(y, binary)


@dataclass(kw_only=True)
class _Bounded:
    """A fitted model: ``predict`` is its ``_raw`` prediction on checked
    features, clipped to the bounds ``[lo, hi]`` of the fit."""
    lo: float
    hi: float

    def predict(self, X) -> np.ndarray:
        return np.clip(self._raw(_check_features(X)), self.lo, self.hi)


class _Learner:
    """A learner: ``fit`` is ``_fit(X, y, w, binary, bounds, seed)`` on ``_prepare``'s output."""

    def fit(self, X, y, w=None, seed: int = 0):
        return self._fit(*_prepare(X, y, w), seed)


def _wmean(y, w) -> float:
    return float(np.sum(w * y) / np.sum(w))


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -ETA_CLIP, ETA_CLIP)))


# ---------------------------------------------------------------------------
# mean learner

@dataclass
class FittedMean(_Bounded):
    value: float

    def _raw(self, X) -> np.ndarray:
        return np.full(X.shape[0], self.value)


class MeanLearner(_Learner):
    name = "mean"

    def _fit(self, X, y, w, binary, bounds, seed) -> FittedMean:
        return FittedMean(value=_wmean(y, w), lo=bounds[0], hi=bounds[1])


# ---------------------------------------------------------------------------
# generalized linear models

def _solve_wls(X1: np.ndarray, y: np.ndarray, w: np.ndarray,
               force_ridge: bool) -> tuple[np.ndarray, bool]:
    """Weighted least-squares solve with a ridge fallback on singular designs."""
    A = (X1 * w[:, None]).T @ X1
    b = X1.T @ (w * y)
    evals = np.linalg.eigvalsh(A)
    singular = bool(evals[0] <= max(evals[-1], 0.0) * 1e-12)
    if singular or force_ridge:
        A = A + 1e-6 * np.eye(A.shape[0])
    return np.linalg.solve(A, b), singular


@dataclass
class FittedGLM(_Bounded):
    beta: np.ndarray            # intercept first
    binary: bool
    singular_fallback: bool

    def _raw(self, X) -> np.ndarray:
        eta = self.beta[0] + X @ self.beta[1:]
        return _expit(eta) if self.binary else eta


@dataclass
class FittedCellMeans(_Bounded):
    """Saturated fit over discrete features: one weighted mean per cell. Up to
    ``2**SATURATED_MAX_FEATURES`` cells, the fit bincounts ``_cell_codes``
    straight into ``table``, which predict indexes; above it, predict searches
    ``keys``. Unseen cells, zero-weight cells and off-grid rows get ``fallback``."""
    keys: np.ndarray            # sorted codes of the cells holding any training row
    means: np.ndarray
    fallback: float
    place: np.ndarray           # place value of each column's digit
    levels: dict                # column -> sorted training levels, for columns not in {0, 1}
    cells: int                  # the number of cells; the code of an off-grid row
    table: np.ndarray | None = None

    def _raw(self, X) -> np.ndarray:
        code = _cell_codes(X, self.place, self.levels, self.cells)
        if self.table is not None:
            return self.table[code]
        pos = np.minimum(np.searchsorted(self.keys, code), len(self.keys) - 1)
        return np.where(self.keys[pos] == code, self.means[pos], self.fallback)


def _cell_codes(X: np.ndarray, place: np.ndarray, levels: dict, cells: int) -> np.ndarray:
    """Each row's cell code: its digits times ``place``, or ``cells`` if a value is
    off its column's grid. Column j's digit is its value in {0, 1}, or for j in
    ``levels`` its position in ``levels[j]``. Float products are exact at table sizes."""
    if X.shape[1] != len(place):
        raise ValueError(f"expected {len(place)} features, got {X.shape[1]}")
    on = (X == 0.0) | (X == 1.0)
    X = X.copy() if levels else X
    for j, lv in levels.items():
        pos = np.minimum(np.searchsorted(lv, X[:, j]), len(lv) - 1)
        on[:, j] = lv[pos] == X[:, j]
        X[:, j] = pos
    if np.all(on):
        return (X.astype(place.dtype, copy=False) @ place).astype(np.int64, copy=False)
    code = (np.where(on, X, 0.0).astype(place.dtype) @ place).astype(np.int64, copy=False)
    return np.where(np.all(on, axis=1), code, cells)


def _fit_cells(X, y, w, lo, hi) -> FittedCellMeans:
    on = (X == 0.0) | (X == 1.0)
    levels = {} if np.all(on) else {j: np.unique(X[:, j]) for j in np.flatnonzero(~on.all(0))}
    radix = [len(levels.get(j, (0, 1))) for j in range(X.shape[1])]
    *place, cells = itertools.accumulate(radix, operator.mul, initial=1)
    if max(radix, default=0) > SATURATED_MAX_LEVELS or cells > 2 ** 62:
        raise UnsaturableDesign(
            f"glm_sat needs at most {SATURATED_MAX_LEVELS} distinct values per feature and "
            f"2**62 cells; this design has up to {max(radix)} and {cells:.3g} cells")
    dense = cells <= 2 ** SATURATED_MAX_FEATURES  # bins: the codes, one more for off-grid rows
    place = np.array(place, dtype=float if dense else np.int64)
    code = _cell_codes(X, place, levels, cells)
    keys, bins = ((np.flatnonzero(np.bincount(code, minlength=cells)), code) if dense
                  else np.unique(code, return_inverse=True))
    size = cells + 1 if dense else len(keys)
    wsums = np.bincount(bins, weights=w, minlength=size)
    ysums = np.bincount(bins, weights=w * y, minlength=size)
    fallback = _wmean(y, w)
    means = np.where(wsums > 0, ysums / np.where(wsums > 0, wsums, 1.0), fallback)
    return FittedCellMeans(keys=keys, means=means[keys] if dense else means,
                           fallback=fallback, place=place, levels=levels, cells=cells,
                           lo=lo, hi=hi, table=means if dense else None)


class GLMLearner(_Learner):
    """Main-terms GLM: weighted least squares for continuous targets, weighted
    logistic regression by IRLS for binary ones. ``saturated=True`` fits the
    weighted mean of each cell of discrete features instead (``_fit_cells``),
    refusing over ``SATURATED_MAX_LEVELS`` values in a feature or 2**62 cells."""

    def __init__(self, saturated: bool = False):
        self.saturated = saturated
        self.name = "glm_sat" if saturated else "glm"

    def _fit(self, X, y, w, binary, bounds, seed):
        if np.all(y == y[0]):
            # degenerate target: the exact fit is the constant itself
            return FittedMean(value=float(y[0]), lo=bounds[0], hi=bounds[1])
        if self.saturated:
            return _fit_cells(X, y, w, *bounds)
        X1 = np.column_stack([np.ones(X.shape[0]), X])
        if binary:
            beta, singular = self._irls(X1, y, w)
        else:
            beta, singular = _solve_wls(X1, y, w, force_ridge=False)
            if singular:
                warnings.warn("collinear design; refit with ridge 1e-6",
                              SingularDesignWarning, stacklevel=2)
        return FittedGLM(beta=beta, binary=binary, lo=bounds[0], hi=bounds[1],
                         singular_fallback=singular)

    def _irls(self, X1, y, w) -> tuple[np.ndarray, bool]:
        """Logistic IRLS from beta = 0.

        On separated data the likelihood has no maximum and IRLS would walk
        towards |eta| = inf. A step that moves no row's eta away from its label
        is a separating direction (Albert & Anderson 1984): the fit is pushed
        along it until every row it moves has |eta| at the clip bound, and
        returned with a SeparationWarning.
        """
        beta = np.zeros(X1.shape[1])
        eta = np.zeros(X1.shape[0])  # X1 @ beta, unclipped
        toward = np.where(w > 0, 2.0 * y - 1.0, 0.0)  # +1: a larger eta fits the row better
        singular = False
        for _ in range(IRLS_MAX_ITER):
            clipped = np.clip(eta, -ETA_CLIP, ETA_CLIP)
            p = 1.0 / (1.0 + np.exp(-clipped))
            s = np.maximum(p * (1.0 - p), 1e-10)
            z_work = clipped + (y - p) / s
            new, sing = _solve_wls(X1, z_work, w * s, force_ridge=singular)
            if sing and not singular:
                singular = True
                warnings.warn("collinear design in IRLS; continuing with ridge 1e-6",
                              SingularDesignWarning, stacklevel=3)
            delta = float(np.max(np.abs(new - beta)))
            new_eta = X1 @ new
            move = new_eta - eta
            largest = float(np.max(np.abs(move)))
            if (delta >= IRLS_TOL and largest > 0.0
                    and np.min(toward * move) >= -SEPARATION_TOL * largest):
                moving = np.abs(move) > SEPARATION_TOL * largest
                reach = (ETA_CLIP - np.sign(move[moving]) * new_eta[moving]) / np.abs(move[moving])
                warnings.warn("IRLS stopped early on separated data; the fit is clipped "
                              f"at |eta| = {ETA_CLIP:g}", SeparationWarning, stacklevel=3)
                return new + max(0.0, float(np.max(reach))) * (new - beta), singular
            beta, eta = new, new_eta
            if delta < IRLS_TOL:
                break
        else:
            warnings.warn(f"IRLS reached its iteration cap ({IRLS_MAX_ITER}) without "
                          "converging", ConvergenceWarning, stacklevel=3)
        return beta, singular


# ---------------------------------------------------------------------------
# penalized linear models (exact paths from weighted sums)

@dataclass
class FittedPenalized(_Bounded):
    coef: np.ndarray            # original scale, full length
    intercept: float
    coef_std: np.ndarray        # standardized scale, full length
    lam: float
    binary: bool

    def _raw(self, X) -> np.ndarray:
        return self.intercept + X @ self.coef


def _standardize(M, pw, ridge):
    """Standardized Gram ``G`` and correlations ``c`` of a training set from its
    weighted sums ``M = Z'WZ``, ``Z = [1, x, y]`` centred by the all-row mean
    (so subtracting a held-out block's sums does not cancel). Penalty weights
    fold into ``scale``: the coefficient on x_j is g_j / scale_j. A column with
    variance <= 1e-14 of its mean square, or an infinite weight, gets scale inf."""
    mean = M[0, 1:] / M[0, 0]
    C = M[1:, 1:] / M[0, 0] - np.outer(mean, mean)
    var = np.diag(C)[:-1]
    keep = (var > 1e-14 * np.diag(M)[1:-1] / M[0, 0]) & np.isfinite(pw)
    sd = np.sqrt(np.maximum(var, 0.0))
    pw = np.where(keep, pw, 1.0)
    scale = np.where(keep, sd * (np.sqrt(pw) if ridge else pw), np.inf)
    return C[:-1, :-1] / np.outer(scale, scale), C[:-1, -1] / scale, scale, sd, mean


def _lasso_path(G, c, lams) -> np.ndarray:
    """Exact minimizers of g'Gg/2 - c'g + lam*|g|_1 at each lam of a descending
    grid, by the lasso homotopy (Efron, Hastie, Johnstone & Tibshirani 2004;
    Osborne, Presnell & Turlach 2000). The path is linear in lam between knots
    where a column enters, its |correlation| c_j - (Gg)_j reaching lam, or
    leaves, its coefficient reaching zero; every grid lam >= max|c| gives
    exactly zero. Tie rule: among columns whose correlations reach lam within
    a relative 1e-12 the earliest enters first, and a column in the span of
    the active set (Schur complement <= 1e-12 of its diagonal) never enters,
    e.g. the second copy in [x, x]."""
    p = len(c)
    out = np.zeros((len(lams), p))
    g = np.zeros(p)
    active = np.zeros(p, bool)
    lam = float(np.max(np.abs(c), initial=0.0))
    k = int(np.sum(lams >= lam))
    diag = np.diag(G)
    left = None
    while k < len(lams):
        r = c - G @ g
        A = np.flatnonzero(active)
        sol = np.linalg.solve(G[A][:, A], np.column_stack([np.sign(r[A]), G[A]]))
        step = np.zeros(p)
        step[A] = sol[:, 0]
        a = G @ step    # r falls at rate a as lam falls; a = sign(r) on A
        schur = diag - np.sum(G[A] * sol[:, 1:], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a < 1.0, (lam - r) / (1.0 - a), np.inf)
            down = np.where(a > -1.0, (lam + r) / (1.0 + a), np.inf)
            leave = np.where(g * step < 0.0, -g / step, np.inf)
        if left is not None:  # a column that just left moves inward from its bound
            (up if r[left] > 0.0 else down)[left] = np.inf
        enter = np.maximum(np.minimum(up, down), 0.0)
        enter[active | (schur <= 1e-12 * diag)] = np.inf
        t = min(enter.min(), leave.min())
        stop = int(np.sum(lams >= lam - t))
        out[k:stop] = g + (lam - lams[k:stop, None]) * step
        k = stop
        if k == len(lams):
            break
        g += t * step
        lam -= t
        if leave.min() <= enter.min():
            left = int(np.argmin(leave))
            g[left] = 0.0
            active[left] = False
        else:
            left = None
            active[int(np.argmax(enter <= t + 1e-12 * lam))] = True
    return out


class PenalizedLearner(_Learner):
    """Ridge (``l1_ratio=0``) or lasso (``l1_ratio=1``) on weighted-standardized
    features with an unpenalized intercept, solved exactly (no cap, tolerance
    or warning) from each training set's weighted sums: ridge in closed form
    from one eigendecomposition, the lasso by ``_lasso_path``. The penalty is
    chosen by internal ``CV_FOLDS``-fold CV, with held-out risks from the
    held-out block's sums, over an ``N_LAMBDAS``-point log grid topped by the
    smallest lasso penalty that zeroes every coefficient (ridge: 100 times
    it). Positive ``penalty_weights`` scale the penalty per coefficient; an
    infinite weight forces that coefficient to exactly zero."""

    def __init__(self, l1_ratio: float = 1.0, penalty_weights=None,
                 cv_rule: str = "min"):
        if l1_ratio not in (0.0, 1.0):
            raise ValueError("l1_ratio must be 0 (ridge) or 1 (lasso)")
        if cv_rule not in ("min", "1se"):
            raise ValueError("cv_rule must be 'min' or '1se'")
        self.l1_ratio = float(l1_ratio)
        self.penalty_weights = penalty_weights
        self.cv_rule = cv_rule
        self.name = "lasso" if self.l1_ratio == 1.0 else "ridge"

    def _fit(self, X, y, w, binary, bounds, seed) -> FittedPenalized:
        n, p = X.shape
        pw = (np.ones(p) if self.penalty_weights is None
              else np.asarray(self.penalty_weights, dtype=float))
        shift = np.append(w @ X, w @ y) / np.sum(w)
        Z = np.column_stack([np.ones(n), X - shift[:-1], y - shift[-1]])
        plan = make_plan(n, min(CV_FOLDS, n), seed)
        blocks = [Z[va].T @ (w[va, None] * Z[va])
                  for va in map(plan.val_indices, range(plan.folds))]
        M = sum(blocks)
        G, c, scale, sd, mean = _standardize(M, pw, self.l1_ratio == 0.0)
        lams = self._lambda_grid(c)
        lam = lams[0] if len(lams) == 1 else self._cv_lambda(M, blocks, pw, lams)
        coef = self._path(G, c, lams=np.array([lam]))[0] / scale
        intercept = shift[-1] + mean[-1] - (shift[:-1] + mean[:-1]) @ coef
        return FittedPenalized(coef=coef, intercept=float(intercept),
                               coef_std=coef * sd, lam=float(lam),
                               binary=binary, lo=bounds[0], hi=bounds[1])

    def _lambda_grid(self, c) -> np.ndarray:
        anchor = float(np.max(np.abs(c), initial=0.0))
        if anchor <= 1e-300:
            return np.array([1.0])
        return anchor * np.logspace(0 if self.l1_ratio else 2, -4, N_LAMBDAS)

    def _path(self, G, c, lams) -> np.ndarray:
        if self.l1_ratio:
            return _lasso_path(G, c, lams)
        e, V = np.linalg.eigh(G)
        return (V.T @ c) / (np.maximum(e, 0.0) + lams[:, None]) @ V.T

    def _cv_lambda(self, M, blocks, pw, lams) -> float:
        folds = len(blocks)
        risks = np.empty((folds, len(lams)))
        for j, B in enumerate(blocks):
            G, c, scale, _, mean = _standardize(M - B, pw, self.l1_ratio == 0.0)
            coef = self._path(G, c, lams) / scale
            # held-out residual y - (intercept + x'coef) = [1, x, y] @ theta
            theta = np.column_stack([coef @ mean[:-1] - mean[-1], -coef,
                                     np.ones(len(lams))])
            risks[j] = np.einsum("ki,ij,kj->k", theta, B, theta) / B[0, 0]
        mean_risk = risks.mean(axis=0)
        best = int(np.argmin(mean_risk))  # ties -> largest lambda
        if self.cv_rule == "1se":
            # largest penalty whose excess risk over the minimizer is within
            # one SE; fold-paired differences so common fold noise cancels.
            # The SE estimate has only folds-1 degrees of freedom, so the
            # band is floored at 0.1% of the minimum risk.
            diffs = risks - risks[:, best][:, None]
            band = np.maximum(diffs.std(axis=0, ddof=1) / np.sqrt(folds),
                              1e-3 * mean_risk[best])
            best = int(np.argmax(diffs.mean(axis=0) <= band))
        return float(lams[best])


# ---------------------------------------------------------------------------
# gradient-boosted stumps

@dataclass
class _SplitIndex:
    """Per-feature presorted order and candidate split positions."""
    feature: int
    order: np.ndarray
    thresholds: np.ndarray
    positions: np.ndarray       # rows (in sorted order) falling at or left of t


def _split_index(X: np.ndarray) -> list[_SplitIndex]:
    out = []
    for j in range(X.shape[1]):
        x = X[:, j]
        u = np.unique(x)
        if len(u) < 2:
            continue
        mids = (u[:-1] + u[1:]) / 2.0
        if len(mids) > 32:
            mids = mids[np.linspace(0, len(mids) - 1, 32).astype(int)]
        order = np.argsort(x, kind="stable")
        pos = np.searchsorted(x[order], mids, side="right")
        out.append(_SplitIndex(feature=j, order=order, thresholds=mids, positions=pos))
    return out


def _best_stump(splits, resid, w):
    best = None
    best_score = -np.inf
    for s in splits:
        cw = np.cumsum(w[s.order])
        cwr = np.cumsum((w * resid)[s.order])
        lw = cw[s.positions - 1]
        lwr = cwr[s.positions - 1]
        rw = cw[-1] - lw
        rwr = cwr[-1] - lwr
        ok = (lw > 0) & (rw > 0)
        if not np.any(ok):
            continue
        score = np.where(ok, lwr ** 2 / np.where(lw > 0, lw, 1.0)
                         + rwr ** 2 / np.where(rw > 0, rw, 1.0), -np.inf)
        k = int(np.argmax(score))
        if score[k] > best_score:
            best_score = float(score[k])
            best = (s.feature, float(s.thresholds[k]),
                    float(lwr[k] / lw[k]), float(rwr[k] / rw[k]))
    return best


@dataclass
class FittedBoost(_Bounded):
    base: float
    features: np.ndarray
    thresholds: np.ndarray
    left: np.ndarray
    right: np.ndarray
    binary: bool

    def _raw(self, X) -> np.ndarray:
        F = np.full(X.shape[0], self.base)
        for j, t, lv, rv in zip(self.features, self.thresholds, self.left, self.right):
            F += GB_RATE * np.where(X[:, int(j)] <= t, lv, rv)
        return _expit(F) if self.binary else F


class GBStumpLearner(_Learner):
    """Depth-one gradient boosting: squared-error loss on continuous targets,
    logistic loss on binary ones, learning rate ``GB_RATE``, up to
    ``GB_ROUNDS`` rounds with the round count picked by internal
    ``CV_FOLDS``-fold CV (skipped below ``2 * CV_FOLDS`` rows)."""

    name = "gbstump"

    def _fit(self, X, y, w, binary, bounds, seed):
        if np.all(y == y[0]):
            return FittedMean(value=float(y[0]), lo=bounds[0], hi=bounds[1])
        n = len(y)
        rounds = GB_ROUNDS
        if n >= 2 * CV_FOLDS:
            plan = make_plan(n, CV_FOLDS, seed)
            losses = np.full((CV_FOLDS, GB_ROUNDS), np.nan)
            for j in range(CV_FOLDS):
                tr, va = plan.train_indices(j), plan.val_indices(j)
                _, _, val = self._boost(X[tr], y[tr], w[tr], binary,
                                        X[va], y[va], w[va])
                losses[j, :len(val)] = val
                if len(val) < GB_ROUNDS and len(val):
                    losses[j, len(val):] = val[-1]
            mean_loss = np.nanmean(losses, axis=0)
            rounds = int(np.argmin(mean_loss)) + 1 if np.any(np.isfinite(mean_loss)) else 0
        base, stumps, _ = self._boost(X, y, w, binary, rounds=rounds)
        feats = np.array([s[0] for s in stumps], dtype=float)
        return FittedBoost(base=base,
                           features=feats,
                           thresholds=np.array([s[1] for s in stumps]),
                           left=np.array([s[2] for s in stumps]),
                           right=np.array([s[3] for s in stumps]),
                           binary=binary, lo=bounds[0], hi=bounds[1])

    def _boost(self, X, y, w, binary, Xv=None, yv=None, wv=None, rounds=None):
        rounds = GB_ROUNDS if rounds is None else rounds
        splits = _split_index(X)
        pbar = min(max(_wmean(y, w), 1e-6), 1.0 - 1e-6)
        base = float(np.log(pbar / (1.0 - pbar))) if binary else _wmean(y, w)
        F = np.full(len(y), base)
        Fv = np.full(len(yv), base) if Xv is not None else None
        stumps, val_losses = [], []
        for _ in range(rounds):
            resid = y - (_expit(F) if binary else F)
            stump = _best_stump(splits, resid, w)
            if stump is None:
                break
            j, t, lv, rv = stump
            stumps.append(stump)
            F += GB_RATE * np.where(X[:, j] <= t, lv, rv)
            if Fv is not None:
                Fv += GB_RATE * np.where(Xv[:, j] <= t, lv, rv)
                if binary:
                    p = np.clip(_expit(Fv), 1e-12, 1 - 1e-12)
                    val_losses.append(-_wmean(yv * np.log(p) + (1 - yv) * np.log(1 - p), wv))
                else:
                    val_losses.append(_wmean((yv - Fv) ** 2, wv))
        return base, stumps, val_losses


# ---------------------------------------------------------------------------
# registry

DEFAULT_STACK = ("mean", "glm", "lasso")  # the documented default learner stack

_REGISTRY = {
    "mean": MeanLearner,
    "glm": GLMLearner,
    "glm_sat": lambda: GLMLearner(saturated=True),
    "lasso": lambda: PenalizedLearner(l1_ratio=1.0),
    "ridge": lambda: PenalizedLearner(l1_ratio=0.0),
    "gbstump": GBStumpLearner,
}


def make_learner(name: str):
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown learner {name!r}; choose from {sorted(_REGISTRY)}") from None


# ---------------------------------------------------------------------------
# stacking ensemble

def _simplex_lsq(P: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact weighted least squares over the probability simplex: the KKT solution
    of ``[Q_SS 1; 1' 0][a; mu] = [c_S; 1]`` on each face S in fit_stack's order,
    skipping singular systems and any weight <= 0 (a boundary optimum reappears
    on a smaller face), ranked by the risk computed from ``P`` itself."""
    wn = w / np.sum(w)
    Q = P.T @ (P * wn[:, None])
    c = P.T @ (wn * y)
    k = P.shape[1]
    best, best_risk = None, np.inf
    faces = (list(f) for m in range(1, k + 1) for f in itertools.combinations(range(k), m))
    for S in faces:
        kkt = np.ones((len(S) + 1, len(S) + 1))
        kkt[:-1, :-1] = Q[np.ix_(S, S)]
        kkt[-1, -1] = 0.0
        try:
            a = np.linalg.solve(kkt, np.append(c[S], 1.0))[:-1]
        except np.linalg.LinAlgError:
            continue
        if np.all(a > 0.0):
            alpha = np.zeros(k)
            alpha[S] = a
            risk = float(np.sum(wn * (y - P @ alpha) ** 2))
            if risk < best_risk * (1.0 - 1e-12):
                best, best_risk = alpha, risk
    return best


@dataclass
class StackedEnsemble(_Bounded):
    """The stack's ``predict`` checks X once; each member's ``_raw`` on it is
    clipped to that member's own bounds, as the member's ``predict`` would."""
    member_names: list[str]
    models: list
    weights: np.ndarray
    cv_risks: np.ndarray | None
    stack_cv_risk: float | None
    binary: bool
    dropped: list[str] = field(default_factory=list)

    def _raw(self, X) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for alpha, model in zip(self.weights, self.models):
            if alpha != 0.0:
                out += alpha * np.clip(model._raw(X), model.lo, model.hi)
        return out


def fit_stack(members, X, y, w=None, seed: int = 0) -> StackedEnsemble:
    """Convex stacking: member weights are the exact simplex-constrained weighted
    least-squares fit to ``CV_FOLDS``-fold member predictions. Tie-break: a face of
    the simplex (tried by size, then in stack order) replaces the incumbent only
    if its CV risk is lower by more than a relative 1e-12, so tied optima go to
    the fewest members, then the earliest in stack order. Members are registry names
    or ``_Learner`` instances (else ``TypeError``); all fit by ``_fit`` on one gather
    per inner fold. One that fails to fit is skipped in later folds and dropped
    with a warning. A single member short-circuits to weight one."""
    if not members:
        raise ValueError("the stack needs at least one member")
    members = [make_learner(m) if isinstance(m, str) else m for m in members]
    if not all(isinstance(m, _Learner) for m in members):
        raise TypeError(f"stack members must be registry names or learners, got {members!r}")
    X, y, w, binary, (lo, hi) = _prepare(X, y, w)

    if len(members) == 1:
        model = members[0]._fit(X, y, w, binary, (lo, hi), seed * 1_000_003 + 97)
        return StackedEnsemble(member_names=[members[0].name], models=[model],
                               weights=np.array([1.0]), cv_risks=None,
                               stack_cv_risk=None, binary=binary, lo=lo, hi=hi)

    plan = make_plan(len(y), min(CV_FOLDS, len(y)), seed)
    failed = {}  # member index -> "fold j: message" of its first failure

    def fit_fold(j, tr):
        Xt, yt, wt = X[tr], y[tr], w[tr]
        bt = _is_binary(yt)
        bounds = _pred_bounds(yt, bt)
        models = {}
        for mi, member in enumerate(members):
            if mi not in failed:
                try:
                    models[mi] = member._fit(Xt, yt, wt, bt, bounds,
                                             seed * 1_000_003 + mi * 101 + j)
                except Exception as exc:  # noqa: BLE001 - any member failure drops it
                    failed[mi] = f"fold {j}: {exc}"
        return models

    fold_models = fit_folds(plan, fit_fold)
    kept = [mi for mi in range(len(members)) if mi not in failed]
    for mi in sorted(failed):
        warnings.warn(f"stack member {members[mi].name!r} dropped: {failed[mi]}",
                      DroppedMemberWarning, stacklevel=2)
    if not kept:
        raise ValueError("every stack member failed to fit")

    def predict_fold(models, va):
        Xv = X[va]
        return np.column_stack([np.clip(models[mi]._raw(Xv), models[mi].lo, models[mi].hi)
                                for mi in kept])

    # column-major, as BLAS rounds P'WP in _simplex_lsq differently per layout
    P = np.asfortranarray(out_of_fold(plan, fold_models, predict_fold))
    alpha = _simplex_lsq(P, y, w)
    cv_risks = np.array([_wmean((y - P[:, k]) ** 2, w) for k in range(P.shape[1])])
    stack_cv_risk = _wmean((y - P @ alpha) ** 2, w)

    models = [members[mi]._fit(X, y, w, binary, (lo, hi), seed * 1_000_003 + mi * 101 + 97)
              for mi in kept]
    return StackedEnsemble(member_names=[members[mi].name for mi in kept],
                           models=models, weights=alpha, cv_risks=cv_risks,
                           stack_cv_risk=float(stack_cv_risk), binary=binary,
                           lo=lo, hi=hi, dropped=[members[mi].name for mi in sorted(failed)])


# ---------------------------------------------------------------------------
# adaptive lasso

@dataclass
class AdaptiveLassoModel(_Bounded):
    feature_names: list[str]
    ridge_magnitudes: np.ndarray    # first-stage |coef| on the standardized scale
    penalty_weights: np.ndarray     # inf forces an exact zero
    coef: np.ndarray                # original scale
    intercept: float
    lam: float

    def _raw(self, X) -> np.ndarray:
        return self.intercept + X @ self.coef

    @property
    def selected(self) -> list[str]:
        return [n for n, c in zip(self.feature_names, self.coef) if c != 0.0]

    def describe(self) -> str:
        terms = [f"{self.intercept:+.4g}"]
        terms += [f"{c:+.4g}*{n}" for n, c in zip(self.feature_names, self.coef)
                  if c != 0.0]
        return " ".join(terms)


def fit_adaptive_lasso(X, y, w=None, seed: int = 0,
                       feature_names=None) -> AdaptiveLassoModel:
    """Two-stage sparse linear fit: a CV-tuned ridge provides per-coefficient
    penalty weights (inverse absolute magnitudes) for a CV-tuned lasso.
    Features the ridge zeroes out are excluded outright. The second stage
    picks its penalty by the one-SE rule, trading a little prediction risk
    for the sparser, more stable support an interpretable rule needs."""
    X, y, w, binary, (lo, hi) = _prepare(X, y, w)
    p = X.shape[1]
    names = list(feature_names) if feature_names is not None else [
        f"x{j}" for j in range(p)]
    if len(names) != p:
        raise ValueError("feature_names length must match the feature count")

    ridge = PenalizedLearner(l1_ratio=0.0)._fit(X, y, w, binary, (lo, hi), seed)
    mags = np.abs(ridge.coef_std)
    active = mags > 1e-12
    pweights = np.where(active, 1.0 / np.where(active, mags, 1.0), np.inf)

    if not np.any(active):
        return AdaptiveLassoModel(feature_names=names, ridge_magnitudes=mags,
                                  penalty_weights=pweights, coef=np.zeros(p),
                                  intercept=_wmean(y, w), lam=0.0, lo=lo, hi=hi)

    lasso = PenalizedLearner(l1_ratio=1.0, penalty_weights=pweights[active],
                             cv_rule="1se")._fit(X[:, active], y, w, binary, (lo, hi), seed + 1)
    coef = np.zeros(p)
    coef[active] = lasso.coef
    return AdaptiveLassoModel(feature_names=names, ridge_magnitudes=mags,
                              penalty_weights=pweights, coef=coef,
                              intercept=lasso.intercept, lam=lasso.lam,
                              lo=lo, hi=hi)
