"""Weighted regression learners, the stacking ensemble, and the adaptive lasso.

Every learner exposes ``fit(X, y, w, seed) -> model`` with ``model.predict(X)``
and is deterministic given (data, weights, seed). Binary {0,1} targets are fit
as probabilities and predictions are clipped to [0, 1]; continuous targets are
clipped to the observed training range expanded by 10%. Stack weights are the
exact simplex-constrained least-squares solution; ties go to the fewest members,
then the earliest in stack order. Solvers that stop at a cap warn.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .crossfit import crossfit_predict, make_plan
from .errors import (ConvergenceWarning, DroppedMemberWarning, NonFiniteFeature,
                     SingularDesignWarning)

IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
CD_MAX_ITER = 1000
N_LAMBDAS = 50
SATURATED_MAX_FEATURES = 10


def _check_features(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("feature matrix holds non-finite entries")
    return X


def _check_target(y, w):
    y = np.asarray(y, dtype=float)
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonFiniteFeature("target vector holds non-finite entries")
    return y, w


def _is_binary(y: np.ndarray) -> bool:
    return bool(np.all((y == 0.0) | (y == 1.0)))


def _pred_bounds(y: np.ndarray, binary: bool) -> tuple[float, float]:
    if binary:
        return 0.0, 1.0
    lo, hi = float(y.min()), float(y.max())
    pad = 0.1 * (hi - lo)
    return lo - pad, hi + pad


def _wmean(y, w) -> float:
    return float(np.sum(w * y) / np.sum(w))


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


# ---------------------------------------------------------------------------
# mean learner

@dataclass
class FittedMean:
    value: float
    lo: float
    hi: float

    def predict(self, X) -> np.ndarray:
        X = _check_features(X)
        return np.full(X.shape[0], np.clip(self.value, self.lo, self.hi))


class MeanLearner:
    name = "mean"

    def fit(self, X, y, w=None, seed: int = 0) -> FittedMean:
        X = _check_features(X)
        y, w = _check_target(y, w)
        lo, hi = _pred_bounds(y, _is_binary(y))
        return FittedMean(value=_wmean(y, w), lo=lo, hi=hi)


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


def _product_basis(X: np.ndarray) -> np.ndarray:
    """Products over every non-empty subset of columns (saturated basis)."""
    n, p = X.shape
    if p > SATURATED_MAX_FEATURES:
        raise ValueError(
            f"saturated basis over {p} features would need 2^{p} columns; "
            f"cap is {SATURATED_MAX_FEATURES}"
        )
    cols = []
    for mask in range(1, 2 ** p):
        prod = np.ones(n)
        for j in range(p):
            if mask >> j & 1:
                prod = prod * X[:, j]
        cols.append(prod)
    return np.column_stack(cols) if cols else np.empty((n, 0))


@dataclass
class FittedGLM:
    beta: np.ndarray            # intercept first
    binary: bool
    lo: float
    hi: float
    singular_fallback: bool
    saturated: bool = False

    def predict(self, X) -> np.ndarray:
        X = _check_features(X)
        if self.saturated:
            X = _product_basis(X)
        eta = self.beta[0] + X @ self.beta[1:]
        out = _expit(eta) if self.binary else eta
        return np.clip(out, self.lo, self.hi)


@dataclass
class FittedCellMeans:
    """Saturated fit over all-binary features: one weighted mean per cell."""
    keys: np.ndarray            # sorted unique cell codes
    means: np.ndarray
    fallback: float
    n_features: int
    lo: float
    hi: float

    def predict(self, X) -> np.ndarray:
        X = _check_features(X)
        code = _cell_codes(X, self.n_features)
        pos = np.searchsorted(self.keys, code)
        pos_c = np.minimum(pos, len(self.keys) - 1)
        found = self.keys[pos_c] == code if len(self.keys) else np.zeros(len(code), bool)
        out = np.where(found, self.means[pos_c] if len(self.keys) else 0.0, self.fallback)
        return np.clip(out, self.lo, self.hi)


def _cell_codes(X: np.ndarray, p: int) -> np.ndarray:
    if X.shape[1] != p:
        raise ValueError(f"expected {p} features, got {X.shape[1]}")
    weights = (1 << np.arange(p)).astype(np.int64) if p else np.empty(0, np.int64)
    return X.astype(np.int64) @ weights if p else np.zeros(X.shape[0], np.int64)


class GLMLearner:
    """Main-terms GLM: weighted least squares for continuous targets, weighted
    logistic regression by IRLS for binary ones. ``saturated=True`` fits the
    full interaction basis instead; over all-binary features that solution is
    computed directly as per-cell weighted means."""

    def __init__(self, saturated: bool = False):
        self.saturated = saturated
        self.name = "glm_sat" if saturated else "glm"

    def fit(self, X, y, w=None, seed: int = 0):
        X = _check_features(X)
        y, w = _check_target(y, w)
        binary = _is_binary(y)
        lo, hi = _pred_bounds(y, binary)
        if np.all(y == y[0]):
            # degenerate target: the exact fit is the constant itself
            return FittedMean(value=float(y[0]), lo=lo, hi=hi)
        if self.saturated:
            if X.shape[1] <= 62 and np.all((X == 0.0) | (X == 1.0)):
                return self._fit_cells(X, y, w, lo, hi)
            X = _product_basis(X)
        X1 = np.column_stack([np.ones(X.shape[0]), X])
        if binary:
            beta, singular = self._irls(X1, y, w)
        else:
            beta, singular = _solve_wls(X1, y, w, force_ridge=False)
            if singular:
                warnings.warn("collinear design; refit with ridge 1e-6",
                              SingularDesignWarning, stacklevel=2)
        return FittedGLM(beta=beta, binary=binary, lo=lo, hi=hi,
                         singular_fallback=singular, saturated=self.saturated)

    def _fit_cells(self, X, y, w, lo, hi) -> FittedCellMeans:
        p = X.shape[1]
        code = _cell_codes(X, p)
        keys, inverse = np.unique(code, return_inverse=True)
        wsums = np.bincount(inverse, weights=w, minlength=len(keys))
        ysums = np.bincount(inverse, weights=w * y, minlength=len(keys))
        fallback = _wmean(y, w)
        means = np.where(wsums > 0, ysums / np.where(wsums > 0, wsums, 1.0), fallback)
        return FittedCellMeans(keys=keys, means=means, fallback=fallback,
                               n_features=p, lo=lo, hi=hi)

    def _irls(self, X1, y, w) -> tuple[np.ndarray, bool]:
        beta = np.zeros(X1.shape[1])
        singular = False
        for _ in range(IRLS_MAX_ITER):
            eta = np.clip(X1 @ beta, -30.0, 30.0)
            p = _expit(eta)
            s = np.maximum(p * (1.0 - p), 1e-10)
            z_work = eta + (y - p) / s
            new, sing = _solve_wls(X1, z_work, w * s, force_ridge=singular)
            if sing and not singular:
                singular = True
                warnings.warn("collinear design in IRLS; continuing with ridge 1e-6",
                              SingularDesignWarning, stacklevel=3)
            delta = float(np.max(np.abs(new - beta)))
            beta = new
            if delta < IRLS_TOL:
                break
        else:
            warnings.warn(f"IRLS reached its iteration cap ({IRLS_MAX_ITER}) without "
                          "converging", ConvergenceWarning, stacklevel=3)
        return beta, singular


# ---------------------------------------------------------------------------
# penalized linear models (coordinate descent)

@dataclass
class FittedPenalized:
    coef: np.ndarray            # original scale, full length
    intercept: float
    coef_std: np.ndarray        # standardized scale, full length
    lam: float
    binary: bool
    lo: float
    hi: float

    def predict(self, X) -> np.ndarray:
        X = _check_features(X)
        return np.clip(self.intercept + X @ self.coef, self.lo, self.hi)


def _soft(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _cd_solve(Xs, r, beta, w, wsum, lam, l1_ratio, pw, tol):
    """One coordinate-descent solve; ``r`` is maintained as y - Xs @ beta."""
    p = Xs.shape[1]
    for _ in range(CD_MAX_ITER):
        delta = 0.0
        for j in range(p):
            if not np.isfinite(pw[j]):
                continue
            bj = beta[j]
            rho = float(np.dot(w * Xs[:, j], r)) / wsum + bj
            l1 = lam * pw[j] * l1_ratio
            l2 = lam * pw[j] * (1.0 - l1_ratio)
            new = _soft(rho, l1) / (1.0 + l2)
            if new != bj:
                r -= Xs[:, j] * (new - bj)
                beta[j] = new
                delta = max(delta, abs(new - bj))
        if delta < tol:
            break
    else:
        warnings.warn(f"coordinate descent reached its sweep cap ({CD_MAX_ITER}) "
                      "without converging", ConvergenceWarning, stacklevel=2)
    return beta, r


def _weighted_standardize(X, w):
    wn = w / np.sum(w)
    mu = wn @ X
    sd = np.sqrt(wn @ (X - mu) ** 2)
    keep = sd > 1e-12
    Xs = (X[:, keep] - mu[keep]) / sd[keep]
    return Xs, mu, sd, keep


class PenalizedLearner:
    """Ridge (l1_ratio=0) or lasso (l1_ratio=1) fit by coordinate descent on
    weighted-standardized features with an unpenalized intercept. The penalty
    is chosen by internal 5-fold CV over a 50-point log grid unless ``lam``
    is given. ``penalty_weights`` scales the penalty per coefficient; an
    infinite weight forces that coefficient to exactly zero."""

    def __init__(self, l1_ratio: float = 1.0, lam: float | None = None,
                 cv_folds: int = 5, penalty_weights=None, cv_rule: str = "min"):
        self.l1_ratio = float(l1_ratio)
        self.lam = lam
        self.cv_folds = cv_folds
        self.penalty_weights = penalty_weights
        if cv_rule not in ("min", "1se"):
            raise ValueError("cv_rule must be 'min' or '1se'")
        self.cv_rule = cv_rule
        self.name = "lasso" if self.l1_ratio >= 0.5 else "ridge"

    def fit(self, X, y, w=None, seed: int = 0) -> FittedPenalized:
        X = _check_features(X)
        y, w = _check_target(y, w)
        binary = _is_binary(y)
        lo, hi = _pred_bounds(y, binary)
        n, p = X.shape

        pw_full = (np.ones(p) if self.penalty_weights is None
                   else np.asarray(self.penalty_weights, dtype=float))
        ybar = _wmean(y, w)
        Xs, mu, sd, keep = _weighted_standardize(X, w)
        pw = pw_full[keep]
        if Xs.shape[1] == 0 or np.all(~np.isfinite(pw)):
            return FittedPenalized(coef=np.zeros(p), intercept=ybar,
                                   coef_std=np.zeros(p), lam=0.0,
                                   binary=binary, lo=lo, hi=hi)

        lams = self._lambda_grid(Xs, y - ybar, w, pw)
        if self.lam is not None:
            lam = float(self.lam)
        elif len(lams) == 1:
            lam = lams[0]
        else:
            lam = self._cv_lambda(X[:, keep], y, w, pw, lams, seed)

        beta_std = self._path(Xs, y - ybar, w, pw, [lam])[0]
        coef = np.zeros(p)
        coef[keep] = beta_std / sd[keep]
        coef_std = np.zeros(p)
        coef_std[keep] = beta_std
        intercept = ybar - float(mu[keep] @ (beta_std / sd[keep]))
        return FittedPenalized(coef=coef, intercept=intercept, coef_std=coef_std,
                               lam=lam, binary=binary, lo=lo, hi=hi)

    def _lambda_grid(self, Xs, yc, w, pw) -> np.ndarray:
        wsum = float(np.sum(w))
        finite = np.isfinite(pw)
        if not np.any(finite):
            return np.array([1.0])
        rho0 = np.abs(Xs[:, finite].T @ (w * yc)) / wsum / pw[finite]
        anchor = float(rho0.max())
        if anchor <= 1e-300:
            return np.array([1.0])
        if self.l1_ratio >= 0.5:
            top = anchor / max(self.l1_ratio, 1e-3)
            return np.logspace(np.log10(top), np.log10(top * 1e-4), N_LAMBDAS)
        return np.logspace(np.log10(anchor * 100.0),
                           np.log10(anchor * 1e-4), N_LAMBDAS)

    def _path(self, Xs, yc, w, pw, lams) -> list[np.ndarray]:
        wsum = float(np.sum(w))
        scale = max(1.0, float(np.sqrt(np.sum(w * yc ** 2) / wsum)))
        tol = 1e-8 * scale
        beta = np.zeros(Xs.shape[1])
        r = yc.copy()
        out = []
        for lam in lams:
            beta, r = _cd_solve(Xs, r, beta, w, wsum, lam, self.l1_ratio, pw, tol)
            out.append(beta.copy())
        return out

    def _cv_lambda(self, Xk, y, w, pw, lams, seed) -> float:
        n = len(y)
        folds = min(self.cv_folds, n)
        plan = make_plan(n, folds, seed)
        risks = np.zeros((folds, len(lams)))
        for j in range(folds):
            tr, va = plan.train_indices(j), plan.val_indices(j)
            ytr, wtr = y[tr], w[tr]
            ybar = _wmean(ytr, wtr)
            Xs, mu, sd, keep = _weighted_standardize(Xk[tr], wtr)
            if Xs.shape[1] == 0:
                preds = [np.full(len(va), ybar)] * len(lams)
            else:
                betas = self._path(Xs, ytr - ybar, wtr, pw[keep], lams)
                Xva = (Xk[va][:, keep] - mu[keep]) / sd[keep]
                preds = [ybar + Xva @ b for b in betas]
            for k, pred in enumerate(preds):
                risks[j, k] = _wmean((y[va] - pred) ** 2, w[va])
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
class FittedBoost:
    base: float
    features: np.ndarray
    thresholds: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rate: float
    binary: bool
    lo: float
    hi: float

    def raw(self, X) -> np.ndarray:
        X = _check_features(X)
        F = np.full(X.shape[0], self.base)
        for j, t, lv, rv in zip(self.features, self.thresholds, self.left, self.right):
            F += self.rate * np.where(X[:, int(j)] <= t, lv, rv)
        return F

    def predict(self, X) -> np.ndarray:
        F = self.raw(X)
        out = _expit(F) if self.binary else F
        return np.clip(out, self.lo, self.hi)


class GBStumpLearner:
    """Depth-one gradient boosting: squared-error loss on continuous targets,
    logistic loss on binary ones, learning rate 0.1, up to 200 rounds with the
    round count picked by internal CV."""

    name = "gbstump"

    def __init__(self, max_rounds: int = 200, rate: float = 0.1, cv_folds: int = 5):
        self.max_rounds = max_rounds
        self.rate = rate
        self.cv_folds = cv_folds

    def fit(self, X, y, w=None, seed: int = 0):
        X = _check_features(X)
        y, w = _check_target(y, w)
        binary = _is_binary(y)
        lo, hi = _pred_bounds(y, binary)
        if np.all(y == y[0]):
            return FittedMean(value=float(y[0]), lo=lo, hi=hi)
        n = len(y)
        rounds = self.max_rounds
        if self.cv_folds >= 2 and n >= 2 * self.cv_folds:
            plan = make_plan(n, self.cv_folds, seed)
            losses = np.full((self.cv_folds, self.max_rounds), np.nan)
            for j in range(self.cv_folds):
                tr, va = plan.train_indices(j), plan.val_indices(j)
                _, _, val = self._boost(X[tr], y[tr], w[tr], binary,
                                        X[va], y[va], w[va])
                losses[j, :len(val)] = val
                if len(val) < self.max_rounds and len(val):
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
                           rate=self.rate, binary=binary, lo=lo, hi=hi)

    def _boost(self, X, y, w, binary, Xv=None, yv=None, wv=None, rounds=None):
        rounds = self.max_rounds if rounds is None else rounds
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
            F += self.rate * np.where(X[:, j] <= t, lv, rv)
            if Fv is not None:
                Fv += self.rate * np.where(Xv[:, j] <= t, lv, rv)
                if binary:
                    p = np.clip(_expit(Fv), 1e-12, 1 - 1e-12)
                    val_losses.append(-_wmean(yv * np.log(p) + (1 - yv) * np.log(1 - p), wv))
                else:
                    val_losses.append(_wmean((yv - Fv) ** 2, wv))
        return base, stumps, val_losses


# ---------------------------------------------------------------------------
# registry

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


def fit_learner(learner, X, y, w=None, seed: int = 0):
    """Fit one learner (instance or registry name) and return its model."""
    if isinstance(learner, str):
        learner = make_learner(learner)
    X = _check_features(X)
    y, w = _check_target(y, w)
    if not (X.shape[0] == len(y) == len(w)):
        raise ValueError("X, y and w must agree in length")
    if len(y) < 2:
        raise ValueError("need at least two rows to fit")
    return learner.fit(X, y, w, seed)


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
        alpha = np.zeros(k)
        alpha[S] = a
        risk = float(np.sum(wn * (y - P @ alpha) ** 2))
        if np.all(a > 0.0) and risk < best_risk * (1.0 - 1e-12):
            best, best_risk = alpha, risk
    return best


@dataclass
class StackedEnsemble:
    member_names: list[str]
    models: list
    weights: np.ndarray
    cv_risks: np.ndarray | None
    stack_cv_risk: float | None
    binary: bool
    lo: float
    hi: float
    dropped: list[str] = field(default_factory=list)

    def predict(self, X) -> np.ndarray:
        X = _check_features(X)
        out = np.zeros(X.shape[0])
        for alpha, model in zip(self.weights, self.models):
            if alpha != 0.0:
                out += alpha * model.predict(X)
        return np.clip(out, self.lo, self.hi)


def fit_stack(members, X, y, w=None, folds: int = 5, seed: int = 0) -> StackedEnsemble:
    """Convex stacking: member weights are the exact simplex-constrained weighted
    least-squares fit to cross-validated member predictions. Tie-break: a face of
    the simplex (tried by size, then in stack order) replaces the incumbent only
    if its CV risk is lower by more than a relative 1e-12, so tied optima go to
    the fewest members, then the earliest in stack order. A member that fails to
    fit is dropped with a warning. A single member short-circuits to weight one."""
    if not members:
        raise ValueError("the stack needs at least one member")
    members = [make_learner(m) if isinstance(m, str) else m for m in members]
    X = _check_features(X)
    y, w = _check_target(y, w)
    binary = _is_binary(y)
    lo, hi = _pred_bounds(y, binary)
    n = len(y)

    if len(members) == 1:
        model = members[0].fit(X, y, w, seed=seed * 1_000_003 + 97)
        return StackedEnsemble(member_names=[members[0].name], models=[model],
                               weights=np.array([1.0]), cv_risks=None,
                               stack_cv_risk=None, binary=binary, lo=lo, hi=hi)

    plan = make_plan(n, min(folds, n), seed)
    preds = np.empty((n, len(members)))
    kept, dropped = [], []
    for mi, member in enumerate(members):
        try:
            preds[:, mi] = crossfit_predict(
                plan,
                lambda j, tr: member.fit(X[tr], y[tr], w[tr],
                                         seed=seed * 1_000_003 + mi * 101 + j),
                lambda model, va: model.predict(X[va]))
            kept.append(mi)
        except Exception as exc:  # noqa: BLE001 - any member failure drops it
            dropped.append(member.name)
            warnings.warn(f"stack member {member.name!r} dropped: {exc}",
                          DroppedMemberWarning, stacklevel=2)
    if not kept:
        raise ValueError("every stack member failed to fit")

    P = preds[:, kept]
    alpha = _simplex_lsq(P, y, w)
    cv_risks = np.array([_wmean((y - P[:, k]) ** 2, w) for k in range(P.shape[1])])
    stack_cv_risk = _wmean((y - P @ alpha) ** 2, w)

    models = [members[mi].fit(X, y, w, seed=seed * 1_000_003 + mi * 101 + 97)
              for mi in kept]
    return StackedEnsemble(member_names=[members[mi].name for mi in kept],
                           models=models, weights=alpha, cv_risks=cv_risks,
                           stack_cv_risk=float(stack_cv_risk), binary=binary,
                           lo=lo, hi=hi, dropped=dropped)


# ---------------------------------------------------------------------------
# adaptive lasso

@dataclass
class AdaptiveLassoModel:
    feature_names: list[str]
    ridge_magnitudes: np.ndarray    # first-stage |coef| on the standardized scale
    penalty_weights: np.ndarray     # inf forces an exact zero
    coef: np.ndarray                # original scale
    intercept: float
    lam: float
    lo: float
    hi: float

    def predict(self, X) -> np.ndarray:
        X = _check_features(X)
        return np.clip(self.intercept + X @ self.coef, self.lo, self.hi)

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
    X = _check_features(X)
    y, w = _check_target(y, w)
    p = X.shape[1]
    names = list(feature_names) if feature_names is not None else [
        f"x{j}" for j in range(p)]
    if len(names) != p:
        raise ValueError("feature_names length must match the feature count")

    ridge = PenalizedLearner(l1_ratio=0.0).fit(X, y, w, seed=seed)
    mags = np.abs(ridge.coef_std)
    active = mags > 1e-12
    pweights = np.where(active, 1.0 / np.where(active, mags, 1.0), np.inf)
    lo, hi = _pred_bounds(y, _is_binary(y))

    if not np.any(active):
        return AdaptiveLassoModel(feature_names=names, ridge_magnitudes=mags,
                                  penalty_weights=pweights, coef=np.zeros(p),
                                  intercept=_wmean(y, w), lam=0.0, lo=lo, hi=hi)

    lasso = PenalizedLearner(l1_ratio=1.0, penalty_weights=pweights[active],
                             cv_rule="1se").fit(X[:, active], y, w, seed=seed + 1)
    coef = np.zeros(p)
    coef[active] = lasso.coef
    return AdaptiveLassoModel(feature_names=names, ridge_magnitudes=mags,
                              penalty_weights=pweights, coef=coef,
                              intercept=lasso.intercept, lam=lasso.lam,
                              lo=lo, hi=hi)
