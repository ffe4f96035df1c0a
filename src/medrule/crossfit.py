"""J-fold cross-fitting: train on each fold's complement, evaluate in-fold.

Every fold split in the package comes from ``make_plan``, and every per-fold
fit and out-of-fold prediction goes through ``fit_folds`` and
``out_of_fold``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewRows


@dataclass(frozen=True)
class CrossFitPlan:
    """A random partition of row indices into J validation folds.

    Fold sizes differ by at most one; the assignment is deterministic given
    the seed. Training set T_j is the complement of validation set V_j.
    """

    n: int
    folds: int
    assignment: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=int)
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)

    def val_indices(self, j: int) -> np.ndarray:
        return np.nonzero(self.assignment == j)[0]

    def train_indices(self, j: int) -> np.ndarray:
        return np.nonzero(self.assignment != j)[0]


def make_plan(n: int, folds: int, seed: int) -> CrossFitPlan:
    """Uniform random partition of {0..n-1} into ``folds`` validation sets."""
    if folds > n:
        raise TooFewRows(f"cannot split {n} rows into {folds} folds")
    if folds < 2:
        raise TooFewRows("cross-fitting needs at least 2 folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % folds
    return CrossFitPlan(n=n, folds=folds, assignment=assignment, seed=seed)


def _in_fold(j: int, fn, *args):
    """Call ``fn(*args)``; an error keeps its type and attributes and gains a
    ``fold j:`` prefix on its message."""
    try:
        return fn(*args)
    except Exception as exc:
        exc.args = (f"fold {j}: {exc}",)
        raise


def fit_folds(plan: CrossFitPlan, fit_fn) -> list:
    """One model per fold: ``fit_fn(j, train_idx)`` for j = 0..J-1, called
    sequentially in fold order. Callers that stack inside a fold use
    ``learners.CV_FOLDS`` inner folds."""
    return [_in_fold(j, fit_fn, j, plan.train_indices(j)) for j in range(plan.folds)]


def out_of_fold(plan: CrossFitPlan, models, predict_fn) -> np.ndarray:
    """Out-of-fold values in row order: row i holds its entry of
    ``predict_fn(models[j(i)], val_idx)``, where the prediction is a rows-first
    array of any trailing shape."""
    out = None
    for j, model in enumerate(models):
        va = plan.val_indices(j)
        values = np.asarray(_in_fold(j, predict_fn, model, va), dtype=float)
        if out is None:
            out = np.empty((plan.n,) + values.shape[1:])
        out[va] = values
    return out


def crossfit_predict(plan: CrossFitPlan, fit_fn, predict_fn) -> np.ndarray:
    """Out-of-fold predictions: row i is predicted by the model trained on
    T_{j(i)}, so no prediction depends on the row's own target.

    ``fit_fn(j, train_idx) -> model``; ``predict_fn(model, val_idx) ->
    values``. Learner errors propagate tagged with the fold index.
    """
    return out_of_fold(plan, fit_folds(plan, fit_fn), predict_fn)
