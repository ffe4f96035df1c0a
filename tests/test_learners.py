import warnings

import numpy as np
import pytest

from medrule import fit_adaptive_lasso, fit_learner, fit_stack, make_learner
from medrule import learners
from medrule.crossfit import crossfit_predict, make_plan
from medrule.errors import (ConvergenceWarning, DroppedMemberWarning, NonFiniteFeature,
                            SeparationWarning, SingularDesignWarning)
from medrule.learners import GLMLearner, PenalizedLearner, _simplex_lsq


def test_mean_learner_weighted_mean():
    model = fit_learner("mean", np.zeros((4, 1)), [0, 1, 1, 1])
    assert model.predict(np.zeros((3, 1)))[0] == pytest.approx(0.75)
    model = fit_learner("mean", np.zeros((2, 1)), [0.0, 1.0], w=[3.0, 1.0])
    assert model.predict(np.zeros((1, 1)))[0] == pytest.approx(0.25)


def test_glm_interpolates_exact_linear_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 1))
    model = fit_learner("glm", x, 2.0 * x[:, 0])
    assert model.beta[1] == pytest.approx(2.0, abs=1e-6)
    assert model.beta[0] == pytest.approx(0.0, abs=1e-6)


def test_glm_logistic_recovers_coefficients():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20000, 1))
    p = 1.0 / (1.0 + np.exp(-(0.4 + 1.0 * x[:, 0])))
    y = (rng.random(20000) < p).astype(float)
    model = fit_learner("glm", x, y)
    assert model.binary
    assert model.beta[0] == pytest.approx(0.4, abs=0.1)
    assert model.beta[1] == pytest.approx(1.0, abs=0.1)
    assert np.all((model.predict(x) >= 0) & (model.predict(x) <= 1))


def test_glm_collinear_falls_back_to_ridge():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 1))
    X = np.column_stack([x, x])  # exactly collinear
    with pytest.warns(SingularDesignWarning):
        model = fit_learner("glm", X, 3.0 * x[:, 0])
    assert model.singular_fallback
    assert np.all(np.isfinite(model.predict(X)))


def test_irls_warns_at_iteration_cap(monkeypatch):
    rng = np.random.default_rng(25)
    x = rng.normal(size=(500, 1))
    y = (rng.random(500) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
    monkeypatch.setattr(learners, "IRLS_MAX_ITER", 1)
    with pytest.warns(ConvergenceWarning) as record:
        fit_learner("glm", x, y)
    assert [str(r.message) for r in record] == [
        "IRLS reached its iteration cap (1) without converging"]


def test_non_finite_feature_rejected():
    with pytest.raises(NonFiniteFeature):
        fit_learner("glm", np.array([[1.0], [np.nan]]), [0.0, 1.0])


CONTRACT_FITS = [
    *(pytest.param(lambda X, y, w, name=name: make_learner(name).fit(X, y, w), id=name)
      for name in ("mean", "glm", "glm_sat", "lasso", "ridge", "gbstump")),
    pytest.param(lambda X, y, w: fit_stack(["mean", "glm"], X, y, w), id="stack"),
    # stack members skip their own feature check; the stack's guards them
    *(pytest.param(lambda X, y, w, m=members: fit_stack(m, X, y, w),
                   id="stack-" + "-".join(members))
      for members in (["glm_sat"], ["mean", "glm_sat"])),
    pytest.param(fit_adaptive_lasso, id="adaptive-lasso"),
]


@pytest.mark.parametrize("fit", CONTRACT_FITS)
def test_fitted_model_contract(fit):
    """Every fit rejects X, y and w of mismatched lengths; every model rejects
    non-finite features and keeps far-out predictions inside [lo, hi]."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(100, 2))
    y = 1.0 + X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.normal(size=100)
    w = rng.uniform(0.5, 2.0, size=100)
    with pytest.raises(ValueError, match="agree in length"):
        fit(X, y[:99], None)
    with pytest.raises(ValueError, match="agree in length"):
        fit(X, y, w[:99])
    model = fit(X, y, w)
    with pytest.raises(NonFiniteFeature):
        model.predict(np.array([[0.0, np.nan]]))
    pred = model.predict(np.array([[1e3, -1e3], [-1e3, 1e3], [50.0, 50.0]]))
    assert np.all((model.lo <= pred) & (pred <= model.hi))
    assert model.lo < y.min() and y.max() < model.hi
    if getattr(model, "member_names", None) == ["glm_sat"]:
        with pytest.raises(ValueError):
            model.predict(X[:, :1])


def test_lasso_full_shrinkage_at_huge_penalty(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 3))
    w = rng.uniform(0.5, 2.0, size=60)
    y = 1.0 + X @ np.array([1.0, 0.0, 0.0]) + 0.1 * rng.normal(size=60)
    learner = PenalizedLearner(l1_ratio=1.0)
    G, c, _ = _full_data_system(learner, X, y, w)
    lam_max = np.max(np.abs(c))
    assert np.all(learner._path(G, c, np.array([1e12, 2.0 * lam_max, lam_max])) == 0.0)
    # a one-point grid is its top point, lambda_max itself
    monkeypatch.setattr(learners, "N_LAMBDAS", 1)
    model = learner.fit(X, y, w)
    assert model.lam == pytest.approx(lam_max, rel=1e-12)
    assert np.all(model.coef == 0.0)
    assert model.intercept == pytest.approx(np.sum(w * y) / np.sum(w), abs=1e-12)


def _full_data_system(learner, X, y, w):
    """The standardized system of a fit on all rows, with its scale."""
    Z = np.column_stack([np.ones(len(y)), X, y])
    Z[:, 1:] -= w @ Z[:, 1:] / w.sum()
    pw = (np.ones(X.shape[1]) if learner.penalty_weights is None
          else learner.penalty_weights)
    G, c, scale, _, _ = learners._standardize(Z.T @ (w[:, None] * Z), pw,
                                              learner.l1_ratio == 0.0)
    return G, c, scale


def _kkt_violation(X, y, w, pw, ridge, lam, coef, intercept):
    """Largest violation, relative to lam, of the optimality conditions of
    sum w r^2 / (2 sum w) + lam * sum pw_j * (|b_j| or b_j^2 / 2) in the
    weighted-standardized coefficients b, checked on the raw data."""
    wn = w / w.sum()
    sd = np.sqrt(wn @ (X - wn @ X) ** 2)
    grad = (X - wn @ X).T @ (wn * (y - intercept - X @ coef)) / sd
    fin = np.isfinite(pw)
    assert np.all(coef[~fin] == 0.0)
    grad, b, pw = grad[fin], (coef * sd)[fin], pw[fin]
    if ridge:
        gap = grad - lam * pw * b
    else:
        gap = np.where(b != 0.0, grad - lam * pw * np.sign(b),
                       np.maximum(np.abs(grad) - lam * pw, 0.0))
    return float(np.max(np.abs(gap), initial=0.0)) / lam


def _penalized_case(seed):
    """Correlated weighted design with a duplicated column (same penalty
    weight as its copy) and one infinite penalty weight."""
    rng = np.random.default_rng(seed)
    n, p = 300, 6
    X = rng.normal(size=(n, p)) @ (np.eye(p) + rng.normal(size=(p, p)))
    X[:, 4] = X[:, 1]
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    pw = rng.uniform(0.5, 2.0, size=p)
    pw[4] = pw[1]
    pw[2] = np.inf
    return X, y, rng.uniform(0.5, 2.0, size=n), pw


@pytest.mark.parametrize("l1_ratio", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(10))
def test_penalized_path_meets_kkt_certificate(l1_ratio, seed):
    X, y, w, pw = _penalized_case(200 + seed)
    learner = PenalizedLearner(l1_ratio=l1_ratio, penalty_weights=pw)
    G, c, scale = _full_data_system(learner, X, y, w)
    lams = learner._lambda_grid(c)
    coefs = learner._path(G, c, lams) / scale
    wn = w / w.sum()
    for lam, coef in zip(lams, coefs):
        intercept = wn @ y - (wn @ X) @ coef
        assert _kkt_violation(X, y, w, pw, l1_ratio == 0.0, lam, coef,
                              intercept) <= 1e-9
    if l1_ratio:
        assert np.all(coefs[0] == 0.0)          # the top of the grid
        assert np.all(coefs[:, 4] == 0.0)       # the copy of column 1 never enters


@pytest.mark.parametrize("seed", [3, 7, 19])
def test_lasso_fit_is_optimal_on_correlated_design(seed):
    rng = np.random.default_rng(seed)
    n, p = 200, rng.integers(2, 8)
    X = rng.normal(size=(n, p)) @ (np.eye(p) + 2.0 * rng.normal(size=(p, p)))
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    model = PenalizedLearner(1.0).fit(X, y, seed=seed)
    assert _kkt_violation(X, y, np.ones(n), np.ones(p), False, model.lam,
                          model.coef, model.intercept) <= 1e-9


def test_penalized_learner_rejects_mixed_penalty():
    with pytest.raises(ValueError):
        PenalizedLearner(l1_ratio=0.5)


def test_lasso_cv_recovers_strong_support():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(500, 5))
    y = 2.0 * X[:, 1] + 0.2 * rng.normal(size=500)
    model = fit_learner("lasso", X, y, seed=7)
    assert abs(model.coef[1]) > 1.5
    assert np.all(np.abs(np.delete(model.coef, 1)) < 0.1)


def test_ridge_keeps_all_coefficients():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 3))
    y = X @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.normal(size=300)
    model = fit_learner("ridge", X, y, seed=7)
    assert np.all(np.abs(model.coef - [1.0, -1.0, 0.5]) < 0.1)


@pytest.mark.parametrize("name", ["mean", "glm"])
def test_integer_weights_equal_row_replication(name):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    y = X @ np.array([1.0, 2.0]) + rng.normal(size=30)
    ybin = (y > 0).astype(float)
    k = rng.integers(1, 4, size=30)
    Xrep = np.repeat(X, k, axis=0)
    for target in (y, ybin):
        trep = np.repeat(target, k)
        m_w = fit_learner(name, X, target, w=k.astype(float))
        m_r = fit_learner(name, Xrep, trep)
        grid = rng.normal(size=(10, 2))
        assert np.allclose(m_w.predict(grid), m_r.predict(grid), atol=1e-8)


def test_regression_predictions_clipped_to_expanded_range():
    X = np.array([[0.0], [1.0]])
    with pytest.warns(SeparationWarning):  # separated data: IRLS stops early
        model = fit_learner("glm", X, [0.0, 1.0])
    pred = model.predict(np.array([[10.0], [-10.0]]))
    assert pred.max() <= 1.1 and pred.min() >= -0.1


@pytest.mark.parametrize("case", ["two-point", "threshold", "plane", "quasi"])
def test_irls_stops_early_on_separated_data(case, monkeypatch):
    rng = np.random.default_rng(31)
    if case == "two-point":
        X, y = np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
    elif case == "threshold":
        X = rng.normal(size=(200, 1))
        y = (X[:, 0] > 0.3).astype(float)
    elif case == "plane":
        X = rng.normal(size=(500, 3))
        y = (X @ np.array([1.0, -2.0, 0.5]) > 0.2).astype(float)
    else:  # only rows with x0 == 1 are separated; the rest have a finite fit
        X = rng.integers(0, 2, size=(300, 2)).astype(float)
        y = np.where(X[:, 0] == 1.0, 1.0, (rng.random(300) < 0.5).astype(float))
    calls = []
    solve = learners._solve_wls
    monkeypatch.setattr(learners, "_solve_wls", lambda *a, **k: calls.append(1) or solve(*a, **k))
    with pytest.warns(SeparationWarning) as record:
        model = GLMLearner().fit(X, y)
    assert [type(r.message) for r in record] == [SeparationWarning]
    assert len(calls) <= 10  # without the separation check: 100, 23, 23 and 100 iterations
    pred = model.predict(X)
    sep = X[:, 0] == 1.0 if case == "quasi" else np.ones(len(y), bool)
    # every separated row sits at the clip bound of its label
    assert np.max(np.abs(pred[sep] - y[sep])) <= 1e-13
    if case == "quasi":  # the overlapping rows keep their own cell means
        for v in (0.0, 1.0):
            cell = (X[:, 0] == 0.0) & (X[:, 1] == v)
            assert pred[cell].mean() == pytest.approx(y[(X[:, 0] == 0.0)].mean(), abs=0.1)


def test_irls_steep_overlapping_fit_is_not_separation():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(2000, 1))
    y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-14.0 * x[:, 0]))).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = GLMLearner().fit(x, y)
    assert np.max(np.abs(np.column_stack([np.ones(2000), x]) @ model.beta)) > 30.0
    assert model.beta[1] == pytest.approx(14.0, rel=0.2)


def test_determinism_bitwise():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 4))
    y = (rng.random(200) < 0.4).astype(float)
    w = rng.uniform(0.5, 1.5, 200)
    for name in ("mean", "glm", "lasso", "ridge", "gbstump"):
        m1 = fit_learner(name, X, y, w=w, seed=11)
        m2 = fit_learner(name, X, y, w=w, seed=11)
        assert np.array_equal(m1.predict(X), m2.predict(X))


def test_saturated_glm_cells_match_direct_group_means():
    # 3 features use the dense cell table, 12 the sorted-key search; on both,
    # an unseen cell and a row with a feature outside {0, 1} get the training
    # weighted mean, not a neighbouring cell's
    rng = np.random.default_rng(9)
    for p in (3, 12):
        X = rng.integers(0, 2, size=(800, p)).astype(float)
        X = X[~np.all(X == 1.0, axis=1)]  # the all-ones cell stays unseen
        y = rng.random(len(X))
        w = rng.uniform(0.5, 2.0, size=len(X))
        model = fit_learner("glm_sat", X, y, w=w)
        assert (model.table is None) == (p > learners.SATURATED_MAX_FEATURES)
        seen = X[X[:, 0] == 0.0][0]
        off_grid = [seen.copy() for _ in range(3)]
        off_grid[0][0] = 0.5    # an int cast would put it on the seen cell
        off_grid[1][0] = 2.0    # an int code would be another cell's
        off_grid[2][-1] = -1.0
        Q = np.vstack([X, np.ones((1, p)), off_grid])
        fallback = np.sum(w * y) / np.sum(w)
        expected = np.full(len(Q), fallback)
        for i, row in enumerate(X):
            sel = np.all(X == row, axis=1)
            expected[i] = np.sum(w[sel] * y[sel]) / np.sum(w[sel])
        assert np.allclose(model.predict(Q), expected, rtol=0.0, atol=1e-12)
        with pytest.raises(ValueError):
            model.predict(X[:, :-1])
        # a cell seen in training only on zero-weight rows is a key and
        # predicts the fallback, as the weighted mean of no weight
        w0 = w.copy()
        zero = X[:, 0] == 1.0
        w0[zero & np.all(X[:, 1:] == X[zero][0, 1:], axis=1)] = 0.0
        model = fit_learner("glm_sat", X, y, w=w0)
        cell = int(X[zero][0] @ 2 ** np.arange(p))
        assert cell in model.keys
        fallback = np.sum(w0 * y) / np.sum(w0)
        assert model.predict(X[zero][:1])[0] == pytest.approx(fallback, abs=1e-12)
        if model.table is not None:
            codes = X @ 2 ** np.arange(p)
            for c in model.keys:
                sel = codes == c
                want = (np.sum(w0[sel] * y[sel]) / np.sum(w0[sel])
                        if np.sum(w0[sel]) > 0 else fallback)
                assert model.table[int(c)] == pytest.approx(want, abs=1e-12)


def test_saturated_glm_product_basis_on_continuous():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(300, 2))
    y = 1.0 + X[:, 0] * X[:, 1]
    model = fit_learner("glm_sat", X, y)
    assert np.allclose(model.predict(X), np.clip(y, model.lo, model.hi), atol=1e-6)


def test_gbstump_learns_step_function():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1500, 1))
    y = (x[:, 0] > 0.3).astype(float) * 2.0 + 0.05 * rng.normal(size=1500)
    model = fit_learner("gbstump", x, y, seed=2)
    pred = model.predict(np.array([[-1.0], [1.0]]))
    assert pred[0] < 0.3 and pred[1] > 1.7


# ---------------------------------------------------------------------------
# stacking

def test_stack_single_member_gets_unit_weight():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 1))
    y = X[:, 0]
    stack = fit_stack(["mean"], X, y, seed=1)
    assert np.array_equal(stack.weights, [1.0])


def test_stack_concentrates_on_truth_recovering_member():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(5000, 1))
    y = 2.0 * X[:, 0] + 0.3 * rng.normal(size=5000)
    stack = fit_stack(["glm", "mean"], X, y, seed=1)
    assert stack.weights[stack.member_names.index("glm")] > 0.9
    assert stack.cv_risks[stack.member_names.index("glm")] \
        < stack.cv_risks[stack.member_names.index("mean")]


def test_stack_identical_members_match_single_member():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(400, 2))
    y = X[:, 0] + rng.normal(size=400)
    stack = fit_stack(["mean", "mean"], X, y, seed=4)
    single = fit_learner("mean", X, y)
    assert np.max(np.abs(stack.predict(X) - single.predict(X))) <= 1e-10
    assert stack.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_stack_dominates_best_member_on_cv_risk():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(800, 3))
    y = X @ np.array([1.0, -0.5, 0.0]) + 0.5 * rng.normal(size=800)
    stack = fit_stack(["mean", "glm", "ridge"], X, y, seed=5)
    assert stack.stack_cv_risk <= stack.cv_risks.min() + 1e-8


class _Exploder(learners._Learner):
    name = "exploder"

    def _fit(self, X, y, w, binary, bounds, seed):
        raise RuntimeError("boom")


def test_failing_member_dropped_with_warning():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(100, 1))
    y = X[:, 0]
    with pytest.warns(DroppedMemberWarning, match="fold 0: boom"):
        stack = fit_stack([_Exploder(), make_learner("mean")], X, y, seed=6)
    assert stack.member_names == ["mean"]
    assert stack.dropped == ["exploder"]
    assert stack.weights.sum() == pytest.approx(1.0, abs=1e-12)


class _Spy(learners._Learner):
    name = "spy"

    def __init__(self, fail_fold=None):
        self.fail_fold = fail_fold
        self.folds = []

    def _fit(self, X, y, w, binary, bounds, seed):
        fold = seed % 101  # fit_stack at seed 0 fits fold j with seed mi * 101 + j
        self.folds.append(fold)
        if fold == self.fail_fold:
            raise RuntimeError("fails in this fold")
        return learners.MeanLearner()._fit(X, y, w, binary, bounds, seed)


class _Foreign:
    name = "foreign"

    def fit(self, X, y, w=None, seed=0):
        return learners.MeanLearner().fit(X, y, w, seed)


def test_foreign_stack_member_rejected_before_any_fit():
    spy = _Spy()
    with pytest.raises(TypeError, match="registry names or learners"):
        fit_stack([spy, _Foreign()], np.zeros((20, 1)), np.arange(20.0))
    assert spy.folds == []


def test_member_failing_in_later_fold_is_dropped():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(200, 2))
    y = X[:, 0] + 0.5 * rng.normal(size=200)
    spy = _Spy(fail_fold=2)
    with pytest.warns(DroppedMemberWarning,
                      match="^stack member 'spy' dropped: fold 2: fails in this fold$"):
        stack = fit_stack(["mean", "lasso", spy], X, y)
    assert spy.folds == [0, 1, 2]
    assert stack.dropped == ["spy"] and stack.member_names == ["mean", "lasso"]
    without = fit_stack(["mean", "lasso"], X, y)
    assert np.array_equal(stack.weights, without.weights)
    assert np.array_equal(stack.cv_risks, without.cv_risks)


@pytest.mark.parametrize("members", [["mean", "glm", "glm_sat"], ["glm_sat"]])
def test_stack_runs_one_fit_preamble(monkeypatch, members):
    calls = []
    prepare = learners._prepare
    monkeypatch.setattr(learners, "_prepare", lambda *a: calls.append(1) or prepare(*a))
    rng = np.random.default_rng(42)
    X = (rng.random((120, 2)) < 0.5).astype(float)
    fit_stack(members, X, X[:, 0] + rng.normal(size=120))
    assert len(calls) == 1


def _member_major_stack(names, X, y, w, seed):
    """The stack fitted member by member through the public ``fit`` and
    ``predict``: each member's cross-fitted predictions, the simplex weights,
    the CV risks and the full-data refits."""
    members = [make_learner(name) for name in names]
    plan = make_plan(len(y), learners.CV_FOLDS, seed)
    preds = np.empty((len(y), len(names)))
    for mi, m in enumerate(members):
        preds[:, mi] = crossfit_predict(
            plan,
            lambda j, tr: m.fit(X[tr], y[tr], w[tr], seed=seed * 1_000_003 + mi * 101 + j),
            lambda model, va: model.predict(X[va]))
    P = preds[:, list(range(len(names)))]  # the kept columns
    alpha = _simplex_lsq(P, y, w)
    cv_risks = np.array([np.sum(w * (y - P[:, k]) ** 2) / np.sum(w)
                         for k in range(len(names))])
    stack_cv_risk = float(np.sum(w * (y - P @ alpha) ** 2) / np.sum(w))
    models = [m.fit(X, y, w, seed=seed * 1_000_003 + mi * 101 + 97)
              for mi, m in enumerate(members)]
    return alpha, cv_risks, stack_cv_risk, models


@pytest.mark.parametrize("binary", [False, True], ids=["continuous", "binary"])
@pytest.mark.parametrize("names", [["mean", "glm", "glm_sat"], ["mean", "glm", "lasso"],
                                   ["mean", "gbstump", "ridge"]], ids="-".join)
def test_fold_major_stack_matches_member_major_reference(monkeypatch, names, binary):
    monkeypatch.setattr(learners, "GB_ROUNDS", 20)  # keeps the boosting case fast
    n = 400
    rng = np.random.default_rng(43)
    X = np.column_stack([rng.random((n, 2)) < 0.5, rng.normal(size=n)]).astype(float)
    eta = X[:, 0] - X[:, 1] + 0.5 * X[:, 2]
    y = ((rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float) if binary
         else eta + rng.normal(size=n))
    w = rng.uniform(0.5, 2.0, size=n)
    stack = fit_stack(names, X, y, w, seed=3)
    alpha, cv_risks, stack_cv_risk, models = _member_major_stack(names, X, y, w, seed=3)
    assert stack.member_names == names
    assert np.array_equal(stack.weights, alpha)
    assert np.array_equal(stack.cv_risks, cv_risks)
    assert stack.stack_cv_risk == stack_cv_risk
    X_new = np.column_stack([rng.random((50, 2)) < 0.5, 2.0 * rng.normal(size=50)]).astype(float)
    expected = np.zeros(50)
    for a, model in zip(alpha, models):
        if a != 0.0:
            expected += a * model.predict(X_new)
    assert np.array_equal(stack.predict(X_new), np.clip(expected, stack.lo, stack.hi))


def test_simplex_solver_on_correlated_members():
    rng = np.random.default_rng(18)
    base = rng.normal(size=2000)
    P = np.column_stack([base, base + 1e-5 * rng.normal(size=2000), 0.5 * base])
    y = base + 0.05 * rng.normal(size=2000)
    alpha = _simplex_lsq(P, y, np.ones(2000))
    assert alpha.min() >= 0 and alpha.sum() == pytest.approx(1.0, abs=1e-9)
    risks = [np.mean((y - P[:, k]) ** 2) for k in range(3)]
    assert np.mean((y - P @ alpha) ** 2) <= min(risks) + 1e-8


def _simplex_case(rng, k, target):
    """Random members P (n=400, weighted) and a target whose simplex optimum
    lies in the interior, on the edge {0, 1} or at the vertex 0."""
    n = 400
    P = rng.normal(size=(n, k))
    if target == "interior":
        beta = rng.dirichlet(np.full(k, 5.0))
    elif target == "edge":
        beta = np.r_[0.7, 0.7, np.full(k - 2, -0.4 / (k - 2))]
    else:
        beta = np.r_[1.5, np.full(k - 1, -0.5 / (k - 1))]
    y = P @ beta + 0.1 * rng.normal(size=n)
    return P, y, rng.uniform(0.5, 2.0, size=n)


# with two members the edge {0, 1} is the whole simplex
@pytest.mark.parametrize("k,target", [(k, t) for k in range(2, 7)
                                      for t in ("interior", "edge", "vertex")
                                      if (k, t) != (2, "edge")])
def test_simplex_solver_meets_kkt_certificate(k, target):
    P, y, w = _simplex_case(np.random.default_rng(100 + k), k, target)
    alpha = _simplex_lsq(P, y, w)
    support = np.flatnonzero(alpha)
    expected = {"interior": np.arange(k), "edge": [0, 1], "vertex": [0]}[target]
    assert np.array_equal(support, expected)
    assert np.all(alpha >= 0.0)
    assert abs(alpha.sum() - 1.0) <= 1e-12
    wn = w / w.sum()
    g = P.T @ (wn * (P @ alpha)) - P.T @ (wn * y)
    # stationarity on the support, and no descent direction off it
    assert np.ptp(g[support]) <= 1e-10
    assert np.all(np.delete(g, support) >= g[support].max() - 1e-10)


def test_simplex_tie_break_prefers_fewest_then_earliest_member():
    rng = np.random.default_rng(27)
    base = rng.normal(size=2000)
    P = np.column_stack([base, base, 0.5 * base])
    y = 2.0 * base + 0.05 * rng.normal(size=2000)
    # every weight vector with alpha[2] == 0 attains the optimum
    assert np.array_equal(_simplex_lsq(P, y, np.ones(2000)), [1.0, 0.0, 0.0])
    X = rng.normal(size=(300, 2))
    stack = fit_stack(["mean", "mean"], X, X[:, 0] + rng.normal(size=300), seed=4)
    assert np.array_equal(stack.weights, [1.0, 0.0])


# ---------------------------------------------------------------------------
# adaptive lasso

def test_adaptive_lasso_support_recovery():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(2000, 10))
    y = 3.0 * X[:, 0] + 0.5 * rng.normal(size=2000)
    model = fit_adaptive_lasso(X, y, seed=20)
    assert model.selected == ["x0"]
    assert model.coef[0] == pytest.approx(3.0, abs=0.1)


def test_adaptive_lasso_all_zero_outcome():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(100, 4))
    model = fit_adaptive_lasso(X, np.zeros(100), seed=1)
    assert np.all(model.coef == 0.0)
    assert model.intercept == 0.0
    assert np.all(np.isinf(model.penalty_weights))


def test_adaptive_lasso_duplicate_feature_risk():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2000, 1))
    y = 2.0 * x[:, 0] + 0.5 * rng.normal(size=2000)
    single = fit_adaptive_lasso(x, y, seed=3)
    dup = fit_adaptive_lasso(np.column_stack([x, x]), y, seed=3)
    assert len(dup.selected) >= 1
    assert dup.selected == ["x0"]
    risk_single = np.mean((y - single.predict(x)) ** 2)
    risk_dup = np.mean((y - dup.predict(np.column_stack([x, x]))) ** 2)
    assert risk_dup <= 1.05 * risk_single


def test_adaptive_lasso_infinite_penalty_is_exact_zero():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(500, 3))
    X[:, 2] = 0.0  # zero-variance column: ridge magnitude 0, penalty inf
    y = X[:, 0] + 0.3 * rng.normal(size=500)
    model = fit_adaptive_lasso(X, y, seed=2)
    assert model.penalty_weights[2] == np.inf
    assert model.coef[2] == 0.0


def test_adaptive_lasso_selects_only_nonzero_coefficients():
    # on pure noise the one-SE rule often picks the top of the grid, whose
    # solution must be exact zeros rather than a 1e-17 remnant
    for seed in range(40):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(1000, 3)).astype(float)
        model = fit_adaptive_lasso(X, rng.normal(size=1000), seed=seed)
        assert np.all(np.abs(model.coef[model.coef != 0.0]) >= 1e-12), seed


def test_glm_saturated_equivalence_binary_paths():
    # cell-mean shortcut equals the explicit product-basis GLM solution
    rng = np.random.default_rng(24)
    X = rng.integers(0, 2, size=(800, 2)).astype(float)
    y = 0.2 + 0.5 * X[:, 0] * X[:, 1] + 0.1 * rng.normal(size=800)
    cells = GLMLearner(saturated=True).fit(X, y)
    X1 = np.column_stack([np.ones(800), X[:, 0], X[:, 1], X[:, 0] * X[:, 1]])
    beta = np.linalg.solve(X1.T @ X1, X1.T @ y)
    assert np.allclose(cells.predict(X), X1 @ beta, atol=1e-10)
