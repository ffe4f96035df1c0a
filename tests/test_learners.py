import numpy as np
import pytest

from medrule import fit_adaptive_lasso, fit_learner, fit_stack, make_learner
from medrule import learners
from medrule.errors import (ConvergenceWarning, DroppedMemberWarning, NonFiniteFeature,
                            SingularDesignWarning)
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


def test_coordinate_descent_warns_at_sweep_cap(monkeypatch):
    rng = np.random.default_rng(26)
    X = rng.normal(size=(200, 3))
    y = X @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.normal(size=200)
    monkeypatch.setattr(learners, "CD_MAX_ITER", 1)
    with pytest.warns(ConvergenceWarning) as record:
        PenalizedLearner(l1_ratio=1.0, lam=0.01).fit(X, y)
    assert {str(r.message) for r in record} == {
        "coordinate descent reached its sweep cap (1) without converging"}


def test_non_finite_feature_rejected():
    with pytest.raises(NonFiniteFeature):
        fit_learner("glm", np.array([[1.0], [np.nan]]), [0.0, 1.0])


def test_lasso_full_shrinkage_at_huge_penalty():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 3))
    w = rng.uniform(0.5, 2.0, size=60)
    y = 1.0 + X @ np.array([1.0, 0.0, 0.0]) + 0.1 * rng.normal(size=60)
    model = PenalizedLearner(l1_ratio=1.0, lam=1e12).fit(X, y, w)
    assert np.all(model.coef == 0.0)
    assert model.intercept == pytest.approx(np.sum(w * y) / np.sum(w), abs=1e-12)


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
    model = fit_learner("glm", X, [0.0, 1.0])
    pred = model.predict(np.array([[10.0], [-10.0]]))
    assert pred.max() <= 1.1 and pred.min() >= -0.1


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
    rng = np.random.default_rng(9)
    X = rng.integers(0, 2, size=(500, 3)).astype(float)
    y = rng.random(500)
    w = rng.uniform(0.5, 2.0, size=500)
    model = fit_learner("glm_sat", X, y, w=w)
    pred = model.predict(X)
    # independent groupby computation
    for row in {tuple(r) for r in X.tolist()}:
        sel = np.all(X == np.array(row), axis=1)
        expected = np.sum(w[sel] * y[sel]) / np.sum(w[sel])
        got = pred[sel][0]
        assert got == pytest.approx(expected, abs=1e-12)


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


class _Exploder:
    name = "exploder"

    def fit(self, X, y, w=None, seed=0):
        raise RuntimeError("boom")


def test_failing_member_dropped_with_warning():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(100, 1))
    y = X[:, 0]
    with pytest.warns(DroppedMemberWarning):
        stack = fit_stack([_Exploder(), make_learner("mean")], X, y, seed=6)
    assert stack.member_names == ["mean"]
    assert stack.dropped == ["exploder"]
    assert stack.weights.sum() == pytest.approx(1.0, abs=1e-12)


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


def test_glm_saturated_equivalence_binary_paths():
    # cell-mean shortcut equals the explicit product-basis GLM solution
    rng = np.random.default_rng(24)
    X = rng.integers(0, 2, size=(800, 2)).astype(float)
    y = 0.2 + 0.5 * X[:, 0] * X[:, 1] + 0.1 * rng.normal(size=800)
    cells = GLMLearner(saturated=True).fit(X, y)
    X1 = np.column_stack([np.ones(800), X[:, 0], X[:, 1], X[:, 0] * X[:, 1]])
    beta = np.linalg.solve(X1.T @ X1, X1.T @ y)
    assert np.allclose(cells.predict(X), X1 @ beta, atol=1e-10)
