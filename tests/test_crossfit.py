import numpy as np
import pytest

from medrule.crossfit import fit_folds, make_plan, out_of_fold
from medrule.errors import MissingArm, TooFewRows


def test_even_split_sizes():
    plan = make_plan(10, 5, seed=0)
    sizes = [len(plan.val_indices(j)) for j in range(5)]
    assert sizes == [2, 2, 2, 2, 2]


def test_remainder_spread():
    plan = make_plan(11, 5, seed=0)
    sizes = sorted(len(plan.val_indices(j)) for j in range(5))
    assert sizes == [2, 2, 2, 2, 3]


def test_partition_is_valid_for_any_seed():
    for seed in range(10):
        plan = make_plan(23, 4, seed=seed)
        all_idx = np.concatenate([plan.val_indices(j) for j in range(4)])
        assert sorted(all_idx.tolist()) == list(range(23))
        for j in range(4):
            tr = set(plan.train_indices(j).tolist())
            va = set(plan.val_indices(j).tolist())
            assert tr.isdisjoint(va)
            assert tr | va == set(range(23))


def test_deterministic_assignment():
    p1 = make_plan(50, 5, seed=123)
    p2 = make_plan(50, 5, seed=123)
    assert np.array_equal(p1.assignment, p2.assignment)
    p3 = make_plan(50, 5, seed=124)
    assert not np.array_equal(p1.assignment, p3.assignment)


def test_too_few_rows():
    with pytest.raises(TooFewRows):
        make_plan(3, 5, seed=0)
    with pytest.raises(TooFewRows):
        make_plan(10, 1, seed=0)


def _mean_fit(y):
    def fit_fn(j, idx):
        return float(np.mean(y[idx]))

    def predict_fn(model, idx):
        return np.full(len(idx), model)

    return fit_fn, predict_fn


def test_out_of_fold_mean_matches_hand_computation():
    y = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
    plan = make_plan(6, 3, seed=5)
    fit_fn, predict_fn = _mean_fit(y)
    pred = out_of_fold(plan, fit_folds(plan, fit_fn), predict_fn)
    for i in range(6):
        expected = y[plan.train_indices(plan.assignment[i])].mean()
        assert pred[i] == pytest.approx(expected, abs=1e-15)


def test_leave_one_out_closed_form():
    y = np.arange(1.0, 8.0)
    n = len(y)
    plan = make_plan(n, n, seed=2)
    fit_fn, predict_fn = _mean_fit(y)
    pred = out_of_fold(plan, fit_folds(plan, fit_fn), predict_fn)
    expected = (y.sum() - y) / (n - 1)
    assert np.allclose(pred, expected, atol=1e-12)


def test_fold_evaluation_order_irrelevant():
    y = np.arange(12.0)
    plan = make_plan(12, 4, seed=9)
    fit_fn, predict_fn = _mean_fit(y)
    pred = out_of_fold(plan, fit_folds(plan, fit_fn), predict_fn)
    # manual evaluation in reversed fold order
    manual = np.empty(12)
    for j in reversed(range(4)):
        model = fit_fn(j, plan.train_indices(j))
        manual[plan.val_indices(j)] = predict_fn(model, plan.val_indices(j))
    assert np.array_equal(pred, manual)


def test_out_of_fold_purity_under_target_perturbation():
    y = np.arange(10.0)
    plan = make_plan(10, 5, seed=4)
    fit_fn, predict_fn = _mean_fit(y)
    base = out_of_fold(plan, fit_folds(plan, fit_fn), predict_fn)
    i = 3
    y2 = y.copy()
    y2[i] += 100.0
    fit2, pred2 = _mean_fit(y2)
    perturbed = out_of_fold(plan, fit_folds(plan, fit2), pred2)
    same_fold = plan.assignment == plan.assignment[i]
    assert np.array_equal(base[same_fold], perturbed[same_fold])
    assert not np.array_equal(base[~same_fold], perturbed[~same_fold])


def test_errors_tagged_with_fold():
    plan = make_plan(6, 3, seed=1)

    def bad_fit(j, idx):
        raise ValueError("cannot fit")

    with pytest.raises(ValueError, match="fold 0"):
        out_of_fold(plan, fit_folds(plan, bad_fit), lambda m, i: np.zeros(len(i)))


def test_fold_tag_keeps_error_type_and_attributes():
    plan = make_plan(6, 3, seed=1)

    def bad_fit(j, idx):
        raise MissingArm((0, 0))

    with pytest.raises(MissingArm) as err:
        out_of_fold(plan, fit_folds(plan, bad_fit), lambda m, i: np.zeros(len(i)))
    assert type(err.value) is MissingArm
    assert err.value.pair == (0, 0)
    assert str(err.value) == f"fold 0: {MissingArm((0, 0))}"


def test_rows_first_predictions_keep_trailing_shape():
    plan = make_plan(7, 3, seed=3)
    pred = out_of_fold(plan, fit_folds(plan, lambda j, idx: j),
                       lambda j, idx: np.column_stack([idx, np.full(len(idx), j)]))
    assert pred.shape == (7, 2)
    assert np.array_equal(pred[:, 0], np.arange(7))
    assert np.array_equal(pred[:, 1], plan.assignment)
