import csv
import warnings

import numpy as np
import pytest

from medrule import ColumnSchema, feature_block, normalize_weights, validate_dataset
from medrule import data
from medrule.data import read_csv, write_csv
from medrule.errors import (
    AllZeroWeights,
    MissingColumn,
    MissingValue,
    NegativeWeight,
    NonBinaryTreatment,
    OutOfRangeOutcome,
)


def schema(**kwargs):
    base = dict(baseline=("w",), rule_covariates=("w",), treatment="A",
                post_treatment="Z", mediators=("m",), outcome="Y")
    base.update(kwargs)
    return ColumnSchema(**base)


def table(**overrides):
    t = {"w": [0, 1, 0, 1], "A": [0, 1, 1, 0], "Z": [0, 0, 1, 1],
         "m": [1, 0, 1, 0], "Y": [0, 1, 1, 0]}
    t.update(overrides)
    return t


def test_wellformed_table_passes():
    ds = validate_dataset(table(), schema())
    assert ds.n == 4
    assert np.all(ds.weights == 1.0)
    assert ds.summary()["n"] == 4


def test_nonbinary_treatment_rejected():
    with pytest.raises(NonBinaryTreatment):
        validate_dataset(table(A=[0, 1, 2, 0]), schema())


def test_nonbinary_post_treatment_rejected():
    with pytest.raises(NonBinaryTreatment):
        validate_dataset(table(Z=[0, 0.5, 1, 1]), schema())


def test_weight_column_already_mean_one_unchanged():
    ds = validate_dataset(table(wt=[2, 2, 0, 0]), schema(weight="wt"))
    assert np.array_equal(ds.weights, [2.0, 2.0, 0.0, 0.0])


def test_weight_column_rescaled_to_mean_one():
    ds = validate_dataset(table(wt=[1, 2, 3, 4]), schema(weight="wt"))
    assert abs(ds.weights.mean() - 1.0) <= 1e-12
    # ratios preserved
    assert ds.weights[3] / ds.weights[0] == pytest.approx(4.0, abs=1e-12)


def test_normalize_identity_under_unit_weights():
    out = normalize_weights(np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(out, [1.0, 1.0, 1.0])


def test_normalize_two_four():
    out = normalize_weights(np.array([2.0, 4.0]))
    expected = np.array([2.0, 4.0]) * 2 / 6  # n / sum(w)
    assert np.allclose(out, expected, atol=1e-15)
    assert abs(out.mean() - 1.0) <= 1e-12


def test_normalize_returns_read_only_and_leaves_input_writeable():
    raw = np.array([1.0, 1.0])
    for values in (raw, np.array([1.0, 3.0])):
        out = normalize_weights(values)
        assert not out.flags.writeable and values.flags.writeable


def test_normalize_all_zero_rejected():
    with pytest.raises(AllZeroWeights):
        normalize_weights(np.array([0.0, 0.0]))


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        validate_dataset(table(wt=[1, -1, 1, 1]), schema(weight="wt"))


@pytest.mark.parametrize("seed", range(5))
def test_normalization_preserves_ratios(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 9.0, size=17)
    out = normalize_weights(raw)
    i, j = rng.integers(0, 17, size=2)
    assert out[i] / out[j] == pytest.approx(raw[i] / raw[j], rel=1e-12)


def test_missing_column():
    t = table()
    del t["m"]
    with pytest.raises(MissingColumn):
        validate_dataset(t, schema())


def test_missing_value_is_hard_error():
    with pytest.raises(MissingValue) as err:
        validate_dataset(table(Y=["0", "", "1", "0"]), schema())
    assert err.value.row == 1 and err.value.column == "Y"


def test_unparseable_token_reported_as_missing():
    with pytest.raises(MissingValue):
        validate_dataset(table(w=["0", "oops", "0", "1"]), schema())


def test_outcome_out_of_declared_range():
    with pytest.raises(OutOfRangeOutcome):
        validate_dataset(table(Y=[0, 1, 3, 0]), schema(outcome_range=(0.0, 2.0)))


def test_bounded_continuous_outcome_accepted():
    ds = validate_dataset(table(Y=[0.2, 1.7, 0.9, 2.0]),
                          schema(outcome_range=(0.0, 2.0)))
    assert ds.column("Y").max() == 2.0


def test_categorical_levels_enforced_and_one_hot():
    sch = schema(baseline=("w", "site"), categorical_levels={"site": ("a", "b", "c")})
    ds = validate_dataset(table(site=["a", "b", "c", "b"]), sch)
    X, names = feature_block(ds, ("w", "site"))
    assert names == ["w", "site=b", "site=c"]
    assert np.array_equal(X[:, 1], [0, 1, 0, 1])
    with pytest.raises(MissingValue):
        validate_dataset(table(site=["a", "b", "d", "b"]), sch)


@pytest.mark.parametrize("column", ["Y", "A", "Z", "wt", "unlisted"])
def test_categorical_levels_only_on_baseline_and_mediators(column):
    with pytest.raises(ValueError, match=f"categorical_levels names \\['{column}'\\]"):
        schema(weight="wt", categorical_levels={column: ("0", "1")})


def test_categorical_mediator_accepted():
    sch = schema(categorical_levels={"m": ("0", "1")})
    ds = validate_dataset(table(m=["1", "0", "1", "0"]), sch)
    assert feature_block(ds, ("m",))[1] == ["m=1"]


def test_validation_idempotent():
    ds1 = validate_dataset(table(wt=[1, 2, 3, 4]), schema(weight="wt"))
    ds2 = validate_dataset(ds1, ds1.schema)
    assert np.array_equal(ds1.weights, ds2.weights)
    for name in ds1.schema.all_columns:
        assert np.array_equal(ds1.column(name), ds2.column(name))


def test_duplicate_role_rejected():
    with pytest.raises(ValueError):
        schema(mediators=("w",))


def test_rule_covariates_must_be_baseline():
    with pytest.raises(ValueError):
        schema(rule_covariates=("m",))


@pytest.mark.parametrize("column, token", [
    ("w", "inf"), ("w", "-Infinity"), ("w", "1e400"),
    ("Y", "inf"), ("Y", "-1e400"), ("wt", "inf"), ("wt", "Infinity"),
])
def test_non_finite_token_is_missing_value(column, token):
    cells = ["0", token, "1", "0"] if column != "wt" else ["1", token, "1", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from inf weights either
        with pytest.raises(MissingValue) as err:
            validate_dataset(table(**{column: cells}), schema(weight="wt") if column == "wt"
                             else schema())
    assert (err.value.row, err.value.column) == (1, column)
    assert str(err.value) == f"missing or unusable value at row 1, column {column!r}"


def _as_list(cells):
    return list(cells)


def _as_object_array(cells):
    return np.array(cells, dtype=object)


def _as_float_array(cells):
    return np.array(cells, dtype=float)


_BAD_CELLS = [
    # (bad cell, token reported in the message, containers it can live in)
    (None, None, (_as_list, _as_object_array)),
    ("", None, (_as_list, _as_object_array)),
    (" NA ", None, (_as_list, _as_object_array)),
    ("nan", None, (_as_list, _as_object_array)),
    ("abc", "abc", (_as_list, _as_object_array)),
    (float("nan"), None, (_as_list, _as_object_array, _as_float_array)),
    (float("inf"), None, (_as_list, _as_object_array, _as_float_array)),
]


@pytest.mark.parametrize("bad, token, container", [
    pytest.param(bad, token, container, id=f"{bad!r}-{container.__name__[4:]}")
    for bad, token, containers in _BAD_CELLS for container in containers])
def test_missing_value_parity(bad, token, container):
    clean = "0" if container is not _as_float_array else 0.0
    cells = [clean, clean, bad, clean]
    with pytest.raises(MissingValue) as err:
        validate_dataset(table(w=container(cells)), schema())
    detail = f" (token {token!r})" if token is not None else ""
    assert type(err.value) is MissingValue
    assert (err.value.row, err.value.column) == (2, "w")
    assert str(err.value) == f"missing or unusable value at row 2, column 'w'{detail}"


@pytest.mark.parametrize("cells, row, token", [
    (["0", "inf", "0", "abc"], 1, None),
    (["0", "abc", "0", "inf"], 1, "abc"),
    (["0", "1", None, "x y"], 2, None),
])
def test_first_bad_row_reported_across_kinds(cells, row, token):
    with pytest.raises(MissingValue) as err:
        validate_dataset(table(w=cells), schema())
    detail = f" (token {token!r})" if token is not None else ""
    assert err.value.row == row
    assert str(err.value) == f"missing or unusable value at row {row}, column 'w'{detail}"


def test_negative_weight_parity():
    with pytest.raises(NegativeWeight) as err:
        validate_dataset(table(wt=["1", "-1.5", "1", "-2"]), schema(weight="wt"))
    assert err.value.row == 1
    assert str(err.value) == "negative weight -1.5 at row 1"


def test_clean_tables_take_the_columnar_path(monkeypatch, tmp_path):
    def locator_called(raw, name):
        raise AssertionError(f"column {name!r} was walked cell by cell")

    monkeypatch.setattr(data, "_locate_bad_cell", locator_called)
    rng = np.random.default_rng(0)
    n = 20000
    floats = {"w": rng.integers(0, 2, n).astype(float), "A": rng.integers(0, 2, n).astype(float),
              "Z": rng.integers(0, 2, n).astype(float), "m": rng.normal(size=n),
              "Y": rng.random(n), "wt": rng.uniform(0.5, 2.0, n)}
    ds = validate_dataset(floats, schema(weight="wt"))
    assert np.array_equal(ds.column("m"), floats["m"])
    write_csv(tmp_path / "clean.csv", floats)
    tokens = read_csv(tmp_path / "clean.csv")
    assert isinstance(tokens["m"][0], str)
    ds = validate_dataset(tokens, schema(weight="wt"))
    assert np.array_equal(ds.column("m"), floats["m"])


def _reference_write(path, columns):
    """Reference writer: one formatted cell per lookup, one writerow per row."""
    def format_cell(value):
        if isinstance(value, str):
            return value
        f = float(value)
        return str(int(f)) if f == int(f) else repr(f)

    names = list(columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(len(columns[names[0]])):
            writer.writerow([format_cell(columns[name][i]) for name in names])


@pytest.mark.parametrize("block_rows", [None, 4])
def test_write_read_validate_round_trip(block_rows, monkeypatch, tmp_path):
    if block_rows is not None:
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", block_rows)
    x = np.array([-0.0, 5e-324, 0.1, 1e22, 2.0 ** 53, 123456789.0])
    columns = {
        "x": x,
        "flag": np.array([True, False, True, True, False, False]),
        "row": np.arange(6),
        "note": ["plain", "a,b", 'say "hi"', '"', ",", "multi\nline"],
        "A": [0, 1, 1, 0, 1, 0], "Z": np.zeros(6), "m": [0.25, 1, 0, 1, 0, 1],
        "Y": np.array([0.0, 1.0, 0.5, 1 / 3, 0.0, 1.0]),
    }
    write_csv(tmp_path / "new.csv", columns)
    _reference_write(tmp_path / "ref.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    tokens = read_csv(tmp_path / "new.csv")
    assert tokens["note"] == columns["note"]
    ds = validate_dataset(tokens, schema(baseline=("x", "flag", "row"), rule_covariates=()))
    back = ds.column("x")
    # integral values are written without a decimal point, so -0.0 comes back as 0.0
    assert back[0] == 0.0
    assert np.array_equal(back[1:].view(np.int64), x[1:].view(np.int64))
    assert np.array_equal(ds.column("flag"), columns["flag"].astype(float))
    assert np.array_equal(ds.column("Y").view(np.int64), columns["Y"].view(np.int64))


def test_read_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == f"{path}: row with 1 fields, expected 2"
