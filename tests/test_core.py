import csv
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from epicast import core
from epicast.core import (
    DataError,
    SplitSpec,
    TimeSeries,
    UndefinedMetricError,
    load_csv,
    mae,
    mase,
    rmse,
    smape,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
pairs = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(finite_floats, min_size=n, max_size=n),
        st.lists(finite_floats, min_size=n, max_size=n),
    )
)


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries(values=np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="position 1"):
            TimeSeries(values=np.array([1.0, np.nan]))

    def test_values_immutable(self):
        ts = TimeSeries(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_the_callers_array_stays_writeable(self):
        a = np.arange(3.0)
        ts = TimeSeries(values=a)
        assert a.flags.writeable and not ts.values.flags.writeable
        a[0] = 9.0
        assert ts.values.tolist() == [0.0, 1.0, 2.0]


class TestLoadCsv:
    def test_passthrough(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("value\n3.0\n1.0\n4.0\n")
        ts = load_csv(path, "value")
        assert list(ts.values) == [3.0, 1.0, 4.0]

    def test_bad_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("value\n3.0\noops\n4.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path, "value")

    def test_monthly_92_rows(self, tmp_path):
        path = tmp_path / "hepatitis.csv"
        rows = "\n".join(f"2010-{i % 12 + 1:02d},{100 + i}" for i in range(92))
        path.write_text("month,cases\n" + rows + "\n")
        ts = load_csv(path, "cases", frequency=12)
        assert len(ts) == 92
        assert ts.frequency == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "value")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x\n1\n")
        with pytest.raises(DataError, match="'value'"):
            load_csv(path, "value")

    def test_skips_leading_comment_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# seed=1 config_digest=ab\n# more\nvalue\n2.0\n#3\n")
        with pytest.raises(DataError, match="row 3: cannot parse value '#3'"):
            load_csv(path, "value")
        path.write_text("# seed=1 config_digest=ab\nvalue\n2.0\n\n4.0\n")
        assert list(load_csv(path, "value").values) == [2.0, 4.0]


class TestReadTable:
    def test_header_and_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('# provenance\ncase,a\n"north, 2020",1\n\n#x,"say ""hi"""\n')
        assert core.read_table(path) == (["case", "a"],
                                         [["north, 2020", "1"], ["#x", 'say "hi"']])

    @pytest.mark.parametrize("content,match", [
        (None, "no such file"),
        ("directory", "cannot read"),
        (b"value\n1.0\n\xff\n", "cannot read .*utf-8"),
        (b"", "no header row"),
        (b"# only provenance\n", "no header row"),
    ], ids=["missing", "directory", "non-utf8", "empty", "comments-only"])
    def test_unreadable_files_raise_data_error(self, tmp_path, content, match):
        path = tmp_path / "t.csv"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=match):
            core.read_table(path)


def reference_load_csv(path, value_column):
    """``load_csv``'s rules as a ``csv.DictReader`` row loop."""
    values = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or value_column not in reader.fieldnames:
            raise DataError(f"column {value_column!r} not found in {path}")
        for i, row in enumerate(reader, start=2):
            raw = row[value_column]
            try:
                value = float(raw)
            except (TypeError, ValueError):
                raise DataError(f"row {i}: cannot parse value {raw!r}") from None
            if not np.isfinite(value):
                raise DataError(f"row {i}: non-finite value {raw!r}")
            values.append(value)
    if not values:
        raise DataError(f"no data rows in {path}")
    return np.array(values)


csv_cells = st.one_of(
    finite_floats.map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "", " 2.5 ", "abc", "1_0", "1,5",
                     '"7"', "3\n4", "-0.0"]),
)
# An empty row is written as a blank line.
csv_rows = st.lists(st.lists(csv_cells, max_size=5), max_size=12)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.lists(st.sampled_from(["value", "value", "t", "x"]), max_size=4), rows=csv_rows,
       quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
def test_load_csv_matches_dictreader(tmp_path, header, rows, quoting):
    text = io.StringIO()
    csv.writer(text, quoting=quoting).writerows([header, *rows])
    path = tmp_path / "d.csv"
    path.write_text(text.getvalue(), encoding="utf-8", newline="")

    def outcome(load):
        try:
            return np.asarray(load(path, "value")).tobytes()
        except DataError as exc:
            return str(exc)

    got = outcome(lambda *a: load_csv(*a).values)
    event("loaded" if isinstance(got, bytes) else next(
        kind for kind in ("not found", "cannot parse", "non-finite", "no data rows") if kind in got))
    assert got == outcome(reference_load_csv)


class TestRmse:
    def test_identity(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_value(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(25 / 2))

    def test_single_point(self):
        assert rmse([1], [4]) == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1, 2], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestMae:
    def test_identity(self):
        assert mae([2, 2], [2, 2]) == 0.0

    def test_symmetric_errors(self):
        assert mae([0, 0], [3, -3]) == pytest.approx(3.0)

    def test_hand_value(self):
        assert mae([1, 2], [2, 4]) == pytest.approx(1.5)


class TestMase:
    def test_identity(self):
        assert mase([5, 6], [5, 6], [1, 2, 4]) == 0.0

    def test_hand_value(self):
        assert mase([5], [8], [1, 2, 4], seasonal_lag=1) == pytest.approx(2.0)

    def test_persistence_scores_one(self):
        # Naive forecast whose step sizes equal the train's mean abs first diff.
        train = [0, 1, 2, 3]
        actual = [4, 5]
        forecast = [3, 4]  # one-step persistence
        assert mase(actual, forecast, train) == pytest.approx(1.0)

    def test_constant_train_undefined(self):
        with pytest.raises(UndefinedMetricError):
            mase([1], [2], [3, 3, 3])

    def test_lag_longer_than_train(self):
        with pytest.raises(ValueError):
            mase([1], [2], [3, 4], seasonal_lag=2)


class TestSmape:
    def test_identity(self):
        assert smape([1, 2], [1, 2]) == 0.0

    def test_hand_value(self):
        assert smape([1], [2]) == pytest.approx(200.0 / 3)

    def test_maximum(self):
        assert smape([1], [-1]) == pytest.approx(200.0)

    def test_zero_zero_term(self):
        assert smape([0, 1], [0, 1]) == 0.0


class TestMetricProperties:
    @given(pairs)
    @settings(max_examples=200, deadline=None)
    def test_rmse_dominates_mae(self, pair):
        actual, forecast = pair
        assert rmse(actual, forecast) >= mae(actual, forecast) - 1e-9

    @given(pairs)
    @settings(max_examples=200, deadline=None)
    def test_smape_bounds(self, pair):
        actual, forecast = pair
        value = smape(actual, forecast)
        assert 0.0 <= value <= 200.0 + 1e-9

    @given(pairs, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, pair, rand):
        actual, forecast = pair
        order = list(range(len(actual)))
        rand.shuffle(order)
        shuffled_a = [actual[i] for i in order]
        shuffled_f = [forecast[i] for i in order]
        assert rmse(shuffled_a, shuffled_f) == pytest.approx(rmse(actual, forecast))
        assert mae(shuffled_a, shuffled_f) == pytest.approx(mae(actual, forecast))
        assert smape(shuffled_a, shuffled_f) == pytest.approx(smape(actual, forecast))

    @given(pairs, st.floats(0.1, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_mase_scale_invariance(self, pair, scale):
        actual, forecast = pair
        train = [1.0, 3.0, 2.0, 5.0]
        base = mase(actual, forecast, train)
        scaled = mase(
            [scale * a for a in actual],
            [scale * f for f in forecast],
            [scale * t for t in train],
        )
        assert scaled == pytest.approx(base, rel=1e-9)


# What json.loads can return; the second integer range reaches past the largest float.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**1100, 2**1100)
    | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8)


class TestNumber:
    @given(json_values)
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_json_numbers(self, value):
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        fits = is_number and (isinstance(value, float) or abs(value) <= sys.float_info.max)
        is_whole = is_number and (isinstance(value, int) or value.is_integer())
        for whole, accepted in ((False, fits), (True, is_whole)):
            try:
                got = core.number(value, "'x'", whole=whole)
            except ValueError as exc:
                assert not accepted
                assert str(exc) == (f"'x' must be a {'whole ' if whole else ''}number, "
                                    f"got {value!r}")
                continue
            assert accepted
            assert type(got) is (int if whole else float)
            assert got == (value if whole else float(value)) or math.isnan(value)

    def test_numpy_scalars_are_numbers(self):
        assert core.number(np.float32(0.5), "x") == 0.5
        assert core.number(np.int64(3), "x", whole=True) == 3
        with pytest.raises(ValueError, match="x must be a number, got np.True_"):
            core.number(np.bool_(True), "x")

    def test_a_list_of_numbers_is_a_float_array(self):
        np.testing.assert_array_equal(core.numbers([1, 2.5], "x"), [1.0, 2.5])
        assert core.numbers([], "x").shape == (0,)
        with pytest.raises(ValueError) as excinfo:
            core.numbers([1.0, "2"], "'x'")
        assert str(excinfo.value) == "'x'[1] must be a number, got '2'"
        with pytest.raises(ValueError) as excinfo:
            core.numbers("1,2", "'x'")
        assert str(excinfo.value) == "'x' must be a list of numbers, got '1,2'"

    @given(st.lists(st.floats(), max_size=6)  # the all-float lists json.loads gives
           | st.lists(json_values | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
                      | st.floats().map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
                      | st.booleans().map(np.bool_), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_a_list_is_read_as_its_items_are(self, values):
        """The all-float fast path gives the per-item rule's bits, or its exact error."""
        try:
            expected = np.array([core.number(value, f"'x'[{i}]")
                                 for i, value in enumerate(values)])
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                core.numbers(values, "'x'")
            assert str(excinfo.value) == str(exc)
            return
        got = core.numbers(values, "'x'")
        assert (got.dtype, got.shape) == (np.float64, (len(values),))
        assert got.tobytes() == expected.tobytes()


class TestSplitSpec:
    def test_default_val_is_twice_test(self):
        split = SplitSpec.for_series(92, test_len=3)
        assert (split.train_len, split.val_len, split.test_len) == (83, 6, 3)
        assert split.total == 92

    def test_rejects_tiny_train(self):
        with pytest.raises(ValueError):
            SplitSpec(train_len=2, val_len=2, test_len=1)


def test_metric_set_collects_all_four():
    ms = core.metric_set([5], [8], [1, 2, 4])
    assert ms.rmse == 3.0
    assert ms.mae == 3.0
    assert ms.mase == pytest.approx(2.0)
    assert ms.smape == pytest.approx(200 * 3 / 13)
