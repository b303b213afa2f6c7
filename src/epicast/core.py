"""Time series container, CSV ingestion, and forecast accuracy metrics."""

from __future__ import annotations

import csv
import itertools
import sys
from dataclasses import dataclass

import numpy as np


class UndefinedMetricError(ValueError):
    """Raised when a metric has no defined value (e.g. MASE on a constant train series)."""


class DataError(ValueError):
    """Raised for malformed or unusable input data."""


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued observations with an observations-per-cycle tag.

    ``frequency`` is 52 for weekly, 12 for monthly, 1 when unspecified.
    """

    values: np.ndarray
    frequency: int = 1

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy: the caller's array stays writeable
        if values.ndim != 1 or values.size == 0:
            raise DataError("series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise DataError(f"non-finite value at position {bad}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class MetricSet:
    rmse: float
    mae: float
    mase: float
    smape: float


def attempt(fn, *args):
    """``fn(*args)``, or the ValueError it raised: a batch entry that fails alone."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def unwrap(entry):
    """A batch entry's value; an entry that is a ValueError is raised."""
    if isinstance(entry, ValueError):
        raise entry
    return entry


def number(value, name: str, whole: bool = False) -> float | int:
    """``value``, a number read from a file or a setting, as a float, or with ``whole`` as an
    int. Anything but a Python or NumPy int or float (a bool is a typo, not 0 or 1), a fraction
    with ``whole``, or an int past the float range is a ValueError naming ``name``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        if whole and (isinstance(value, (int, np.integer)) or float(value).is_integer()):
            return int(value)
        if not whole and not (isinstance(value, int) and abs(value) > sys.float_info.max):
            return float(value)
    raise ValueError(f"{name} must be a {'whole ' if whole else ''}number, got {value!r}")


def numbers(values, name: str) -> np.ndarray:
    """A JSON array of ``number``s as a float array; a bad item is named ``name[i]``."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    if all(type(value) is float for value in values):  # what json.loads gives: one pass
        return np.array(values, dtype=float)
    return np.array([number(value, f"{name}[{i}]") for i, value in enumerate(values)])


def validation_len(n: int, h: int) -> int:
    """Validation-window length for lag selection on ``n`` points at horizon ``h``:
    twice the horizon, capped at a quarter of the series, and at least one point."""
    return min(2 * h, max(1, n // 4))


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test partition sizes."""

    train_len: int
    val_len: int
    test_len: int

    def __post_init__(self):
        if self.train_len < 3:
            raise ValueError("train_len must be at least 3")
        if self.val_len < 0 or self.test_len < 1:
            raise ValueError("invalid split sizes")

    @classmethod
    def for_series(cls, n: int, test_len: int) -> "SplitSpec":
        """Hold out the last ``test_len`` points; validation is ``validation_len`` of the rest."""
        val_len = validation_len(n - test_len, test_len)
        return cls(train_len=n - val_len - test_len, val_len=val_len, test_len=test_len)

    @property
    def total(self) -> int:
        return self.train_len + self.val_len + self.test_len


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """The header and the non-blank rows of a UTF-8 CSV after its leading ``#``
    lines (every epicast CSV starts with a provenance line), cells as text."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"), handle))
            header, body = next(rows, None), [row for row in rows if row]
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise DataError(f"no header row in {path}")
    return header, body


def load_csv(path, value_column: str, frequency: int = 1) -> TimeSeries:
    """Read one observation per row from a ``read_table`` CSV.

    Rows are assumed to already be in temporal order. A row too short to reach
    the column has no value, and of repeated header names the last column
    counts (``csv.DictReader``'s rules).
    """
    header, body = read_table(path)
    if value_column not in header:
        raise DataError(f"column {value_column!r} not found in {path}")
    col = len(header) - 1 - header[::-1].index(value_column)
    cells = [row[col] if col < len(row) else None for row in body]
    try:
        values = np.array([float(raw) for raw in cells])
    except (TypeError, ValueError):
        values = None
    if values is None or not np.all(np.isfinite(values)):
        _raise_first_bad_cell(cells)
    if not values.size:
        raise DataError(f"no data rows in {path}")
    return TimeSeries(values=values, frequency=frequency)


def _raise_first_bad_cell(cells: list[str | None]) -> None:
    for i, raw in enumerate(cells, start=2):  # header is line 1
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise DataError(f"row {i}: cannot parse value {raw!r}") from None
        if not np.isfinite(value):
            raise DataError(f"row {i}: non-finite value {raw!r}")


def _paired(actual, forecast) -> tuple[np.ndarray, np.ndarray]:
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.size == 0:
        raise ValueError("empty input")
    if actual.shape != forecast.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {forecast.shape}")
    return actual, forecast


def rmse(actual, forecast) -> float:
    actual, forecast = _paired(actual, forecast)
    return float(np.sqrt(np.mean((actual - forecast) ** 2)))


def mae(actual, forecast) -> float:
    actual, forecast = _paired(actual, forecast)
    return float(np.mean(np.abs(actual - forecast)))


def mase(actual, forecast, train, seasonal_lag: int = 1) -> float:
    """Test-set MAE scaled by the in-sample seasonal-naive MAE of the train series."""
    actual, forecast = _paired(actual, forecast)
    train = np.asarray(train, dtype=float)
    if seasonal_lag < 1:
        raise ValueError("seasonal_lag must be >= 1")
    if train.size <= seasonal_lag:
        raise ValueError("train series shorter than seasonal lag")
    scale = np.mean(np.abs(train[seasonal_lag:] - train[:-seasonal_lag]))
    if scale == 0.0:
        raise UndefinedMetricError("MASE undefined: constant training series")
    return float(np.mean(np.abs(actual - forecast)) / scale)


def smape(actual, forecast) -> float:
    """Symmetric MAPE on the 0-200 scale; a term with both values zero contributes 0."""
    actual, forecast = _paired(actual, forecast)
    denom = np.abs(actual) + np.abs(forecast)
    terms = np.where(denom == 0.0, 0.0, 200.0 * np.abs(forecast - actual) / np.where(denom == 0.0, 1.0, denom))
    return float(np.mean(terms))


def metric_set(actual, forecast, train, seasonal_lag: int = 1) -> MetricSet:
    return MetricSet(
        rmse=rmse(actual, forecast),
        mae=mae(actual, forecast),
        mase=mase(actual, forecast, train, seasonal_lag),
        smape=smape(actual, forecast),
    )
