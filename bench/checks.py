"""Checks on the files each CLI op writes.

Every check reads the op's output files back, raises ``CheckError`` when an
output is wrong, and otherwise returns the facts the benchmark needs from
them (for example the forecast arrays used to score accuracy).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An op's output failed its check."""


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI CSV, skipping its ``# seed=...`` comment line."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    except FileNotFoundError:
        raise CheckError(f"missing output {path.name}") from None
    if not rows:
        raise CheckError(f"{path.name} is empty")
    return rows[0], rows[1:]


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckError(f"missing output {path.name}") from None
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name} is not valid JSON: {exc}") from None


def _floats(rows: list[list[str]], column: int, label: str) -> np.ndarray:
    try:
        values = np.array([float(row[column]) for row in rows])
    except (ValueError, IndexError):
        raise CheckError(f"{label}: unparsable value") from None
    if not np.all(np.isfinite(values)):
        raise CheckError(f"{label}: non-finite value")
    return values


def check_fit(out: Path, p_grid: tuple[int, ...]) -> dict:
    model = read_json(out / "model.json")
    if model.get("chosen_p") not in p_grid:
        raise CheckError(f"chosen p {model.get('chosen_p')!r} not in grid {p_grid}")
    components = model.get("component_models")
    if not components or len(components) != model.get("levels", -1) + 1:
        raise CheckError("model.json needs one network per detail plus the smooth")
    return {"networks_kept": len(components)}


def check_forecast(out: Path, horizon: int) -> dict:
    header, rows = read_csv(out / "forecast.csv")
    if header[:4] != ["step", "point", "lower", "upper"] or len(rows) != horizon:
        raise CheckError(f"forecast.csv must have {horizon} rows of step,point,lower,upper")
    point = _floats(rows, 1, "forecast point")
    lower = _floats(rows, 2, "forecast lower")
    upper = _floats(rows, 3, "forecast upper")
    if np.any(lower > point) or np.any(point > upper):
        raise CheckError("forecast interval does not satisfy lower <= point <= upper")
    return {"point": point, "lower": lower, "upper": upper}


def check_decompose(out: Path, rel_tol: float = 1e-8) -> dict:
    header, rows = read_csv(out / "decomposition.csv")
    if header[0] != "t" or header[-1] != "original" or header[-2] != "SJ" or len(header) < 4:
        raise CheckError("decomposition.csv must have columns t, D1..DJ, SJ, original")
    columns = np.column_stack([_floats(rows, j, header[j]) for j in range(1, len(header))])
    original = columns[:, -1]
    error = np.max(np.abs(columns[:, :-1].sum(axis=1) - original))
    if error > rel_tol * max(1.0, float(np.max(np.abs(original)))):
        raise CheckError(f"decomposition columns miss the original by {error:.3g}")
    return {"levels": len(header) - 3}


def check_evaluate(out: Path, horizons: list[str]) -> dict:
    report = read_json(out / "evaluation.json")
    cases = report.get("cases", [])
    if len(cases) != len(horizons):
        raise CheckError(f"evaluation.json has {len(cases)} cases, expected {len(horizons)}")
    for case in cases:
        for model, metrics in case["results"].items():
            values = [v for v in metrics.values() if isinstance(v, (int, float))]
            if not values or not all(math.isfinite(v) for v in values):
                raise CheckError(f"{case['case']}/{model}: non-finite metric")
    for metric in ("rmse", "mae", "mase", "smape"):
        header, rows = read_csv(out / f"ranks_{metric}.csv")
        m = len(header) - 1
        ranks = np.column_stack([_floats(rows, j, f"rank {metric}") for j in range(1, m + 1)])
        if len(rows) != len(cases) or not np.allclose(ranks.sum(axis=1), m * (m + 1) / 2):
            raise CheckError(f"ranks_{metric}.csv rows must sum to M(M+1)/2")
    return {"cases": cases}


def check_stats(out: Path) -> dict:
    payload = read_json(out / "stats.json")
    for test in ("friedman", "iman_f"):
        p_value = payload.get(test, {}).get("p_value")
        if not isinstance(p_value, (int, float)) or not 0.0 <= p_value <= 1.0:
            raise CheckError(f"{test} p-value {p_value!r} outside [0, 1]")
    return {}


def check_profile(out: Path) -> dict:
    hurst = read_json(out / "profile.json").get("hurst_exponent")
    if not isinstance(hurst, (int, float)) or not math.isfinite(hurst):
        raise CheckError(f"Hurst exponent {hurst!r} is not finite")
    return {}
