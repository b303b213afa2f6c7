"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the workload seed and returns plain data; the writers
turn it into the CSV files the CLI reads. The same seed gives byte-identical
files and different seeds give different files, because only the noise draw
(and, for the rank table, the permutations) depends on the seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WEEKLY_LEN = 312
WEEKLY_HOLDOUT = 13
MONTHLY_LEN = 144
LONG_LEN = 4096
LONG_HOLDOUT = 52
RANK_CASES = 30
RANK_MODELS = 6


def _ar1(rng: np.random.Generator, n: int, phi: float, sigma: float) -> np.ndarray:
    shocks = rng.normal(0.0, sigma, size=n)
    out = np.empty(n)
    out[0] = shocks[0] / np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        out[t] = phi * out[t - 1] + shocks[t]
    return out


def weekly_series(seed: int) -> np.ndarray:
    """Weekly case counts: an annual epidemic wave on a slow trend, AR(1) noise, clipped at 0.

    The noise is small next to the wave so that every seed selects the same
    lag order on the 1,4,8 grid, and a pass does the same work whatever the
    seed (the refits train networks of the chosen order).
    """
    rng = np.random.default_rng([seed, 1])
    t = np.arange(WEEKLY_LEN, dtype=float)
    phase = 2.0 * np.pi * t / 52.0
    wave = 400.0 * np.exp(2.5 * (np.cos(phase - 1.0) - 1.0))
    trend = 60.0 + 0.15 * t
    return np.clip(trend + wave + _ar1(rng, WEEKLY_LEN, 0.6, 6.0), 0.0, None)


def monthly_series(seed: int) -> np.ndarray:
    """Monthly counts: annual sinusoid, linear trend and AR(1) noise.

    As in ``weekly_series``, the noise is small enough that EWNet and ARNN
    select the same lag order (12 on the 1,3,12 grid) whatever the seed.
    """
    rng = np.random.default_rng([seed, 2])
    t = np.arange(MONTHLY_LEN, dtype=float)
    return 200.0 + 0.8 * t + 60.0 * np.sin(2.0 * np.pi * t / 12.0) + _ar1(rng, MONTHLY_LEN, 0.5, 12.0)


def long_series(seed: int) -> np.ndarray:
    """Daily-like series with weekly and annual cycles and AR(1) noise."""
    rng = np.random.default_rng([seed, 3])
    t = np.arange(LONG_LEN, dtype=float)
    return (500.0 + 40.0 * np.sin(2.0 * np.pi * t / 7.0)
            + 150.0 * np.sin(2.0 * np.pi * t / 365.25)
            + _ar1(rng, LONG_LEN, 0.7, 15.0))


def rank_table(seed: int) -> np.ndarray:
    """RANK_CASES x RANK_MODELS table whose rows are random permutations of 1..M."""
    rng = np.random.default_rng([seed, 4])
    return np.vstack([rng.permutation(RANK_MODELS) + 1 for _ in range(RANK_CASES)]).astype(float)


def write_series(path: Path, values: np.ndarray) -> None:
    lines = ["t,value"] + [f"{i},{v:.6f}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def write_ranks(path: Path, ranks: np.ndarray) -> None:
    header = "case," + ",".join(f"m{j + 1}" for j in range(ranks.shape[1]))
    rows = [f"c{i + 1}," + ",".join(f"{r:g}" for r in row) for i, row in enumerate(ranks)]
    path.write_text("\n".join([header, *rows]) + "\n")


def read_series(path: Path) -> np.ndarray:
    """Values as the program reads them back (the CSV is written at 6 decimals)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
