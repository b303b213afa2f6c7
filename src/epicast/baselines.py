"""Reference forecasters: random walk, random walk with drift, standalone ARNN."""

from __future__ import annotations

import numpy as np

from . import neuralnet
from .neuralnet import TrainConfig, hidden_neurons


def rw_forecast(train, h: int) -> np.ndarray:
    """Persistence: h copies of the last observation."""
    train = np.asarray(train, dtype=float)
    if train.size == 0:
        raise ValueError("empty training series")
    if h < 1:
        raise ValueError("h must be >= 1")
    return np.full(h, train[-1])


def rwd_forecast(train, h: int) -> np.ndarray:
    """Persistence with drift d = (y_N - y_1) / (N - 1)."""
    train = np.asarray(train, dtype=float)
    if train.size < 2:
        raise ValueError("need at least 2 observations for drift")
    if h < 1:
        raise ValueError("h must be >= 1")
    drift = (train[-1] - train[0]) / (train.size - 1)
    return train[-1] + drift * np.arange(1, h + 1)


def arnn_forecast(train, h: int, cfg: TrainConfig,
                  p_grid=tuple(range(1, 21)), val_fraction: float = 0.2) -> np.ndarray:
    """Non-wavelet ARNN: lag order picked on a short validation tail, then refit.

    Mirrors the grid search used by the ensemble model rather than AR order
    selection, keeping the baseline self-contained.
    """
    train = np.asarray(train, dtype=float)
    if h < 1:
        raise ValueError("h must be >= 1")
    val_len = max(1, int(round(val_fraction * train.size)))
    head, tail = train[:-val_len], train[-val_len:]

    best_p = None
    best_err = np.inf
    for p in sorted(p_grid):
        if head.size < p + 2:
            continue
        model = neuralnet.fit_network(head, p, hidden_neurons(p), cfg)
        forecast = neuralnet.forecast_recursive(model, head, val_len)
        err = float(np.mean(np.abs(forecast - tail)))
        if err < best_err:
            best_err = err
            best_p = p
    if best_p is None:
        raise ValueError("no feasible lag order for the given series")

    model = neuralnet.fit_network(train, best_p, hidden_neurons(best_p), cfg)
    return neuralnet.forecast_recursive(model, train, h)
