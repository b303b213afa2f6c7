"""Reference forecasters: random walk, random walk with drift, and ARNN (EWNet with J = 0)."""

from __future__ import annotations

import numpy as np

from . import core, ewnet
from .neuralnet import TrainConfig


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


def arnn_search(train, cfg: TrainConfig, p_grid=tuple(range(1, 21))):
    """ARNN's ``ewnet.select_lags`` search: EWNet with zero levels, scored on the last
    20% of ``train``; its restarts draw from EWNet's component-0 seed stream."""
    train = np.asarray(train, dtype=float)
    val_len = max(1, int(round(0.2 * train.size)))
    return (train[:-val_len], train[-val_len:],
            ewnet.EwnetConfig(levels=0, p_grid=tuple(p_grid), train_cfg=cfg))


def arnn_forecast(train, h: int, cfg: TrainConfig, p_grid=tuple(range(1, 21))) -> np.ndarray:
    """Non-wavelet ARNN: the ``ewnet.fit_selected`` model of ``arnn_search``, whose
    refit spans the whole series."""
    if h < 1:
        raise ValueError("h must be >= 1")
    model = ewnet.fit_selected([arnn_search(train, cfg, p_grid)])[0]
    return ewnet.forecast_ewnet(core.unwrap(model), h)
