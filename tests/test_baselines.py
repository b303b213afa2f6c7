import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.baselines import arnn_forecast, rw_forecast, rwd_forecast
from epicast.ewnet import EwnetConfig, fit_ewnet, forecast_ewnet, select_p
from epicast.neuralnet import (TrainConfig, fit_network, forecast_recursive,
                               hidden_neurons)


class TestRandomWalk:
    def test_repeats_last_value(self):
        np.testing.assert_array_equal(rw_forecast([1.0, 5.0, 2.0], 4), np.full(4, 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rw_forecast([], 1)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            rw_forecast([1.0], 0)


class TestRandomWalkDrift:
    def test_hand_value(self):
        # drift = (7 - 1) / 3 = 2
        np.testing.assert_allclose(rwd_forecast([1.0, 2.0, 5.0, 7.0], 3),
                                   [9.0, 11.0, 13.0])

    def test_extends_linear_series_exactly(self):
        y = 3.0 + 0.5 * np.arange(40)
        np.testing.assert_allclose(rwd_forecast(y, 5), 3.0 + 0.5 * np.arange(40, 45))

    def test_zero_drift_reduces_to_rw(self):
        y = [4.0, 6.0, 4.0]
        np.testing.assert_allclose(rwd_forecast(y, 2), rw_forecast(y, 2))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            rwd_forecast([1.0], 1)


class TestArnn:
    def test_shape_and_determinism(self):
        rng = np.random.default_rng(0)
        y = np.cumsum(rng.normal(size=80)) + 50.0
        cfg = TrainConfig(epochs=60, restarts=2, seed=3, learning_rate=0.05)
        f1 = arnn_forecast(y, 4, cfg, p_grid=(1, 2, 3))
        f2 = arnn_forecast(y, 4, cfg, p_grid=(1, 2, 3))
        assert f1.shape == (4,)
        np.testing.assert_array_equal(f1, f2)

    def test_tracks_mean_reverting_level(self):
        rng = np.random.default_rng(5)
        y = np.empty(200)
        y[0] = 20.0
        for t in range(1, 200):
            y[t] = 20.0 + 0.3 * (y[t - 1] - 20.0) + rng.normal(scale=0.4)
        cfg = TrainConfig(epochs=400, restarts=3, seed=1, learning_rate=0.05)
        point = arnn_forecast(y, 6, cfg, p_grid=(1, 2))
        # Multi-step forecasts of a mean-reverting process settle near the level.
        assert abs(point[-1] - 20.0) < 1.0

    def test_grid_exhausted(self):
        with pytest.raises(ValueError, match="no feasible lag"):
            arnn_forecast(np.arange(6.0), 1, TrainConfig(epochs=1, restarts=1),
                          p_grid=(30,))

    def test_one_network_on_the_component_zero_stream_with_the_mae_lag(self):
        # MASE on the tail is MAE over a constant of the head, so the chosen lag
        # is the MAE argmin; the single network trains on EWNet's component-0 stream.
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.normal(size=70)) + 40.0
        cfg = TrainConfig(epochs=40, restarts=2, seed=5, learning_rate=0.05)
        stream = dataclasses.replace(
            cfg, seed=int(np.random.SeedSequence([5, 0]).generate_state(1)[0]))
        head, tail = y[:-14], y[-14:]
        grid = (1, 2, 3)
        maes = [np.mean(np.abs(forecast_recursive(
            fit_network(head, p, hidden_neurons(p), stream), head, tail.size) - tail))
            for p in grid]
        p = grid[int(np.argmin(maes))]
        expected = forecast_recursive(fit_network(y, p, hidden_neurons(p), stream), y, 5)
        np.testing.assert_array_equal(arnn_forecast(y, 5, cfg, p_grid=grid), expected)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(12, 48), h=st.integers(1, 6), seed=st.integers(0, 2**16),
       grid=st.sets(st.integers(1, 5), min_size=1, max_size=3))
def test_arnn_is_ewnet_with_zero_levels(n, h, seed, grid):
    y = 20.0 + np.cumsum(np.random.default_rng(seed).normal(size=n))
    cfg = TrainConfig(learning_rate=0.05, epochs=10, restarts=2, seed=seed)
    e_cfg = EwnetConfig(levels=0, p_grid=tuple(grid), train_cfg=cfg)
    val_len = max(1, round(0.2 * n))
    p = select_p(y[:-val_len], y[-val_len:], e_cfg)
    expected = forecast_ewnet(fit_ewnet(y, e_cfg, p), h)
    np.testing.assert_array_equal(arnn_forecast(y, h, cfg, p_grid=grid), expected)
