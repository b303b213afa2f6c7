import dataclasses
import math

import numpy as np
import pytest

from epicast import neuralnet
from epicast.ewnet import (
    EwnetConfig,
    EwnetModel,
    IntervalForecast,
    conformal_interval,
    default_levels,
    fit_ewnet,
    fit_ewnet_selected,
    fit_selected,
    forecast_ewnet,
    in_sample_residuals,
    precontrol_interval,
    select_p,
    validation_abs_residuals,
)
from epicast.neuralnet import TrainConfig
from epicast.wavelet import modwt_forward, mra_reconstruct

FAST = TrainConfig(learning_rate=0.05, epochs=120, restarts=2, seed=0)


def lag4_series(n=280, seed=100):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(4, n):
        y[t] = 0.95 * y[t - 4] + rng.normal(scale=0.2)
    return y + 10.0


class TestDefaultLevels:
    @pytest.mark.parametrize("n,j", [(8, 1), (20, 1), (21, 2), (92, 3), (148, 3), (149, 4), (403, 4)])
    def test_floor_log(self, n, j):
        assert default_levels(n) == j
        assert j == math.floor(math.log(n)) - 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            default_levels(7)


class TestEwnetConfig:
    def test_defaults(self):
        cfg = EwnetConfig()
        assert cfg.p_grid == tuple(range(1, 21))
        assert cfg.selection_metric == "mase"

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            EwnetConfig(selection_metric="rmse")

    @pytest.mark.parametrize("grid", [(4, 4), (1, 3, 1), (0,), (-2, 3), (2.5,), (True, 2)])
    def test_rejects_repeated_or_non_positive_integer_lags(self, grid):
        with pytest.raises(ValueError, match="p_grid"):
            EwnetConfig(p_grid=grid)

    def test_accepts_numpy_integer_lags(self):
        assert EwnetConfig(p_grid=(np.int64(4), 8)).p_grid == (4, 8)

    @pytest.mark.parametrize("lag", [0, -1, 1.5, True, "2"])
    def test_rejects_a_seasonal_lag_that_is_not_a_positive_integer(self, lag):
        with pytest.raises(ValueError, match="seasonal_lag"):
            EwnetConfig(seasonal_lag=lag)

    @pytest.mark.parametrize("levels", [-1, 2.5, True, "2", np.nan])
    def test_rejects_levels_that_are_not_a_whole_number_from_zero(self, levels):
        with pytest.raises(ValueError, match="levels"):
            EwnetConfig(levels=levels)

    def test_whole_valued_settings_become_ints(self):
        cfg = EwnetConfig(levels=2.0, p_grid=[np.int64(3), 5.0], seasonal_lag=np.float64(4.0))
        assert (cfg.levels, cfg.p_grid, cfg.seasonal_lag) == (2, (3, 5), 4)
        assert {type(v) for v in (cfg.levels, *cfg.p_grid, cfg.seasonal_lag)} == {int}


class TestFitForecast:
    def test_model_shape(self):
        y = lag4_series()
        cfg = EwnetConfig(levels=3, train_cfg=FAST)
        model = fit_ewnet(y, cfg, p=4)
        assert model.chosen_p == 4
        assert model.chosen_k == 2
        assert len(model.component_models) == 4
        np.testing.assert_allclose(mra_reconstruct(model.decomposition), y, atol=1e-9)

    def test_forecast_is_sum_of_components(self):
        from epicast import neuralnet

        y = lag4_series()
        model = fit_ewnet(y, EwnetConfig(levels=2, train_cfg=FAST), p=3)
        h = 5
        total = np.zeros(h)
        for net, comp in zip(model.component_models,
                             model.decomposition.components()):
            total += neuralnet.forecast_recursive(net, comp, h)
        assert forecast_ewnet(model, h).tobytes() == total.tobytes()

    @pytest.mark.parametrize("h", [0, -1])
    def test_horizon_below_one_is_rejected(self, h):
        model = fit_ewnet(lag4_series(), EwnetConfig(levels=1, train_cfg=FAST), p=2)
        with pytest.raises(ValueError, match=r"^h must be >= 1$"):
            forecast_ewnet(model, h)

    def test_determinism(self):
        y = lag4_series()
        cfg = EwnetConfig(levels=2, train_cfg=FAST)
        f1 = forecast_ewnet(fit_ewnet(y, cfg, p=2), 4)
        f2 = forecast_ewnet(fit_ewnet(y, cfg, p=2), 4)
        np.testing.assert_array_equal(f1, f2)

    def test_component_lags_must_equal_the_chosen_lag(self):
        model = fit_ewnet(lag4_series(), EwnetConfig(levels=2, train_cfg=FAST), p=2)
        with pytest.raises(ValueError, match="chosen_p"):
            dataclasses.replace(model, chosen_p=3)

    @pytest.mark.parametrize("train_len,decomp_len", [(2, 2), (12, 10)],
                             ids=["shorter-than-the-lag", "decomposition-of-another-length"])
    def test_the_training_series_must_fit_the_lag_and_the_decomposition(self, train_len,
                                                                        decomp_len):
        y = lag4_series()
        nets = [neuralnet.NeuralNetModel(weights=None, p=3, k=2, scaler=(10.0, 1.0), seed=0)
                for _ in range(2)]
        with pytest.raises(ValueError) as excinfo:
            EwnetModel(decomposition=modwt_forward(y[:decomp_len], 1), component_models=nets,
                       chosen_p=3, train_series=y[:train_len])
        assert str(excinfo.value) == (
            f"train_series has {train_len} points and its decomposition {decomp_len}; "
            "both need one length >= chosen_p = 3")

    def test_component_seeds_differ(self):
        y = lag4_series()
        model = fit_ewnet(y, EwnetConfig(levels=2, train_cfg=FAST), p=2)
        seeds = {m.seed for m in model.component_models}
        assert len(seeds) == len(model.component_models)


class TestLagSelection:
    def test_tie_breaks_to_smaller_lag(self):
        # A constant series makes every component model a constant predictor,
        # so every candidate scores identically.
        y = np.full(60, 5.0)
        cfg = EwnetConfig(levels=2, p_grid=(2, 3, 5), train_cfg=FAST,
                          selection_metric="smape")
        assert select_p(y[:48], y[48:], cfg) == 2

    def test_recovers_seasonal_lag(self):
        # Frozen benchmark: strongly lag-4-dependent series. Selection should
        # pick p=4 in at least 8 of 10 seeded replications.
        hits = 0
        cfg_base = TrainConfig(learning_rate=0.05, epochs=300, restarts=3)
        for s in range(10):
            y = lag4_series(seed=100 + s)
            cfg = EwnetConfig(levels=2, p_grid=(1, 2, 3, 4),
                              train_cfg=dataclasses.replace(cfg_base, seed=s))
            p = select_p(y[:-12], y[-12:], cfg)
            if p == 4:
                hits += 1
        assert hits >= 8

    def test_a_failed_decomposition_is_one_error_not_one_per_lag(self):
        # The decomposition does not depend on p, so every candidate would fail alike.
        y = lag4_series()
        with pytest.raises(ValueError) as excinfo:
            select_p(y[:7], y[7:12], EwnetConfig(p_grid=(1, 2, 3), train_cfg=FAST))
        assert str(excinfo.value) == "need at least 8 training observations"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_validation_value_fails_before_any_network_trains(self, monkeypatch,
                                                                            bad):
        monkeypatch.setattr(neuralnet, "fit_networks", lambda jobs: pytest.fail("trained"))
        y = lag4_series()
        val = y[-6:].copy()
        val[3] = bad
        with pytest.raises(ValueError) as excinfo:
            select_p(y[:-6], val, EwnetConfig(levels=2, p_grid=(1, 2), train_cfg=FAST))
        assert str(excinfo.value) == f"non-finite validation value {bad} at position 3"

    def test_selected_refits_on_train_plus_val(self):
        y = lag4_series()
        cfg = EwnetConfig(levels=2, p_grid=(2,), train_cfg=FAST)
        model = fit_ewnet_selected(y[:-10], y[-10:], cfg)
        assert model.train_series.size == y.size

    def test_a_candidate_that_failed_in_the_worker_is_skipped_as_in_process(self, monkeypatch):
        # Lag 8 stands in for a fit that diverged. Its two networks are the largest of the
        # batch, so the split gives one to each process, and the candidate's error names
        # it; in process, the candidate fails with the same message.
        train = neuralnet._train

        def diverging(z, p, k, cfg, seeds):
            state, curves = train(z, p, k, cfg, seeds)
            if p == 8:
                state[2][:] = np.nan
            return state, curves

        fanned = []
        fan_out = neuralnet._fan_out
        monkeypatch.setattr(neuralnet, "_fan_out", lambda *a: fanned.append(1) or fan_out(*a))
        monkeypatch.setattr(neuralnet, "MIN_WORK", 0)
        monkeypatch.setattr(neuralnet, "MAX_STACK", 0)  # a stack for each network
        monkeypatch.setattr(neuralnet, "_train", diverging)
        y = lag4_series()
        cfg = EwnetConfig(levels=1, p_grid=(2, 8), train_cfg=FAST)
        got = []
        neuralnet._close_worker()  # the next worker is forked with the patch
        try:
            for cpus in (2, 1):
                monkeypatch.setattr(neuralnet, "_cpus", lambda: cpus)
                with pytest.raises(ValueError) as excinfo:
                    select_p(y[:-12], y[-12:], dataclasses.replace(cfg, p_grid=(8,)))
                got.append((select_p(y[:-12], y[-12:], cfg), str(excinfo.value)))
        finally:
            neuralnet._close_worker()
        assert fanned == [1, 1]
        assert got == [(2, "no feasible lag order in the grid: p=8: non-finite weights")] * 2


class TestFitSelected:
    def test_two_searches_train_in_two_batches_the_models_of_separate_fits(self, monkeypatch):
        y = lag4_series()
        searches = [
            (y[:-10], y[-10:], EwnetConfig(levels=2, p_grid=(2, 4), train_cfg=FAST)),
            (y[:150], y[150:170], EwnetConfig(levels=1, p_grid=(1, 3, 4),
                                              train_cfg=dataclasses.replace(FAST, seed=7))),
        ]
        # The sequence fit_selected replaces: select on train, refit on train + validation.
        spelled_out = [fit_ewnet(np.concatenate([train, val]), cfg, select_p(train, val, cfg))
                       for train, val, cfg in searches]
        one_by_one = [fit_ewnet_selected(*search) for search in searches]
        batches = []
        fit_networks = neuralnet.fit_networks
        monkeypatch.setattr(neuralnet, "fit_networks",
                            lambda jobs: batches.append(len(jobs)) or fit_networks(jobs))
        got = fit_selected(searches)
        # 2 lags x 3 components and 3 lags x 2 components, then 3 + 2 components.
        assert batches == [12, 5]

        def state(model):
            return (model.chosen_p, model.train_series.tobytes(),
                    [net.to_dict() for net in model.component_models],
                    forecast_ewnet(model, 7).tobytes())

        for model, *expected in zip(got, spelled_out, one_by_one):
            assert [state(model)] * 2 == [state(e) for e in expected]

    def test_a_failing_search_is_its_items_value_error(self):
        y = lag4_series()
        cfg = EwnetConfig(levels=1, p_grid=(1, 2), train_cfg=FAST)
        undefined = "MASE undefined: constant training series"
        searches = [
            (y[:7], y[7:12], EwnetConfig(p_grid=(1, 2), train_cfg=FAST)),
            (np.full(30, 5.0), np.full(5, 5.0), cfg),
            (y[:-10], y[-10:], cfg),
            (y[:30], 5.0, cfg),  # a validation scalar, which train + validation cannot join
        ]
        got = fit_selected(searches)
        assert [str(entry) for entry in got[:2]] == [
            "need at least 8 training observations",
            f"no feasible lag order in the grid: p=1: {undefined}; p=2: {undefined}"]
        assert str(got[3]).startswith("no feasible lag order in the grid: p=1: length mismatch")
        assert [type(entry) for entry in got] == [ValueError, ValueError, EwnetModel, ValueError]
        alone = fit_ewnet_selected(*searches[2])
        assert [net.to_dict() for net in got[2].component_models] == [
            net.to_dict() for net in alone.component_models]


class TestPrecontrolInterval:
    def test_half_width_is_1_5_sigma(self):
        residuals = [1.0, -1.0, 2.0, -2.0]
        iv = precontrol_interval(np.array([10.0]), residuals)
        sigma = np.std(residuals, ddof=1)
        assert iv.upper[0] - iv.point[0] == pytest.approx(1.5 * sigma)
        assert iv.point[0] - iv.lower[0] == pytest.approx(1.5 * sigma)
        assert iv.method == "precontrol"
        assert iv.nominal_level == pytest.approx(0.86)

    def test_gaussian_nominal_coverage(self):
        # For one-sigma-wide Gaussian errors the +/- 1.5 sigma band covers
        # about 86.6% of outcomes.
        from scipy import stats

        assert stats.norm.cdf(1.5) - stats.norm.cdf(-1.5) == pytest.approx(0.8664, abs=5e-4)

    def test_requires_two_residuals(self):
        with pytest.raises(ValueError):
            precontrol_interval(np.array([1.0]), [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_residuals(self, bad):
        # One NaN would give nan bounds, which the bracket check lets through.
        with pytest.raises(ValueError, match="in-sample residuals must be finite"):
            precontrol_interval(np.array([10.0, 11.0]), [1.0, bad, -1.0])

    def test_in_sample_residual_length(self):
        y = lag4_series()
        model = fit_ewnet(y, EwnetConfig(levels=2, train_cfg=FAST), p=3)
        res = in_sample_residuals(model)
        assert res.size == y.size - 3


class TestConformalInterval:
    def test_order_statistic_quantile(self):
        cal = np.arange(1.0, 20.0)  # n = 19
        # rank = ceil(20 * 0.9) = 18, so the half-width is the 18th smallest.
        iv = conformal_interval(np.array([0.0]), cal, 0.9)
        assert iv.upper[0] == pytest.approx(18.0)
        assert iv.lower[0] == pytest.approx(-18.0)
        assert iv.method == "conformal"

    def test_unsorted_input(self):
        cal = [3.0, 1.0, 2.0]
        iv = conformal_interval(np.array([5.0]), cal, 0.5)
        # rank = ceil(4 * 0.5) = 2 -> second smallest = 2.0
        assert iv.upper[0] == pytest.approx(7.0)

    def test_infeasible_level(self):
        with pytest.raises(ValueError, match="infeasible"):
            conformal_interval(np.array([0.0]), [1.0, 2.0], 0.95)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            conformal_interval(np.array([0.0]), [1.0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_or_negative_residuals(self, bad):
        cal = np.arange(1.0, 40.0)
        cal[5] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            conformal_interval(np.array([0.0]), cal, 0.95)

    def test_exchangeable_coverage(self):
        # Split conformal guarantees >= level coverage under exchangeability.
        rng = np.random.default_rng(12)
        level = 0.8
        hits = 0
        trials = 2000
        for _ in range(trials):
            cal = np.abs(rng.normal(size=24))
            new = abs(rng.normal())
            iv = conformal_interval(np.array([0.0]), cal, level)
            hits += new <= iv.upper[0]
        assert hits / trials >= level - 0.02

    def test_validation_residuals_roll_forward(self):
        y = lag4_series()
        model = fit_ewnet(y[:-6], EwnetConfig(levels=2, train_cfg=FAST), p=2)
        res = validation_abs_residuals(model, y[-6:])
        assert res.shape == (6,)
        assert np.all(res >= 0)
        # First residual must equal the plain one-step forecast error.
        first = abs(forecast_ewnet(model, 1)[0] - y[-6])
        assert res[0] == pytest.approx(first)

    @pytest.mark.parametrize("position", [0, 3, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validation_residuals_reject_non_finite_values(self, position, bad):
        # The last value is never part of a history, only compared with its forecast.
        y = lag4_series()
        model = fit_ewnet(y[:-6], EwnetConfig(levels=2, train_cfg=FAST), p=2)
        val = y[-6:].copy()
        val[position] = bad
        with pytest.raises(ValueError, match=f"non-finite validation value .* {position}"):
            validation_abs_residuals(model, val)


class TestIntervalForecast:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            IntervalForecast(point=np.array([1.0]), lower=np.array([2.0]),
                             upper=np.array([3.0]), method="x", nominal_level=0.5)
