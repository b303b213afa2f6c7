import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.neuralnet import (
    NeuralNetModel,
    TrainConfig,
    _design,
    _forward,
    _layers,
    _loss_and_grad,
    fit_network,
    fitted_values,
    forecast_paths,
    forecast_recursive,
    hidden_neurons,
    predict,
)


def ar1_series(n=220, phi=0.5, level=10.0, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    y = np.empty(n)
    y[0] = level
    for t in range(1, n):
        y[t] = level + phi * (y[t - 1] - level) + rng.normal(scale=noise)
    return y


class TestHiddenNeurons:
    @pytest.mark.parametrize("p,k", [(1, 1), (2, 1), (3, 2), (7, 4), (19, 10), (20, 10)])
    def test_table(self, p, k):
        assert hidden_neurons(p) == k

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hidden_neurons(0)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.005
        assert cfg.epochs == 500
        assert cfg.restarts == 20

    def test_replace(self):
        cfg = dataclasses.replace(TrainConfig(), epochs=10, seed=3)
        assert (cfg.epochs, cfg.seed, cfg.restarts) == (10, 3, 20)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, learning_rate=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, restarts=0)

    def test_whole_valued_and_numpy_numbers_take_their_default_types(self):
        cfg = TrainConfig(learning_rate=1, epochs=3.0, restarts=np.int64(2),
                          tolerance=np.float32(0.5), patience=np.float64(4.0))
        values = (cfg.learning_rate, cfg.epochs, cfg.restarts, cfg.tolerance, cfg.patience)
        assert values == (1.0, 3, 2, 0.5, 4)
        assert [type(v) for v in values] == [float, int, int, float, int]

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("key,value,message", [
        ("learning_rate", float("nan"), "learning_rate must be positive and finite, got nan"),
        ("learning_rate", float("inf"), "learning_rate must be positive and finite, got inf"),
        ("tolerance", float("nan"), "tolerance must be a number, got nan"),
        ("patience", 0, "patience must be >= 1, got 0"),
        ("patience", -3, "patience must be >= 1, got -3"),
        ("epochs", 2.5, "epochs must be a whole number, got 2.5"),
        ("restarts", True, "restarts must be a whole number, got True"),
        ("patience", 1.9, "patience must be a whole number, got 1.9"),
        ("learning_rate", True, "learning_rate must be a number, got True"),
        ("tolerance", False, "tolerance must be a number, got False"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", True, "seed must be a whole number, got True"),
        ("epochs", "50", "epochs must be a whole number, got '50'"),
        ("learning_rate", "0.05", "learning_rate must be a number, got '0.05'"),
    ])
    def test_rejects_settings_that_cannot_train(self, key, value, message):
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(**{key: value})
        assert str(excinfo.value) == message


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p, k, n, r = 3, 2, 30, 2
        x = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        params = [rng.normal(scale=0.3, size=s) for s in
                  [(r, k, p), (r, k), (r, k), (r,)]]

        loss, grads = _loss_and_grad(tuple(params), x, y)
        eps = 1e-6
        worst = 0.0
        for pi, grad in enumerate(grads):
            flat = params[pi].ravel()
            gflat = grad.ravel()
            for idx in range(flat.size):
                saved = flat[idx]
                flat[idx] = saved + eps
                lp, _ = _loss_and_grad(tuple(params), x, y)
                flat[idx] = saved - eps
                lm, _ = _loss_and_grad(tuple(params), x, y)
                flat[idx] = saved
                numeric = (lp.sum() - lm.sum()) / (2 * eps)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(numeric - gflat[idx]) / denom)
        assert worst < 1e-4


class TestFitNetwork:
    def test_determinism(self):
        y = ar1_series(seed=1)
        cfg = TrainConfig(epochs=50, restarts=3, seed=9)
        m1 = fit_network(y, p=2, k=1, cfg=cfg)
        m2 = fit_network(y, p=2, k=1, cfg=cfg)
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_result(self):
        y = ar1_series(seed=1)
        m1 = fit_network(y, 2, 1, TrainConfig(epochs=50, restarts=2, seed=0))
        m2 = fit_network(y, 2, 1, TrainConfig(epochs=50, restarts=2, seed=1))
        first_input_layer = [m.weights[0][0, :, :-1] for m in (m1, m2)]
        assert not np.array_equal(*first_input_layer)

    def test_restarts_share_no_output_weights(self):
        y = ar1_series(seed=2)
        model = fit_network(y, 4, 2, TrainConfig(epochs=40, restarts=5, seed=3))
        w_in, w_out, b2 = model.weights
        assert w_out.shape == (5, 2)
        xt = _design(np.lib.stride_tricks.sliding_window_view(y, 4), *model.scaler)
        base = _forward(xt, _layers(model.weights))[1][:, 0].T  # (m, R)
        for r in range(5):
            bumped = w_out.copy()
            bumped[r] += 0.25
            changed = np.any(_forward(xt, _layers((w_in, bumped, b2)))[1][:, 0].T != base,
                             axis=0)
            assert changed.tolist() == [i == r for i in range(5)]

    def test_loss_curve_mostly_decreasing(self):
        # At a conservative step size full-batch descent should rarely overshoot.
        y = ar1_series(seed=4)
        cfg = TrainConfig(learning_rate=1e-3, epochs=300, restarts=4, seed=2,
                          tolerance=0.0)
        model = fit_network(y, p=3, k=2, cfg=cfg)
        curve = np.array(model.training_loss)
        assert curve.size >= 100
        drops = np.diff(curve) <= 1e-12
        assert drops.mean() >= 0.95
        assert curve[-1] < curve[0]

    def test_constant_series(self):
        model = fit_network(np.full(30, 4.2), 2, 1, TrainConfig(epochs=5, restarts=1))
        assert model.constant
        assert predict(model, [[4.2, 4.2]])[0] == pytest.approx(4.2)
        np.testing.assert_allclose(forecast_recursive(model, np.full(30, 4.2), 5), 4.2)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            fit_network([1.0, 2.0, 3.0], 3, 2, TrainConfig(epochs=1, restarts=1))

    def test_ar1_one_step_accuracy(self):
        # Frozen benchmark: mean-reverting AR(1) around level 10. The fitted
        # 1-lag network should track the conditional mean to within 2%.
        y = ar1_series(n=400, phi=0.5, level=10.0, noise=0.3, seed=0)
        cfg = TrainConfig(learning_rate=0.05, epochs=3000, restarts=10, seed=0)
        model = fit_network(y, p=1, k=1, cfg=cfg)
        probes = np.array([9.3, 9.6, 10.0, 10.4, 10.7])
        for x in probes:
            truth = 10.0 + 0.5 * (x - 10.0)
            pred = predict(model, [[x]])[0]
            assert abs(pred - truth) / abs(truth) < 0.02

    def test_ar1_recursive_contraction(self):
        y = ar1_series(n=400, phi=0.5, level=10.0, noise=0.3, seed=0)
        cfg = TrainConfig(learning_rate=0.05, epochs=3000, restarts=10, seed=0)
        model = fit_network(y, p=1, k=1, cfg=cfg)
        path = forecast_recursive(model, np.append(y, 10.7), 3)
        truth = 10.0 + 0.5 ** np.arange(1, 4) * 0.7
        np.testing.assert_allclose(path, truth, rtol=0.05)


class TestForecasting:
    def test_recursive_first_step_matches_one_step(self):
        y = ar1_series(seed=3)
        model = fit_network(y, 3, 2, TrainConfig(epochs=100, restarts=2, seed=1))
        one = predict(model, [y[-3:]])[0]
        path = forecast_recursive(model, y, 4)
        assert path[0] == pytest.approx(one)
        assert path.shape == (4,)

    def test_wrong_lag_window(self):
        y = ar1_series(seed=3)
        model = fit_network(y, 3, 2, TrainConfig(epochs=10, restarts=1))
        for windows in ([y[-2:]], y[-3:]):
            with pytest.raises(ValueError):
                predict(model, windows)

    def test_fitted_values_align_with_one_step(self):
        y = ar1_series(n=60, seed=8)
        model = fit_network(y, 2, 1, TrainConfig(epochs=100, restarts=2, seed=5))
        fitted = fitted_values(model, y)
        assert fitted.size == 58
        assert fitted[-1] == pytest.approx(predict(model, [y[-3:-1]])[0])

    def test_saturated_units_give_exactly_zero_or_one_without_a_warning(self):
        """A network whose one hidden unit is s(x) and whose output is that unit: inputs of
        +-800 and +-1e300 overflow exp, which every public path must let saturate quietly."""
        model = NeuralNetModel(weights=(np.array([[[1.0, 0.0]]]), np.ones((1, 1)), np.zeros(1)),
                               p=1, k=1, scaler=(0.0, 1.0), seed=0)
        x = [-1e300, -800.0, 800.0, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [predict(model, np.reshape(x, (4, 1))), fitted_values(model, [*x, 0.0]),
                   forecast_paths([model] * 4, [[v] for v in x], 1)[:, 0]]
        for values in got:
            assert values.tolist() == [0.0, 0.0, 1.0, 1.0]


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 4), h=st.integers(1, 30), seed=st.integers(0, 1000),
       constant=st.booleans())
def test_recursive_forecast_iterates_predict(p, h, seed, constant):
    y = np.full(30, 4.2) if constant else ar1_series(n=40, seed=seed)
    model = fit_network(y, p, hidden_neurons(p), TrainConfig(epochs=20, restarts=3, seed=seed))
    assert model.constant == constant
    path = list(y[-p:])
    for _ in range(h):
        path.append(predict(model, [path[-p:]])[0])
    assert forecast_recursive(model, y, h).tobytes() == np.array(path[p:]).tobytes()


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 4), r=st.integers(1, 4), k=st.integers(1, 3), h=st.integers(1, 12),
       constant=st.lists(st.booleans(), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_stacked_paths_iterate_predict_per_network(p, r, k, h, constant, seed):
    """One forward pass per step for all C networks gives each network's own per-step
    ``predict`` loop, bit for bit, constant networks among live ones included."""
    rng = np.random.default_rng(seed)
    models = [NeuralNetModel(weights=None if const else (
        rng.normal(size=(r, k, p + 1)), rng.normal(size=(r, k)), rng.normal(size=r)),
        p=p, k=k, scaler=(rng.normal(scale=10.0), rng.uniform(0.1, 5.0)), seed=0)
        for const in constant]
    histories = [rng.normal(10.0, 3.0, size=rng.integers(p, p + 10)) for _ in constant]
    expected = []
    for model, history in zip(models, histories):
        path = list(history[-p:])
        for _ in range(h):
            path.append(predict(model, [path[-p:]])[0])
        expected.append(path[p:])
    paths = forecast_paths(models, histories, h)
    assert paths.shape == (len(constant), h)
    assert paths.tobytes() == np.array(expected).tobytes()


# One model.json component, p = 2 lags, k = 2 hidden units, two restarts.
COMPONENT_V1 = {
    "p": 2,
    "k": 2,
    "scaler": [10.0, 2.0],
    "seed": 7,
    "constant": False,
    "constant_value": 0.0,
    "restarts": [
        {"input_to_hidden": [[0.5, -0.25], [1.0, 0.5]], "hidden_bias": [0.1, -0.2],
         "hidden_to_output": [1.5, -0.75], "output_bias": -0.2},
        {"input_to_hidden": [[-1.0, 0.75], [0.25, 0.0]], "hidden_bias": [0.0, 0.3],
         "hidden_to_output": [-0.5, 2.0], "output_bias": 0.3},
    ],
}


def hand_forecast(doc, window):
    """center + scale * mean over restarts of b2 + sum_j w2_j * sigmoid(b1_j + w1_j . z)."""
    center, scale = doc["scaler"]
    z = [(v - center) / scale for v in window]
    outs = []
    for net in doc["restarts"]:
        pre = [b + sum(w * x for w, x in zip(row, z))
               for row, b in zip(net["input_to_hidden"], net["hidden_bias"])]
        outs.append(net["output_bias"] + sum(w / (1.0 + math.exp(-a))
                                             for w, a in zip(net["hidden_to_output"], pre)))
    return center + scale * sum(outs) / len(outs)


class TestSerialization:
    def test_round_trip(self):
        y = ar1_series(seed=6)
        model = fit_network(y, 4, 2, TrainConfig(epochs=30, restarts=3, seed=7))
        clone = NeuralNetModel.from_dict(model.to_dict())
        np.testing.assert_allclose(forecast_recursive(clone, y, 5),
                                   forecast_recursive(model, y, 5))

    def test_round_trip_keeps_weights_bitwise(self):
        y = ar1_series(seed=6)
        model = fit_network(y, 5, 3, TrainConfig(epochs=30, restarts=4, seed=8))
        clone = NeuralNetModel.from_dict(json.loads(json.dumps(model.to_dict())))
        for got, want in zip(clone.weights, model.weights):
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 6), k=st.integers(1, 5), p=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_json_round_trip_keeps_every_layout_bytewise(self, r, k, p, seed):
        # The (R, k, p+1) input layer splits into model.json's per-restart weights and
        # biases and stacks back to the same bytes, whatever R, k and p.
        rng = np.random.default_rng(seed)
        w_in, w_out = rng.normal(size=(r, k, p + 1)), rng.normal(size=(r, k))
        model = NeuralNetModel(weights=(w_in, w_out, rng.normal(size=r)), p=p, k=k,
                               scaler=(rng.normal(), rng.uniform(0.1, 10.0)), seed=seed)
        doc = model.to_dict()
        clone = NeuralNetModel.from_dict(json.loads(json.dumps(doc)))
        for got, want in zip(clone.weights, model.weights):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert clone.to_dict() == doc

    def test_v1_component_format(self):
        model = NeuralNetModel.from_dict(COMPONENT_V1)
        assert model.to_dict() == COMPONENT_V1
        assert (json.dumps(model.to_dict(), sort_keys=True)
                == json.dumps(COMPONENT_V1, sort_keys=True))
        assert hand_forecast(COMPONENT_V1, [11.0, 9.0]) == pytest.approx(
            11.702727392765345, abs=1e-12)
        assert predict(model, [[11.0, 9.0]])[0] == pytest.approx(
            hand_forecast(COMPONENT_V1, [11.0, 9.0]), rel=1e-14)

    @pytest.mark.parametrize("restart,key,value,message", [
        (1, "hidden_bias", [0.0, 0.3, 0.1], "restart 1: 'hidden_bias' has 3 values, expected 2"),
        (0, "input_to_hidden", [[0.1, 0.2], [0.3]],
         "restart 0: 'input_to_hidden'[1] has 1 values, expected 2"),
        (0, "hidden_to_output", 0.5, "restart 0: 'hidden_to_output' is not a list of 2 values"),
        (1, "hidden_bias", [[0.1], [0.2]], "restart 1: 'hidden_bias'[0] must be a number, got [0.1]"),
        (0, "output_bias", [0.1], "restart 0: 'output_bias' must be a number, got [0.1]"),
        (1, "output_bias", "x", "restart 1: 'output_bias' must be a number, got 'x'"),
        (0, "output_bias", "0.5", "restart 0: 'output_bias' must be a number, got '0.5'"),
        (1, "hidden_bias", [0.1, True],
         "restart 1: 'hidden_bias'[1] must be a number, got True"),
        (0, "input_to_hidden", [[0.1, 0.2], [None, 0.4]],
         "restart 0: 'input_to_hidden'[1][0] must be a number, got None"),
    ])
    def test_wrong_weight_shape_is_named(self, restart, key, value, message):
        doc = copy.deepcopy(COMPONENT_V1)
        doc["restarts"][restart][key] = value
        with pytest.raises(ValueError) as excinfo:
            NeuralNetModel.from_dict(doc)
        assert str(excinfo.value) == message

    def test_weight_shape_validation(self):
        bad_shape = copy.deepcopy(COMPONENT_V1)
        bad_shape["restarts"][1]["hidden_bias"] = [0.0, 0.3, 0.1]
        non_finite = copy.deepcopy(COMPONENT_V1)
        non_finite["restarts"][0]["input_to_hidden"][1][0] = float("nan")
        for doc in (bad_shape, {**COMPONENT_V1, "p": 3}, non_finite):
            with pytest.raises(ValueError):
                NeuralNetModel.from_dict(doc)
        w_in, w_out, b2 = NeuralNetModel.from_dict(COMPONENT_V1).weights
        with pytest.raises(ValueError):
            NeuralNetModel(weights=(w_in[..., :2], w_out, b2), p=2, k=2,
                           scaler=(0.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            NeuralNetModel.from_dict({**COMPONENT_V1, "restarts": []})
        for p, k in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="p and k must be >= 1"):
                NeuralNetModel(weights=None, p=p, k=k, scaler=(0.0, 1.0), seed=0)

    @pytest.mark.parametrize("scaler", [(np.nan, 2.0), (np.inf, 2.0), (-np.inf, 2.0),
                                        (1.0, np.nan), (1.0, np.inf), (1.0, 0.0), (1.0, -2.0)])
    def test_the_scaler_needs_a_finite_center_and_a_finite_positive_scale(self, scaler):
        for weights in (None, NeuralNetModel.from_dict(COMPONENT_V1).weights):
            with pytest.raises(ValueError, match="scaler needs a finite center and a finite "
                                                 r"scale > 0, got \("):
                NeuralNetModel(weights=weights, p=2, k=2, scaler=scaler, seed=0)

    def test_constant_keys_are_derived(self):
        constant = fit_network(np.full(30, 4.2), 2, 1, TrainConfig(epochs=5, restarts=1))
        doc = constant.to_dict()
        assert (doc["constant"], doc["constant_value"], doc["restarts"]) == (
            True, constant.scaler[0], [])
        assert NeuralNetModel.from_dict(doc).to_dict() == doc
        for stored in ({"constant": True}, {"constant_value": 123.0}):
            with pytest.raises(ValueError, match="disagree"):
                NeuralNetModel.from_dict({**COMPONENT_V1, **stored})
        with pytest.raises(ValueError, match="disagree"):
            NeuralNetModel.from_dict({**doc, "constant_value": 0.0})
