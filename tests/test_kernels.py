"""The stacked trainer and the MODWT pyramid against their direct forms.

The references below are the straightforward implementations: an einsum
training kernel with a sign-masked sigmoid, a per-restart forward pass, and a
MODWT that gathers N x width windows for each level-j equivalent filter. The
fast paths reorder floating-point sums and products (the trainer scales the
input-layer gradient by the output weights after its GEMM, not before), so they
must agree to rounding: kernels and forward passes to 1e-12, fits on fixed
seeds to 1e-9 in the weights.

A second training reference does the trainer's arithmetic in plain per-call
NumPy: it re-stacks the (W1, b1, w2, b2) weights for every epoch, negates the
transposed design matrix, folds the learning rate into the 1/n scaling of the
output error and allocates its temporaries afresh. The trainer keeps the
stacked layout and reuses its buffers but performs the same floating-point
operations on the same operands, so it must agree with that reference bit for
bit. A third, the earlier (n, R*k) layout with a (R*k, R) block-diagonal output
layer, sums in another order; fits on fixed seeds must match it to 1e-9 in the
weights and 1e-12 in the loss curve.

Every reference kernel returns its gradient times a ``step`` (1 by default),
which the reference fit subtracts as it is.

Three more fast paths do the same operations on the same operands as their
references and must agree bit for bit: a pyramid stage that adds two slices
per tap against the ``np.roll`` form; the conformal calibration's lag
windows, taken from a MODWT of the p + 2r points each step depends on, against
a full MODWT of the growing history at every step; and the stacked predictor,
against each network evaluated alone and the per-component calibration loop.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from epicast import ewnet
from epicast.neuralnet import (
    NeuralNetModel,
    TrainConfig,
    _design,
    _epoch,
    _forward,
    _init_weights,
    _layers,
    _predictor,
    _stack,
    _supervised_pairs,
    fit_network,
    fitted_values,
    forecast_recursive,
    hidden_neurons,
    predict,
)
from epicast.wavelet import (
    FilterPair,
    _pyramid_stage,
    haar_filter,
    modwt_filters,
    modwt_forward,
)


def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_loss_and_grad(params, x, y, step=1.0):
    w1, b1, w2, b2 = params
    n = x.shape[0]
    hidden = reference_sigmoid(np.einsum("rkp,np->rnk", w1, x) + b1[:, None, :])
    err = np.einsum("rnk,rk->rn", hidden, w2) + b2[:, None] - y[None, :]
    loss = 0.5 * np.mean(err**2, axis=1)
    d_out = err / n
    d_pre = d_out[:, :, None] * w2[:, None, :] * hidden * (1.0 - hidden)
    grads = (np.einsum("rnk,np->rkp", d_pre, x), d_pre.sum(axis=1),
             np.einsum("rn,rnk->rk", d_out, hidden), d_out.sum(axis=1))
    return loss, tuple(step * g for g in grads)


def restart_major_stack(w1, b1, w2):
    """(R*k, p+1) input layer with its bias column and (R*k, R) block-diagonal output layer."""
    r, k, p = w1.shape
    w_in = np.concatenate((w1, b1[:, :, None]), axis=2).reshape(r * k, p + 1)
    return w_in, np.kron(np.eye(r), np.ones((k, 1))) * w2.reshape(r * k, 1)


def restart_major_loss_and_grad(params, x, y, step=1.0):
    """The earlier (n, R*k) layout with a block-diagonal output layer, on each call."""
    w1, b1, w2, b2 = params
    r, k, p = w1.shape
    n = x.shape[0]
    x1 = np.column_stack((x, np.ones(n)))
    w_in, w_out = restart_major_stack(w1, b1, w2)
    with np.errstate(over="ignore"):
        hidden = 1.0 / (1.0 + np.exp(-(x1 @ w_in.T)))
    err = hidden @ w_out + b2 - y[:, None]
    loss = 0.5 * np.einsum("nr,nr->r", err, err) / n
    d_out = err / n
    d_pre = 1.0 - hidden
    d_pre *= hidden
    d_pre *= d_out @ w_out.T
    g_in = (d_pre.T @ x1).reshape(r, k, p + 1)
    g_w2 = (hidden.T @ d_out).reshape(r, k, r)[np.arange(r), :, np.arange(r)]
    grads = (g_in[:, :, :p], g_in[:, :, p], g_w2, d_out.sum(axis=0))
    return loss, tuple(step * g for g in grads)


def negated_design_loss_and_grad(params, x, y, step=1.0):
    """The trainer's arithmetic, with one (k, p+1) @ (p+1, n) and one (k, n) @ (n, p+1)
    product per restart; re-stacks the weights and allocates every temporary on each
    call."""
    w1, b1, w2, b2 = params
    r, k, p = w1.shape
    n = x.shape[0]
    xt = -np.vstack((x.T, np.ones(n)))
    with np.errstate(over="ignore"):
        hidden = 1.0 / (1.0 + np.exp(np.concatenate((w1, b1[:, :, None]), axis=2) @ xt))
    err = (w2[:, None, :] @ hidden)[:, 0] + b2[:, None] - y
    loss = np.einsum("rn,rn->r", err, err) * (0.5 / n)
    d_out = err / (n / step)
    d_pre = (hidden - 1.0) * hidden * d_out[:, None, :]
    g_in = d_pre @ xt.T * w2[:, :, None]
    g_w2 = (hidden @ d_out[:, :, None])[:, :, 0]
    return loss, (g_in[:, :, :p], g_in[:, :, p], g_w2, d_out.sum(axis=1))


def reference_init_weights(rng, p, k):
    """A restart's initial (W1, b1, w2, b2) as four draws, one per array."""
    w1 = rng.uniform(-0.5, 0.5, size=(k, p)) / np.sqrt(p)
    b1 = rng.uniform(-0.5, 0.5, size=k)
    w2 = rng.uniform(-0.5, 0.5, size=k)
    b2 = rng.uniform(-0.5, 0.5)
    return w1, b1, w2, b2


def reference_fit(series, p, k, cfg, kernel=reference_loss_and_grad):
    """Full-batch descent with the plateau/patience rule, on a reference kernel."""
    y = np.asarray(series, dtype=float)
    z = (y - np.mean(y)) / np.std(y)
    x, target = _supervised_pairs(z, p)
    inits = [reference_init_weights(np.random.default_rng([cfg.seed, r]), p, k)
             for r in range(cfg.restarts)]
    params = [np.stack([w[i] for w in inits]) for i in range(3)]
    params.append(np.array([w[3] for w in inits]))
    prev_loss, stalled, curve = np.inf, 0, []
    for _ in range(cfg.epochs):
        loss, steps = kernel(params, x, target, cfg.learning_rate)
        total = float(loss.mean())
        curve.append(total)
        if prev_loss - total < cfg.tolerance:
            stalled += 1
            if stalled >= cfg.patience:
                break
        else:
            stalled = 0
        prev_loss = total
        for weights, step in zip(params, steps):
            weights -= step
    return params, curve


def reference_circular_filter(y, taps):
    """z_t = sum_m taps[m] * y[(t - m) mod N]."""
    idx = np.mod(np.arange(y.size)[:, None] - np.arange(taps.size)[None, :], y.size)
    return y[idx] @ taps


def reference_circular_adjoint(y, taps):
    """z_t = sum_m taps[m] * y[(t + m) mod N]."""
    idx = np.mod(np.arange(y.size)[:, None] + np.arange(taps.size)[None, :], y.size)
    return y[idx] @ taps


def reference_modwt(y, levels, base):
    details, coeffs = [], []
    for j in range(1, levels + 1):
        taps = modwt_filters(base, j).wavelet
        coeffs.append(reference_circular_filter(y, taps))
        details.append(reference_circular_adjoint(coeffs[-1], taps))
    taps = modwt_filters(base, levels).scaling
    scaling = reference_circular_filter(y, taps)
    return details, reference_circular_adjoint(scaling, taps), coeffs, scaling


def reference_pyramid_stage(v, taps, shift):
    """The pyramid stage as a sum of rolled copies of ``v``."""
    out = taps[0] * v
    for l in range(1, taps.size):
        out += taps[l] * np.roll(v, shift * l, axis=-1)
    return out


def reference_calibration(model, val):
    """Lag windows and absolute one-step errors from a full MODWT of the history at each step."""
    windows = np.empty((model.decomposition.levels + 1, val.size, model.chosen_p))
    residuals = np.empty(val.size)
    history = model.train_series.copy()
    for i, actual in enumerate(val):
        decomp = modwt_forward(history, model.decomposition.levels, haar_filter())
        pred = 0.0
        for c, (net, comp) in enumerate(zip(model.component_models, decomp.components())):
            windows[c, i] = comp[-model.chosen_p:]
            pred += forecast_recursive(net, comp, 1)[0]
        residuals[i] = abs(pred - actual)
        history = np.append(history, actual)
    return windows, residuals


def random_ewnet(rng, train, levels, p, constants, r=3):
    """An EWNet of random r-restart networks, each with its own scaler; the components
    numbered in ``constants`` are constant models."""
    k = hidden_neurons(p)
    nets = []
    for c in range(levels + 1):
        if c in constants:
            nets.append(NeuralNetModel(weights=None, p=p, k=k, scaler=(rng.normal(), 1.0), seed=0))
            continue
        w1, b1, w2 = (rng.normal(size=shape) for shape in ((r, k, p), (r, k), (r, k)))
        scaler = (float(train.mean()) + rng.normal(), 1.0 + train.std() * rng.uniform())
        nets.append(NeuralNetModel(weights=(_stack(w1, b1), w2, rng.normal(size=r)),
                                   p=p, k=k, scaler=scaler, seed=0))
    return ewnet.EwnetModel(decomposition=modwt_forward(train, levels, haar_filter()),
                            component_models=nets, chosen_p=p, train_series=train)


def one_network_predict(net, windows):
    """One network's prediction unstacked: its (p+1, m) design matrix and (R, ...) layers."""
    center, scale = net.scaler
    with np.errstate(over="ignore"):
        _, out = _forward(_design(windows, center, scale), _layers(net.weights))
    return center + scale * out[..., 0, :].mean(axis=-2)


def reference_validation_abs_residuals(model, val):
    """The per-component loop: each network's own ``predict`` of its lag windows, added in
    component order."""
    pred = np.zeros(val.size)
    for net, lags in zip(model.component_models, ewnet._lag_windows(model, val)):
        pred += predict(net, lags)
    return np.abs(pred - val)


def d4_filter():
    s3 = math.sqrt(3.0)
    g = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
    h = np.array([(-1) ** m * g[3 - m] for m in range(4)])
    return FilterPair(scaling=g, wavelet=h, name="d4")


def assert_close(actual, expected, tol):
    """|actual - expected| <= tol * max(1, |expected|), element by element."""
    expected = np.asarray(expected)
    np.testing.assert_array_less(np.abs(actual - expected),
                                 tol * np.maximum(1.0, np.abs(expected)) + 1e-300)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 10), st.integers(1, 20), st.integers(3, 300),
       st.integers(0, 2**32 - 1))
def test_kernel_matches_reference(r, k, p, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    w1, b1, w2, b2 = params = (
        rng.normal(scale=0.5, size=(r, k, p)), rng.normal(scale=0.5, size=(r, k)),
        rng.normal(scale=0.5, size=(r, k)), rng.normal(scale=0.5, size=r))
    state = (_stack(w1, b1), w2, b2)
    grads = [np.empty_like(w) for w in state]
    with np.errstate(over="ignore"):
        epoch = _epoch(state, grads, _design(x), y)
        loss = epoch()
        first = [g.copy() for g in grads]
        again = epoch()  # the bound buffers and views carry nothing from one epoch to the next
    ref_loss, (g_w1, g_b1, g_w2, g_b2) = reference_loss_and_grad(params, x, y)
    assert_close(loss, ref_loss, 1e-12)
    for grad, ref in zip(grads, (_stack(g_w1, g_b1), g_w2, g_b2)):
        assert grad.shape == ref.shape
        assert_close(grad, ref, 1e-12)
    assert again.tobytes() == loss.tobytes()
    assert all(g.tobytes() == f.tobytes() for g, f in zip(grads, first))


@pytest.mark.parametrize("seed,p,k", [(0, 1, 1), (3, 4, 2), (7, 8, 4), (11, 12, 6),
                                      (2**32 - 1, 20, 10), (5, 3, 7)])
def test_init_weights_equal_four_draws(seed, p, k):
    # A stack of two seeds: each restart of each seed draws its own four arrays.
    seeds = [seed, seed + 1]
    stacked = _init_weights(seeds, 3, p, k)
    for (c, s), restart in itertools.product(enumerate(seeds), range(3)):
        got = [w[c, restart] for w in stacked]
        want = reference_init_weights(np.random.default_rng([s, restart]), p, k)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@settings(max_examples=40, deadline=None)
@given(r=st.integers(1, 20), k=st.integers(1, 10), p=st.integers(1, 20),
       extra=st.integers(0, 280), lr=st.floats(0.005, 0.5), epochs=st.integers(1, 150),
       tolerance=st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-4, 1e-3]),
       patience=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@example(r=20, k=4, p=8, extra=190, lr=0.2, epochs=150, tolerance=1e-3, patience=5, seed=4)
def test_fit_bitwise_equals_restart_major_loop(r, k, p, extra, lr, epochs, tolerance,
                                               patience, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(size=p + 2 + extra)) + rng.normal(size=p + 2 + extra)
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, restarts=r, seed=seed,
                      tolerance=tolerance, patience=patience)
    (w1, b1, w2, b2), curve = reference_fit(series, p, k, cfg, negated_design_loss_and_grad)
    event("early stop" if len(curve) < epochs else "all epochs")
    try:
        model = fit_network(series, p, k, cfg)
    except ValueError:  # diverged: the weights are rejected as non-finite
        assert not all(np.all(np.isfinite(w)) for w in (w1, b1, w2, b2))
        return
    assert model.training_loss == curve
    w_in, w_out, out_bias = model.weights
    for got, want in zip([w_in[..., :-1], w_in[..., -1], w_out, out_bias], [w1, b1, w2, b2]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("base", [haar_filter(), d4_filter()], ids=["haar", "d4"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pyramid_matches_gather(base, data):
    n = data.draw(st.integers(2, 600))
    levels = data.draw(st.integers(1, int(math.log2(n)) + 2))
    y = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # levels beyond log2 N wrap around
        decomp = modwt_forward(y, levels, base)
    details, smooth, coeffs, scaling = reference_modwt(y, levels, base)
    for got, want in zip([*decomp.details, decomp.smooth, *decomp.wavelet_coeffs,
                          decomp.scaling_coeffs], [*details, smooth, *coeffs, scaling]):
        assert_close(got, want, 1e-10)


@pytest.mark.parametrize("base", [haar_filter(), d4_filter()], ids=["haar", "d4"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pyramid_stage_bitwise_equals_roll(base, data):
    n = data.draw(st.integers(1, 70), label="n")
    shift = data.draw(st.one_of(st.integers(-3 * n - 5, 3 * n + 5),
                                st.sampled_from([0, n, -n, 2 * n, -3 * n])), label="shift")
    shape = data.draw(st.sampled_from([(n,), (1, n), (4, n)]), label="shape")
    taps = data.draw(st.sampled_from([base.scaling, base.wavelet])) / math.sqrt(2.0)
    v = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=shape)
    assert _pyramid_stage(v, taps, shift).tobytes() == \
        reference_pyramid_stage(v, taps, shift).tobytes()


@settings(max_examples=60, deadline=None)
@given(levels=st.integers(0, 6), n=st.integers(8, 160), p=st.integers(1, 20),
       steps=st.integers(1, 12), constant=st.none() | st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
@example(levels=0, n=8, p=1, steps=4, constant=None, seed=1)  # ARNN: r = 0, two-point window
@example(levels=0, n=9, p=3, steps=2, constant=0, seed=2)
@example(levels=6, n=8, p=8, steps=12, constant=6, seed=3)  # n < p + 2r = 134
@example(levels=3, n=40, p=20, steps=5, constant=1, seed=4)
def test_calibration_windows_bitwise_equal_full_transform(levels, n, p, steps, constant, seed):
    n = max(n, p)
    rng = np.random.default_rng(seed)
    y = 5.0 + np.cumsum(rng.normal(size=n + steps))
    event("window wraps the history" if n < p + 2 * (2**levels - 1) else "window inside")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # levels beyond log2 n wrap around
        model = random_ewnet(rng, y[:n], levels, p, {constant})
        windows, residuals = reference_calibration(model, y[n:])
    assert ewnet._lag_windows(model, y[n:]).tobytes() == windows.tobytes()
    assert_close(ewnet.validation_abs_residuals(model, y[n:]), residuals, 1e-12)


@settings(max_examples=60, deadline=None)
@given(levels=st.integers(0, 5), r=st.integers(1, 20), p=st.integers(1, 20),
       m=st.integers(1, 40), constants=st.sets(st.integers(0, 5)),
       seed=st.integers(0, 2**32 - 1))
@example(levels=4, r=20, p=8, m=1, constants=set(), seed=7)  # one window, as a forecast step
@example(levels=2, r=3, p=2, m=5, constants={0, 1, 2}, seed=8)  # no network to stack
def test_one_stacked_prediction_gives_each_networks_own_bits(levels, r, p, m, constants, seed):
    rng = np.random.default_rng(seed)
    n = 2**levels + p + 10
    y = 5.0 + np.cumsum(rng.normal(size=n + m))
    model = random_ewnet(rng, y[:n], levels, p, constants, r)
    nets = model.component_models
    windows = y.mean() + 2 * y.std() * rng.normal(size=(len(nets), m, p))
    event(f"{sum(net.constant for net in nets)} of {len(nets)} networks constant")
    out = np.full((len(nets), m), np.nan)
    with np.errstate(over="ignore"):
        _predictor(nets)(windows[:, None], out)
    for net, got, lags in zip(nets, out, windows):
        if net.constant:
            assert np.isnan(got).all()  # a constant network's row is left as it was
        else:
            assert (got.tobytes() == predict(net, lags).tobytes()
                    == one_network_predict(net, lags).tobytes())
    assert (ewnet.validation_abs_residuals(model, y[n:]).tobytes()
            == reference_validation_abs_residuals(model, y[n:]).tobytes())


FIXED_SEED_CONFIGS = pytest.mark.parametrize("cfg,stops_early", [
    (TrainConfig(seed=3), False),
    (TrainConfig(learning_rate=0.05, tolerance=1e-5, seed=4), True),
], ids=["full-run", "early-stop"])


def seasonal_series():
    rng = np.random.default_rng(11)
    t = np.arange(200)
    return 10 + 3 * np.sin(2 * np.pi * t / 26) + rng.normal(size=t.size)


@FIXED_SEED_CONFIGS
def test_fixed_seed_fit_matches_reference(cfg, stops_early):
    series = seasonal_series()
    model = fit_network(series, 8, 4, cfg)
    (w1, b1, w2, b2), curve = reference_fit(series, 8, 4, cfg)
    assert len(model.training_loss) == len(curve)
    assert (len(curve) < cfg.epochs) == stops_early
    w_in, w_out, out_bias = model.weights
    for got, want in zip([w_in[..., :-1], w_in[..., -1], w_out, out_bias], [w1, b1, w2, b2]):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@FIXED_SEED_CONFIGS
def test_fixed_seed_fit_matches_block_diagonal_layout(cfg, stops_early):
    series = seasonal_series()
    model = fit_network(series, 8, 4, cfg)
    (w1, b1, w2, b2), curve = reference_fit(series, 8, 4, cfg, restart_major_loss_and_grad)
    assert len(model.training_loss) == len(curve)
    assert (len(curve) < cfg.epochs) == stops_early
    assert_close(model.training_loss, curve, 1e-12)
    w_in, w_out, out_bias = model.weights
    for got, want in zip([w_in[..., :-1], w_in[..., -1], w_out, out_bias], [w1, b1, w2, b2]):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_forward_matches_per_restart_loop():
    rng = np.random.default_rng(2)
    series = np.cumsum(rng.normal(size=120))
    model = fit_network(series, 5, 3, TrainConfig(epochs=40, restarts=4, seed=1))
    center, scale = model.scaler
    w_in, w_out, out_bias = model.weights
    restarts = list(zip(w_in[..., :-1], w_in[..., -1], w_out, out_bias))

    def one_step(window):
        z = (window - center) / scale
        outs = [b2 + w2 @ reference_sigmoid(b1 + w1 @ z) for w1, b1, w2, b2 in restarts]
        return center + scale * float(np.mean(outs))

    expected = [one_step(series[t - 5:t]) for t in range(5, series.size)]
    assert_close(fitted_values(model, series), expected, 1e-12)
    assert predict(model, [series[-5:]])[0] == pytest.approx(one_step(series[-5:]), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 20), k=st.integers(1, 10), p=st.integers(1, 20), m=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(r=20, k=4, p=8, m=1, seed=5)  # one window, as each recursive-forecast step
def test_predict_matches_per_restart_loop(r, k, p, m, seed):
    rng = np.random.default_rng(seed)
    w1, b1, w2 = (rng.normal(size=shape) for shape in ((r, k, p), (r, k), (r, k)))
    b2 = rng.normal(size=r)
    center, scale = rng.normal(scale=10.0), rng.uniform(0.1, 10.0)
    model = NeuralNetModel(weights=(_stack(w1, b1), w2, b2), p=p, k=k,
                           scaler=(center, scale), seed=0)
    windows = center + scale * rng.normal(size=(m, p))

    def one_step(window):
        z = (window - center) / scale
        outs = [b2[i] + w2[i] @ reference_sigmoid(b1[i] + w1[i] @ z) for i in range(r)]
        return center + scale * float(np.mean(outs))

    assert_close(predict(model, windows), [one_step(w) for w in windows], 1e-12)


def test_sigmoid_saturates_exactly():
    x = np.array([-1e300, -800.0, 800.0, 1e300])
    identity = _layers((np.array([[[1.0, 0.0]]]), np.ones((1, 1)), np.zeros(1)))  # s(x)
    with np.errstate(over="ignore"):
        hidden, _ = _forward(_design(x[:, None]), identity)
    np.testing.assert_array_equal(hidden[0, 0], [0.0, 0.0, 1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(r=st.integers(1, 20), k=st.integers(1, 10), p=st.integers(1, 20), m=st.integers(1, 40),
       h=st.integers(1, 1000), input_scale=st.sampled_from([1e-3, 1.0, 1e2, 1e4, 1e6]),
       seed=st.integers(0, 2**32 - 1))
@example(r=20, k=4, p=8, m=1, h=1000, input_scale=1e6, seed=6)
def test_outputs_lie_within_the_output_layer_bounds(r, k, p, m, h, input_scale, seed):
    """Every hidden unit lies in [0, 1], so restart r outputs b2 + w2 . s within
    [b2 + sum(min(w2, 0)), b2 + sum(max(w2, 0))], also when the inputs saturate it.
    The slack is 1e-9 of the largest magnitude the output sums reach."""
    rng = np.random.default_rng(seed)
    w1, b1, w2 = (rng.normal(size=shape) for shape in ((r, k, p), (r, k), (r, k)))
    b2 = rng.normal(size=r)
    center, scale = rng.normal(scale=10.0), rng.uniform(0.1, 10.0)
    model = NeuralNetModel(weights=(_stack(w1, b1), w2, b2), p=p, k=k,
                           scaler=(center, scale), seed=0)
    lo = center + scale * np.mean(b2 + np.minimum(w2, 0.0).sum(axis=1))
    hi = center + scale * np.mean(b2 + np.maximum(w2, 0.0).sum(axis=1))
    slack = 1e-9 * (abs(center) + scale * np.mean(np.abs(b2) + np.abs(w2).sum(axis=1)))
    windows = center + scale * input_scale * rng.normal(size=(m, p))
    for values in (predict(model, windows), forecast_recursive(model, windows[-1], h)):
        assert np.all(values >= lo - slack) and np.all(values <= hi + slack)
