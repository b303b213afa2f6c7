"""The restart-major trainer and the MODWT pyramid against their direct forms.

The references below are the straightforward implementations: an einsum
training kernel with a sign-masked sigmoid, a per-restart forward pass, and a
MODWT that gathers N x width windows for each level-j equivalent filter. The
fast paths only reorder floating-point sums, so they must agree to rounding.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.neuralnet import (
    TrainConfig,
    _init_weights,
    _loss_and_grad,
    _sigmoid,
    _supervised_pairs,
    fit_network,
    fitted_values,
    forecast_one,
)
from epicast.wavelet import FilterPair, haar_filter, modwt_filters, modwt_forward


def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_loss_and_grad(params, x, y):
    w1, b1, w2, b2 = params
    n = x.shape[0]
    hidden = reference_sigmoid(np.einsum("rkp,np->rnk", w1, x) + b1[:, None, :])
    err = np.einsum("rnk,rk->rn", hidden, w2) + b2[:, None] - y[None, :]
    loss = 0.5 * np.mean(err**2, axis=1)
    d_out = err / n
    d_pre = d_out[:, :, None] * w2[:, None, :] * hidden * (1.0 - hidden)
    return loss, (np.einsum("rnk,np->rkp", d_pre, x), d_pre.sum(axis=1),
                  np.einsum("rn,rnk->rk", d_out, hidden), d_out.sum(axis=1))


def reference_fit(series, p, k, cfg):
    """Full-batch descent with the plateau/patience rule, on the reference kernel."""
    y = np.asarray(series, dtype=float)
    z = (y - np.mean(y)) / np.std(y)
    x, target = _supervised_pairs(z, p)
    inits = [_init_weights(np.random.default_rng([cfg.seed, r]), p, k)
             for r in range(cfg.restarts)]
    params = [np.stack([w[i] for w in inits]) for i in range(3)]
    params.append(np.array([w[3] for w in inits]))
    prev_loss, stalled, curve = np.inf, 0, []
    for _ in range(cfg.epochs):
        loss, grads = reference_loss_and_grad(params, x, target)
        total = float(loss.mean())
        curve.append(total)
        if prev_loss - total < cfg.tolerance:
            stalled += 1
            if stalled >= cfg.patience:
                break
        else:
            stalled = 0
        prev_loss = total
        for weights, grad in zip(params, grads):
            weights -= cfg.learning_rate * grad
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
    params = (rng.normal(scale=0.5, size=(r, k, p)), rng.normal(scale=0.5, size=(r, k)),
              rng.normal(scale=0.5, size=(r, k)), rng.normal(scale=0.5, size=r))
    loss, grads = _loss_and_grad(params, x, y)
    ref_loss, ref_grads = reference_loss_and_grad(params, x, y)
    assert_close(loss, ref_loss, 1e-12)
    for grad, ref in zip(grads, ref_grads):
        assert grad.shape == ref.shape
        assert_close(grad, ref, 1e-12)


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


@pytest.mark.parametrize("cfg,stops_early", [
    (TrainConfig(seed=3), False),
    (TrainConfig(learning_rate=0.05, tolerance=1e-5, seed=4), True),
], ids=["full-run", "early-stop"])
def test_fixed_seed_fit_matches_reference(cfg, stops_early):
    rng = np.random.default_rng(11)
    t = np.arange(200)
    series = 10 + 3 * np.sin(2 * np.pi * t / 26) + rng.normal(size=t.size)
    model = fit_network(series, 8, 4, cfg)
    (w1, b1, w2, b2), curve = reference_fit(series, 8, 4, cfg)
    assert len(model.training_loss) == len(curve)
    assert (len(curve) < cfg.epochs) == stops_early
    for r, weights in enumerate(model.restarts):
        for got, want in [(weights.input_to_hidden, w1[r]), (weights.hidden_bias, b1[r]),
                          (weights.hidden_to_output, w2[r]), (weights.output_bias, b2[r])]:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_forward_matches_per_restart_loop():
    rng = np.random.default_rng(2)
    series = np.cumsum(rng.normal(size=120))
    model = fit_network(series, 5, 3, TrainConfig(epochs=40, restarts=4, seed=1))
    center, scale = model.scaler

    def one_step(window):
        z = (window - center) / scale
        outs = [w.output_bias + w.hidden_to_output
                @ reference_sigmoid(w.hidden_bias + w.input_to_hidden @ z)
                for w in model.restarts]
        return center + scale * float(np.mean(outs))

    expected = [one_step(series[t - 5:t]) for t in range(5, series.size)]
    assert_close(fitted_values(model, series), expected, 1e-12)
    assert forecast_one(model, series[-5:]) == pytest.approx(one_step(series[-5:]), rel=1e-12)


def test_sigmoid_saturates_exactly():
    x = np.array([-1e300, -800.0, 800.0, 1e300])
    np.testing.assert_array_equal(_sigmoid(x), [0.0, 0.0, 1.0, 1.0])
