"""Single-hidden-layer autoregressive feedforward network.

Sigmoid hidden units, linear output, full-batch gradient descent on the L2
loss, trained on z-scored data. Several independently seeded restarts are
trained and their predictions averaged.

Restarts are stacked restart-major: the input layers with their biases form one
(R*k, p+1) matrix, rows r*k .. r*k+k-1 for restart r, and the output layers an
(R*k, R) block-diagonal one. The hidden layer of all restarts is then one GEMM,
(n, p+1) @ (p+1, R*k), and so is its weight gradient, (R*k, n) @ (n, p+1).

``fit_network`` keeps the weights in this layout, with the (R,) output biases,
for all epochs. The design matrix with its ones column, a 0/1 block mask that
keeps the off-diagonal output weights exactly 0, and the activation, error and
gradient buffers (``_workspace``) are made once per fit; each epoch
``_stacked_loss_and_grad`` overwrites the buffers in place through ``_forward``,
which ``predict`` also calls. The fitted model keeps this state as its weights; it
is unstacked per restart only for model.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 500
    restarts: int = 20
    seed: int = 0
    tolerance: float = 1e-8
    patience: int = 25

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.restarts < 1:
            raise ValueError("epochs and restarts must be >= 1")


@dataclass
class NeuralNetModel:
    """Averaged ensemble of restart networks plus the training-series scaler.

    ``weights`` is the trainer's stacked state (w_in, w_out, b2): the (R*k, p+1)
    input layer with its bias column, the (R*k, R) block-diagonal output layer
    and the (R,) output biases. A zero-variance training series yields a
    constant predictor: ``weights`` None, forecasting the scaler's center.
    """

    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    p: int
    k: int
    scaler: tuple[float, float]
    seed: int

    def __post_init__(self):
        if self.scaler[1] <= 0:
            raise ValueError("scale must be positive")
        if self.weights is None:
            return
        w_in, w_out, b2 = self.weights
        r, rk = b2.size, b2.size * self.k
        if r < 1 or (w_in.shape, w_out.shape, b2.shape) != ((rk, self.p + 1), (rk, r), (r,)):
            raise ValueError("inconsistent weight dimensions")
        if not all(np.all(np.isfinite(w)) for w in self.weights):
            raise ValueError("non-finite weights")

    @property
    def constant(self) -> bool:
        return self.weights is None

    @property
    def constant_value(self) -> float:
        return self.scaler[0] if self.constant else 0.0

    def to_dict(self) -> dict:
        restarts = []
        if self.weights is not None:
            w_in, w_out, b2 = self.weights
            restarts = [{"input_to_hidden": w1.tolist(), "hidden_bias": b1.tolist(),
                         "hidden_to_output": w2.tolist(), "output_bias": float(b)}
                        for w1, b1, w2, b in zip(*_unstack(w_in, w_out, self.k), b2)]
        return {
            "p": self.p,
            "k": self.k,
            "scaler": [float(self.scaler[0]), float(self.scaler[1])],
            "seed": self.seed,
            "constant": self.constant,
            "constant_value": float(self.constant_value),
            "restarts": restarts,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NeuralNetModel":
        p, k, r = int(d["p"]), int(d["k"]), len(d["restarts"])
        weights = None
        if r:
            w1, b1, w2, b2 = (np.array([w[key] for w in d["restarts"]], dtype=float)
                              for key in ("input_to_hidden", "hidden_bias",
                                          "hidden_to_output", "output_bias"))
            if (w1.shape, b1.shape, w2.shape, b2.shape) != ((r, k, p), (r, k), (r, k), (r,)):
                raise ValueError("inconsistent restart weight shapes")
            weights = (*_stack(w1, b1, w2), b2)
        model = cls(weights=weights, p=p, k=k,
                    scaler=(float(d["scaler"][0]), float(d["scaler"][1])), seed=int(d["seed"]))
        if (d["constant"], float(d["constant_value"])) != (model.constant, model.constant_value):
            raise ValueError("'constant' and 'constant_value' disagree with the restarts "
                             "and scaler")
        return model


def hidden_neurons(p: int) -> int:
    """Stable hidden-layer size floor((p + 1) / 2) for a p-lag network."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return (p + 1) // 2


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), written into ``out`` when given (``out`` may be ``x``)."""
    # exp(-x) overflows to inf below x = -709, which gives exactly 0.
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _block_mask(r: int, k: int) -> np.ndarray:
    """(R*k, R) 0/1 mask of the block-diagonal output layer."""
    return np.kron(np.eye(r), np.ones((k, 1)))


def _stack(w1, b1, w2):
    """Restart-major (R*k, p+1) input layer and (R*k, R) block-diagonal output layer."""
    r, k, p = w1.shape
    w_in = np.concatenate((w1, b1[:, :, None]), axis=2).reshape(r * k, p + 1)
    return w_in, _block_mask(r, k) * w2.reshape(r * k, 1)


def _unstack(w_in, w_out, k):
    """Inverse of ``_stack``: (R, k, p) input weights, (R, k) biases, (R, k) output weights."""
    r = w_out.shape[1]
    p = w_in.shape[1] - 1
    diagonal = w_out.reshape(r, k, r)[np.arange(r), :, np.arange(r)]
    return w_in[:, :p].reshape(r, k, p), w_in[:, p].reshape(r, k), diagonal


def _forward(x1, state, hidden=None, out=None):
    """Hidden activations (n, R*k) and outputs (n, R) of the stacked ``state`` on ``x1``
    (ending in a ones column), written into ``hidden`` and ``out`` when given."""
    w_in, w_out, b2 = state
    hidden = _sigmoid(np.matmul(x1, w_in.T, out=hidden), out=hidden)
    out = np.matmul(hidden, w_out, out=out)
    out += b2
    return hidden, out


def _init_weights(rng: np.random.Generator, p: int, k: int):
    w1 = rng.uniform(-0.5, 0.5, size=(k, p)) / np.sqrt(p)
    b1 = rng.uniform(-0.5, 0.5, size=k)
    w2 = rng.uniform(-0.5, 0.5, size=k)
    b2 = rng.uniform(-0.5, 0.5)
    return w1, b1, w2, b2


def _workspace(n: int, r: int, k: int, p: int) -> tuple[np.ndarray, ...]:
    """Buffers of one fit: hidden, d_pre, back-propagated term, err, g_in, g_out, g_b2."""
    return (np.empty((n, r * k)), np.empty((n, r * k)), np.empty((n, r * k)),
            np.empty((n, r)), np.empty((r * k, p + 1)), np.empty((r * k, r)), np.empty(r))


def _stacked_loss_and_grad(state, x1, y, mask, buf):
    """Per-restart L2 loss 0.5 * mean(err^2) and its gradient, on the stacked state.

    ``state`` is (w_in, w_out, b2) as built by ``_stack``, ``x1`` the (n, p+1)
    design matrix ending in a ones column, ``mask`` the ``_block_mask`` and
    ``buf`` a ``_workspace``. Returns the loss and the (g_in, g_out, g_b2)
    gradients, which are views of ``buf`` and overwritten by the next call.
    """
    _, w_out, _ = state
    hidden, d_pre, back, err, g_in, g_out, g_b2 = buf
    n = x1.shape[0]
    _forward(x1, state, hidden, err)
    err -= y[:, None]
    loss = 0.5 * np.einsum("nr,nr->r", err, err) / n

    d_out = np.divide(err, n, out=err)
    np.subtract(1.0, hidden, out=d_pre)
    d_pre *= hidden
    d_pre *= np.matmul(d_out, w_out.T, out=back)
    np.matmul(d_pre.T, x1, out=g_in)
    # Restart r's output weights take only the r-th diagonal block.
    np.matmul(hidden.T, d_out, out=g_out)
    g_out *= mask
    np.sum(d_out, axis=0, out=g_b2)
    return loss, (g_in, g_out, g_b2)


def _loss_and_grad(params, x, y):
    """Loss and (W1, b1, w2, b2) gradients for restart-axis weights ``params``.

    ``x`` is the (n, p) design matrix and ``y`` the (n,) target vector.
    """
    w1, b1, w2, b2 = params
    r, k, p = w1.shape
    n = x.shape[0]
    x1 = np.column_stack((x, np.ones(n)))
    loss, (g_in, g_out, g_b2) = _stacked_loss_and_grad(
        (*_stack(w1, b1, w2), b2), x1, y, _block_mask(r, k), _workspace(n, r, k, p))
    return loss, (*_unstack(g_in, g_out, k), g_b2)


def _supervised_pairs(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    n = z.size
    x = np.lib.stride_tricks.sliding_window_view(z, p)[: n - p]
    return x, z[p:]


def fit_network(series, p: int, k: int, cfg: TrainConfig) -> NeuralNetModel:
    """Train ``cfg.restarts`` networks on lagged pairs from the z-scored series.

    Each restart draws its initial weights from an RNG stream derived from
    (seed, restart-index), so results are independent of scheduling.
    """
    y = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite values in training series")
    if p < 1 or k < 1:
        raise ValueError("p and k must be >= 1")
    if y.size < p + 2:
        raise ValueError(f"series of length {y.size} too short for p={p}")

    center = float(np.mean(y))
    scale = float(np.std(y))
    if scale <= 1e-12 * max(1.0, abs(center)):
        return NeuralNetModel(weights=None, p=p, k=k, scaler=(center, 1.0), seed=cfg.seed)

    z = (y - center) / scale
    x_mat, target = _supervised_pairs(z, p)

    inits = [_init_weights(np.random.default_rng([cfg.seed, r]), p, k)
             for r in range(cfg.restarts)]
    w1, b1, w2, b2 = (np.array([w[i] for w in inits]) for i in range(4))
    state = (*_stack(w1, b1, w2), b2)
    x1 = np.column_stack((x_mat, np.ones(len(target))))
    mask = _block_mask(cfg.restarts, k)
    buf = _workspace(len(target), cfg.restarts, k, p)

    prev_loss = np.inf
    stalled = 0
    loss_curve: list[float] = []
    for _ in range(cfg.epochs):
        loss, grads = _stacked_loss_and_grad(state, x1, target, mask, buf)
        total = float(loss.mean())
        loss_curve.append(total)
        if prev_loss - total < cfg.tolerance:
            stalled += 1
            if stalled >= cfg.patience:
                break
        else:
            stalled = 0
        prev_loss = total
        for weights, grad in zip(state, grads):
            grad *= cfg.learning_rate
            weights -= grad

    model = NeuralNetModel(weights=state, p=p, k=k, scaler=(center, scale), seed=cfg.seed)
    model.training_loss = loss_curve  # mean full-batch loss per epoch, for diagnostics
    return model


def predict(model: NeuralNetModel, windows) -> np.ndarray:
    """Restart-averaged one-step predictions for (m, p) lag windows, most recent last."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != model.p:
        raise ValueError(f"expected (m, {model.p}) lag windows, got shape {windows.shape}")
    if model.constant:
        return np.full(len(windows), model.constant_value)
    center, scale = model.scaler
    x1 = np.column_stack(((windows - center) / scale, np.ones(len(windows))))
    _, out = _forward(x1, model.weights)
    return center + scale * out.mean(axis=1)


def forecast_recursive(model: NeuralNetModel, series, h: int) -> np.ndarray:
    """h-step forecast, each step predicted from the trailing p values of the path."""
    if h < 1:
        raise ValueError("h must be >= 1")
    history = np.asarray(series, dtype=float)
    p = model.p
    if history.size < p:
        raise ValueError("series shorter than the lag order")
    path = np.concatenate([history[-p:], np.empty(h)])
    for t in range(p, p + h):
        path[t] = predict(model, path[None, t - p:t])[0]
    return path[p:]


def fitted_values(model: NeuralNetModel, series) -> np.ndarray:
    """In-sample one-step predictions for t = p .. n-1 of the given series."""
    y = np.asarray(series, dtype=float)
    if y.size < model.p + 1:
        raise ValueError("series too short")
    return predict(model, _supervised_pairs(y, model.p)[0])
