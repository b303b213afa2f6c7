"""Single-hidden-layer autoregressive feedforward network.

Sigmoid hidden units, linear output, full-batch gradient descent on the L2
loss, trained on z-scored data. Several independently seeded restarts are
trained and their predictions averaged.

Restarts are stacked restart-major: the input layers with their biases form one
(R*k, p+1) matrix, rows r*k .. r*k+k-1 for restart r, and the output layers an
(R*k, R) block-diagonal one. The hidden layer of all restarts is then one GEMM,
(n, p+1) @ (p+1, R*k), and so is its weight gradient, (R*k, n) @ (n, p+1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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

    def replace(self, **kwargs) -> "TrainConfig":
        merged = {**self.__dict__, **kwargs}
        return TrainConfig(**merged)


@dataclass
class NetworkWeights:
    """Weights of one network: k x p input layer, k hidden biases and output weights."""

    input_to_hidden: np.ndarray
    hidden_bias: np.ndarray
    hidden_to_output: np.ndarray
    output_bias: float

    def __post_init__(self):
        self.input_to_hidden = np.asarray(self.input_to_hidden, dtype=float)
        self.hidden_bias = np.asarray(self.hidden_bias, dtype=float)
        self.hidden_to_output = np.asarray(self.hidden_to_output, dtype=float)
        k, p = self.input_to_hidden.shape
        if self.hidden_bias.shape != (k,) or self.hidden_to_output.shape != (k,):
            raise ValueError("inconsistent weight dimensions")
        if not (np.all(np.isfinite(self.input_to_hidden))
                and np.all(np.isfinite(self.hidden_bias))
                and np.all(np.isfinite(self.hidden_to_output))
                and np.isfinite(self.output_bias)):
            raise ValueError("non-finite weights")

    def to_dict(self) -> dict:
        return {
            "input_to_hidden": self.input_to_hidden.tolist(),
            "hidden_bias": self.hidden_bias.tolist(),
            "hidden_to_output": self.hidden_to_output.tolist(),
            "output_bias": float(self.output_bias),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkWeights":
        return cls(
            input_to_hidden=np.array(d["input_to_hidden"], dtype=float),
            hidden_bias=np.array(d["hidden_bias"], dtype=float),
            hidden_to_output=np.array(d["hidden_to_output"], dtype=float),
            output_bias=float(d["output_bias"]),
        )


@dataclass
class NeuralNetModel:
    """Averaged ensemble of restart networks plus the training-series scaler.

    A zero-variance training series yields a flagged constant predictor.
    """

    restarts: list[NetworkWeights]
    p: int
    k: int
    scaler: tuple[float, float]
    seed: int
    constant: bool = False
    constant_value: float = 0.0

    def __post_init__(self):
        if not self.constant and not self.restarts:
            raise ValueError("restarts must be non-empty")
        if self.scaler[1] <= 0:
            raise ValueError("scale must be positive")
        if not self.constant:
            w1, b1, w2, b2 = (np.array([getattr(w, f.name) for w in self.restarts])
                              for f in fields(NetworkWeights))
            self._stacked = (*_stack(w1, b1, w2), b2)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "scaler": [float(self.scaler[0]), float(self.scaler[1])],
            "seed": self.seed,
            "constant": self.constant,
            "constant_value": float(self.constant_value),
            "restarts": [w.to_dict() for w in self.restarts],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NeuralNetModel":
        return cls(
            restarts=[NetworkWeights.from_dict(w) for w in d["restarts"]],
            p=int(d["p"]),
            k=int(d["k"]),
            scaler=(float(d["scaler"][0]), float(d["scaler"][1])),
            seed=int(d["seed"]),
            constant=bool(d["constant"]),
            constant_value=float(d["constant_value"]),
        )


def hidden_neurons(p: int) -> int:
    """Stable hidden-layer size floor((p + 1) / 2) for a p-lag network."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return (p + 1) // 2


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf below x = -709, which gives exactly 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _stack(w1, b1, w2):
    """Restart-major (R*k, p+1) input layer and (R*k, R) block-diagonal output layer."""
    r, k, p = w1.shape
    w_in = np.concatenate((w1, b1[:, :, None]), axis=2).reshape(r * k, p + 1)
    return w_in, np.kron(np.eye(r), np.ones((k, 1))) * w2.reshape(r * k, 1)


def _forward(x1, w_in, w_out, b2):
    """Hidden activations (n, R*k) and outputs (n, R); ``x1`` ends in a ones column."""
    hidden = _sigmoid(x1 @ w_in.T)
    return hidden, hidden @ w_out + b2


def _init_weights(rng: np.random.Generator, p: int, k: int):
    w1 = rng.uniform(-0.5, 0.5, size=(k, p)) / np.sqrt(p)
    b1 = rng.uniform(-0.5, 0.5, size=k)
    w2 = rng.uniform(-0.5, 0.5, size=k)
    b2 = rng.uniform(-0.5, 0.5)
    return w1, b1, w2, b2


def _loss_and_grad(params, x, y):
    """L2 loss 0.5 * mean(err^2) and its gradient, batched over restarts.

    ``params`` is (W1, b1, w2, b2) with a leading restart axis; ``x`` is the
    (n, p) design matrix and ``y`` the (n,) target vector.
    """
    w1, b1, w2, b2 = params
    r, k, p = w1.shape
    n = x.shape[0]
    x1 = np.column_stack((x, np.ones(n)))
    w_in, w_out = _stack(w1, b1, w2)
    hidden, out = _forward(x1, w_in, w_out, b2)
    err = out - y[:, None]
    loss = 0.5 * np.einsum("nr,nr->r", err, err) / n

    d_out = err / n
    d_pre = 1.0 - hidden
    d_pre *= hidden
    d_pre *= d_out @ w_out.T
    g_in = (d_pre.T @ x1).reshape(r, k, p + 1)
    # Restart r's output weights take only the r-th diagonal block.
    g_w2 = (hidden.T @ d_out).reshape(r, k, r)[np.arange(r), :, np.arange(r)]
    return loss, (g_in[:, :, :p], g_in[:, :, p], g_w2, d_out.sum(axis=0))


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
        return NeuralNetModel(restarts=[], p=p, k=k, scaler=(center, 1.0),
                              seed=cfg.seed, constant=True, constant_value=center)

    z = (y - center) / scale
    x_mat, target = _supervised_pairs(z, p)

    inits = [_init_weights(np.random.default_rng([cfg.seed, r]), p, k)
             for r in range(cfg.restarts)]
    params = tuple(np.array([w[i] for w in inits]) for i in range(4))

    prev_loss = np.inf
    stalled = 0
    loss_curve: list[float] = []
    for _ in range(cfg.epochs):
        loss, grads = _loss_and_grad(params, x_mat, target)
        total = float(loss.mean())
        loss_curve.append(total)
        if prev_loss - total < cfg.tolerance:
            stalled += 1
            if stalled >= cfg.patience:
                break
        else:
            stalled = 0
        prev_loss = total
        for weights, grad in zip(params, grads):
            weights -= cfg.learning_rate * grad

    w1, b1, w2, b2 = params
    restarts = [
        NetworkWeights(input_to_hidden=w1[r], hidden_bias=b1[r],
                       hidden_to_output=w2[r], output_bias=float(b2[r]))
        for r in range(cfg.restarts)
    ]
    model = NeuralNetModel(restarts=restarts, p=p, k=k, scaler=(center, scale), seed=cfg.seed)
    model.training_loss = loss_curve  # mean full-batch loss per epoch, for diagnostics
    return model


def _predict(model: NeuralNetModel, windows: np.ndarray) -> np.ndarray:
    """Restart-averaged one-step predictions for an (m, p) array of lag windows."""
    center, scale = model.scaler
    x1 = np.column_stack(((windows - center) / scale, np.ones(len(windows))))
    _, out = _forward(x1, *model._stacked)
    return center + scale * out.mean(axis=1)


def forecast_one(model: NeuralNetModel, recent) -> float:
    """One-step forecast from the p most recent values (most recent last)."""
    recent = np.asarray(recent, dtype=float)
    if recent.shape != (model.p,):
        raise ValueError(f"expected {model.p} lagged values, got {recent.shape}")
    if model.constant:
        return model.constant_value
    return float(_predict(model, recent[None, :])[0])


def forecast_recursive(model: NeuralNetModel, series, h: int) -> np.ndarray:
    """h-step forecast by repeatedly appending the one-step forecast to the lag window."""
    if h < 1:
        raise ValueError("h must be >= 1")
    history = np.asarray(series, dtype=float)
    if history.size < model.p:
        raise ValueError("series shorter than the lag order")
    path = list(history[-model.p:])
    for _ in range(h):
        path.append(forecast_one(model, np.array(path[-model.p:])))
    return np.array(path[model.p:])


def fitted_values(model: NeuralNetModel, series) -> np.ndarray:
    """In-sample one-step predictions for t = p .. n-1 of the given series."""
    y = np.asarray(series, dtype=float)
    if y.size < model.p + 1:
        raise ValueError("series too short")
    if model.constant:
        return np.full(y.size - model.p, model.constant_value)
    windows, _ = _supervised_pairs(y, model.p)
    return _predict(model, windows)
