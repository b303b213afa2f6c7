"""Single-hidden-layer autoregressive feedforward network.

Sigmoid hidden units, linear output, full-batch gradient descent on the L2
loss, trained on z-scored data. Several independently seeded restarts are
trained and their predictions averaged.

Restarts are stacked on a leading axis: the input layers with their biases form
one (R, k, p+1) array, the output weights one (R, k) array. Activations are
feature-major, (R, k, m), so every per-restart operation runs along contiguous
rows. The hidden layer is one batched (R, k, p+1) @ (p+1, m) product, the output
layer one batched (R, 1, k) @ (R, k, m) product.

The inputs enter as the negated, transposed design matrix -[x, 1].T
(``_design``), so the hidden-layer product yields the negated pre-activations and
the sigmoid (``_sigmoid_neg``) is an exp, an add and a divide, with no negation
pass. ``predict`` builds its windows the same way; ``_forward`` is the one place
a network is evaluated.

An epoch (``_stacked_loss_and_grad``) writes three buffers made once per fit
(``_workspace``): the hidden activations s and the hidden-layer error term, both
(R, k, n), and the output error (R, n). The backward pass is reassociated:
s(1 - s) is scaled by the output error broadcast over k, multiplied by the
design matrix in one batched (R, k, n) @ (n, p+1) product, and only the result is
scaled by the output weights, so no (R, k, n) outer product is formed. The
learning rate is folded into the 1/n scaling of the output error, so the
gradient holds the step and the epoch ends with one ``params -= grad`` on a
flat vector that holds the weights. The model keeps (w_in, w_out, b2); model.json
splits the input layer into its weights and biases.

``fit_network`` trains one network in the calling process. ``fit_networks`` trains
a batch of (series, p, k, cfg) jobs, one network each: the J+1 components of an
EWNet fit, or every network of a lag search. When the process may use two CPUs or
more (``_cpus``: its affinity set, cut to its cgroup's CPU quota), a batch of two
jobs or more whose estimated work (``_work``) reaches ``MIN_WORK`` is shared with
one worker process (``_serve``), forked on the first batch that needs it, which
lives as long as the process. Jobs go out largest first; the worker holds at most
two, and the caller trains the next job itself and collects the worker's results
between its own jobs (``_fan_out``). A network is a function of its job alone, so
its bits do not depend on the process that trained it, and ``taskset -c 0`` trains
every batch in the calling process.

The worker is pinned to the last CPU of the caller's affinity set once, when it is
forked: left unpinned, it was woken on the caller's CPU and kept there. The caller
is not pinned: it stays runnable through a batch, and pinning it measured level. A
batch stays in the calling process when a batch in another thread holds the worker,
and where forking is unsafe or not allowed: in a daemonic process (a
``multiprocessing.Pool`` worker), in a process running other threads, or when the
fork fails. A forked child never uses its parent's worker.
"""

from __future__ import annotations

import numbers
import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core

MIN_WORK = 1_000_000  # estimated multiply-adds below which a batch trains in process


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 500
    restarts: int = 20
    seed: int = 0
    tolerance: float = 1e-8
    patience: int = 25

    def __post_init__(self):
        # A bool is an int to Python; as a setting it is a typo, not 1 or 1.0.
        for key in ("epochs", "restarts", "patience", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("learning_rate", "tolerance"):
            if isinstance(getattr(self, key), bool):
                raise ValueError(f"{key} must be a number, got {getattr(self, key)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1 or self.restarts < 1:
            raise ValueError("epochs and restarts must be >= 1")
        if np.isnan(self.tolerance):
            raise ValueError("tolerance must be a number, got nan")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass
class NeuralNetModel:
    """Averaged ensemble of restart networks plus the training-series scaler.

    ``weights`` is the trainer's stacked state (w_in, w_out, b2): the (R, k, p+1)
    input layer with its bias column, the (R, k) output weights and the (R,)
    output biases. A zero-variance training series yields a constant predictor:
    ``weights`` None, forecasting the scaler's center.
    """

    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    p: int
    k: int
    scaler: tuple[float, float]
    seed: int

    def __post_init__(self):
        if self.p < 1 or self.k < 1:
            raise ValueError(f"p and k must be >= 1, got p={self.p}, k={self.k}")
        if not (np.isfinite(self.scaler[0]) and 0 < self.scaler[1] < np.inf):
            raise ValueError(f"scaler needs a finite center and a finite scale > 0, "
                             f"got {self.scaler}")
        if self.weights is None:
            return
        w_in, w_out, b2 = self.weights
        r = b2.size
        if r < 1 or (w_in.shape, w_out.shape, b2.shape) != ((r, self.k, self.p + 1),
                                                             (r, self.k), (r,)):
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
                        for w1, b1, w2, b in zip(w_in[..., :-1], w_in[..., -1], w_out, b2)]
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
        p, k, restarts = core.whole(d["p"], "p"), core.whole(d["k"], "k"), d["restarts"]
        weights = None
        if restarts:
            w1, b1, w2, b2 = (_restart_weights(restarts, key, shape) for key, shape in (
                ("input_to_hidden", (k, p)), ("hidden_bias", (k,)),
                ("hidden_to_output", (k,)), ("output_bias", ())))
            weights = (_stack(w1, b1), w2, b2)
        model = cls(weights=weights, p=p, k=k,
                    scaler=(float(d["scaler"][0]), float(d["scaler"][1])),
                    seed=core.whole(d["seed"], "seed"))
        if (d["constant"], float(d["constant_value"])) != (model.constant, model.constant_value):
            raise ValueError("'constant' and 'constant_value' disagree with the restarts "
                             "and scaler")
        return model


def _restart_weights(restarts: list, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The ``key`` weights of every restart as one (R, *shape) array.

    A list of the wrong length, or anything but a JSON number where a number
    belongs, is reported by restart index and key, e.g. "restart 0: 'hidden_bias'
    has 3 values, expected 2" or "restart 1: 'output_bias' is not a number: 'x'".
    """
    def check(values, shape, where):
        if not shape:
            if isinstance(values, list):
                raise ValueError(f"{where} is a list, expected a number")
            if isinstance(values, bool) or not isinstance(values, (int, float)):
                raise ValueError(f"{where} is not a number: {values!r}")
        elif not isinstance(values, list):
            raise ValueError(f"{where} is not a list of {shape[0]} values")
        elif len(values) != shape[0]:
            raise ValueError(f"{where} has {len(values)} values, expected {shape[0]}")
        else:
            for j, value in enumerate(values):
                check(value, shape[1:], f"{where}[{j}]")

    for i, restart in enumerate(restarts):
        check(restart[key], shape, f"restart {i}: {key!r}")
    return np.array([restart[key] for restart in restarts], dtype=float)


def hidden_neurons(p: int) -> int:
    """Stable hidden-layer size floor((p + 1) / 2) for a p-lag network."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return (p + 1) // 2


def _sigmoid_neg(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic sigmoid of -t, 1 / (1 + exp(t)), written into ``out`` when given
    (``out`` may be ``t``)."""
    # exp(t) overflows to inf above t = 709, which gives exactly 0.
    with np.errstate(over="ignore"):
        out = np.exp(t, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _stack(w1, b1):
    """(R, k, p+1) input layer from (R, k, p) weights and (R, k) biases."""
    return np.concatenate((w1, b1[:, :, None]), axis=2)


def _views(flat: np.ndarray, r: int, k: int, p: int):
    """(w_in, w_out, b2) views of a flat vector that holds a stacked state."""
    size = r * k * (p + 1)
    return flat[:size].reshape(r, k, p + 1), flat[size:-r].reshape(r, k), flat[-r:]


def _design(windows: np.ndarray, center: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """The negated, transposed design matrix -[(windows - center) / scale, 1].T, (p+1, m)."""
    m, p = windows.shape
    xt = np.empty((p + 1, m))
    np.subtract(center, windows.T, out=xt[:p])
    xt[:p] /= scale
    xt[p] = -1.0
    return xt


def _forward(xt, state, hidden=None, out=None):
    """Hidden activations (R, k, m) and outputs (R, m) of ``state`` on the ``_design``
    matrix ``xt``, written into ``hidden`` and ``out`` when given."""
    w_in, w_out, b2 = state
    hidden = np.matmul(w_in, xt, out=hidden)
    _sigmoid_neg(hidden, out=hidden)
    out = np.matmul(w_out[:, None, :], hidden, out=None if out is None else out[:, None])[:, 0]
    out += b2[:, None]
    return hidden, out


def _init_weights(rng: np.random.Generator, p: int, k: int):
    w1 = rng.uniform(-0.5, 0.5, size=(k, p)) / np.sqrt(p)
    b1 = rng.uniform(-0.5, 0.5, size=k)
    w2 = rng.uniform(-0.5, 0.5, size=k)
    b2 = rng.uniform(-0.5, 0.5)
    return w1, b1, w2, b2


def _workspace(n: int, r: int, k: int) -> tuple[np.ndarray, ...]:
    """Buffers of one fit: hidden and d_pre (R, k, n), err (R, n)."""
    return np.empty((r, k, n)), np.empty((r, k, n)), np.empty((r, n))


def _stacked_loss_and_grad(state, xt, y, buf, grads, step=1.0):
    """Per-restart L2 loss 0.5 * mean(err^2), with ``step`` times its gradient written
    into ``grads``.

    ``state`` and ``grads`` are (w_in, w_out, b2), ``xt`` the ``_design`` matrix of the
    n training windows and ``buf`` a ``_workspace``.
    """
    _, w_out, _ = state
    hidden, d_pre, err = buf
    g_in, g_out, g_b2 = grads
    n = y.size
    _forward(xt, state, hidden, err)
    err -= y
    loss = np.einsum("rn,rn->r", err, err)
    loss *= 0.5 / n

    d_out = np.divide(err, n / step, out=err)
    np.sum(d_out, axis=1, out=g_b2)
    np.matmul(hidden, d_out[:, :, None], out=g_out[:, :, None])
    # The input-layer gradient is w_out * (s(1 - s) d_out @ [x, 1]), formed from the
    # two negated factors (s - 1) s d_out and the design matrix.
    np.subtract(hidden, 1.0, out=d_pre)
    d_pre *= hidden
    d_pre *= d_out[:, None]
    np.matmul(d_pre, xt.T, out=g_in)
    g_in *= w_out[:, :, None]
    return loss


def _loss_and_grad(params, x, y):
    """Loss and (W1, b1, w2, b2) gradients for restart-axis weights ``params``.

    ``x`` is the (n, p) design matrix and ``y`` the (n,) target vector.
    """
    w1, b1, w2, b2 = params
    r, k, _ = w1.shape
    state = (_stack(w1, b1), w2, b2)
    grads = [np.empty_like(w) for w in state]
    loss = _stacked_loss_and_grad(state, _design(x), y, _workspace(len(y), r, k), grads)
    return loss, (grads[0][..., :-1], grads[0][..., -1], *grads[1:])


def _supervised_pairs(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    n = z.size
    x = np.lib.stride_tricks.sliding_window_view(z, p)[: n - p]
    return x, z[p:]


def _train(z, p, k, cfg: TrainConfig):
    """Train the restarts of ``cfg`` on the z-scored series; (w_in, w_out, b2) and the
    mean loss of each epoch.

    Each restart draws its initial weights from an RNG stream derived from
    (seed, restart index). The stopping rule looks after every epoch, and the
    stopping epoch takes no step.
    """
    r = cfg.restarts
    x_mat, target = _supervised_pairs(z, p)
    xt = _design(x_mat)
    inits = [_init_weights(np.random.default_rng([cfg.seed, i]), p, k) for i in range(r)]
    w1, b1, w2, b2 = (np.array([w[i] for w in inits]) for i in range(4))
    params = np.concatenate((_stack(w1, b1), w2, b2), axis=None)
    grad = np.empty_like(params)
    state, grads = _views(params, r, k, p), _views(grad, r, k, p)
    buf = _workspace(target.size, r, k)
    prev_loss, stalled, curve = np.inf, 0, []
    # A diverging fit ends in non-finite weights, which NeuralNetModel rejects; its
    # overflows on the way are not reported.
    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            total = float(_stacked_loss_and_grad(state, xt, target, buf, grads,
                                                 cfg.learning_rate).sum()) / r
            curve.append(total)
            if prev_loss - total < cfg.tolerance:
                stalled += 1
                if stalled >= cfg.patience:
                    break
            else:
                stalled = 0
            prev_loss = total
            params -= grad
    return state, curve


def fit_network(series, p: int, k: int, cfg: TrainConfig) -> NeuralNetModel:
    """Train ``cfg.restarts`` networks on lagged pairs from the z-scored series, in this
    process."""
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

    weights, loss_curve = _train((y - center) / scale, p, k, cfg)
    model = NeuralNetModel(weights=weights, p=p, k=k, scaler=(center, scale), seed=cfg.seed)
    model.training_loss = loss_curve  # mean full-batch loss per epoch, for diagnostics
    return model


def _attempt(job):
    """The network of one (series, p, k, cfg) job, or the ValueError it raised."""
    try:
        return fit_network(*job)
    except ValueError as exc:
        return exc


def _work(job) -> int:
    """A job's estimated training cost: multiply-adds of its forward and backward
    passes, if it runs every epoch."""
    series, p, k, cfg = job
    return cfg.epochs * cfg.restarts * max(np.size(series) - p, 0) * k * (p + 2)


def _serve(conn, parent_end, cpu):
    """Worker process: on ``cpu``, train the jobs the caller sends until its pipe closes.

    Each (index, job) pair is answered with (index, network or ValueError); any other
    exception is sent in place of the answer.
    """
    parent_end.close()  # a copy inherited from the caller would keep the pipe open
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # the system refuses: run where the scheduler puts it
        pass
    while True:
        try:
            index, job = conn.recv()
        except EOFError:
            return
        try:
            conn.send((index, _attempt(job)))
        except Exception as exc:
            conn.send(exc)


_worker = None  # (process, connection) of the worker, forked on first use
_worker_busy = threading.Lock()  # held by the one batch at a time that uses the worker


def _forget_worker() -> None:
    """In a forked child: drop the parent's worker, which only the parent may use."""
    global _worker, _worker_busy
    if _worker is not None:
        _worker[1].close()
    _worker = None
    _worker_busy = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _cpu_quota(root: Path = Path("/sys/fs/cgroup")) -> float:
    """CPUs' worth of time per period that the cgroup allows (v2 ``cpu.max`` or v1
    CFS files, as ``docker run --cpus`` sets them); inf when there is no quota."""
    for files in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:
            quota, period = " ".join((root / f).read_text() for f in files).split()
            return np.inf if quota in ("max", "-1") else int(quota) / int(period)
        except (OSError, ValueError):
            continue
    return np.inf


def _cpus() -> int:
    """The number of CPUs this process may keep busy: its affinity set, cut to its
    cgroup's CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux: train in this process
        return 1
    return int(max(1, min(cpus, _cpu_quota())))


def _connection():
    """The connection to the worker process, forking it if it is not running; None
    when it cannot be forked safely, so that the batch trains in this process."""
    global _worker
    import multiprocessing  # here, so that a process that never fans out never loads it

    if _worker is None:
        # A daemonic process may not have children. A fork copies only the calling
        # thread, with any lock another thread holds inside NumPy or OpenBLAS.
        if multiprocessing.current_process().daemon or threading.active_count() > 1:
            return None
        # Fork, not spawn: a spawned worker imports the caller's __main__ again, which
        # reruns the top level of an unguarded script such as the README's library
        # example. A forked worker only runs NumPy on its own arrays and pipe I/O, and
        # OpenBLAS shuts its thread pool down around fork.
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        worker = context.Process(target=_serve, daemon=True,
                                 args=(theirs, ours, max(os.sched_getaffinity(0))))
        try:
            worker.start()
        except OSError:  # out of processes or memory: train in this process
            ours.close()
            return None
        finally:
            theirs.close()
        _worker = (worker, ours)
    return _worker[1]


def _close_worker() -> None:
    global _worker
    if _worker is not None:
        worker, conn = _worker
        conn.close()
        worker.terminate()
        worker.join()
        _worker = None


def _fan_out(jobs, work, conn) -> list:
    """Train ``jobs`` in this process and in the worker at ``conn``; their results in
    job order.

    Jobs go out largest ``work`` first. The worker holds at most two; this thread
    trains the next job itself and, between its jobs, collects what the worker
    finished.
    """
    results = [None] * len(jobs)
    todo = sorted(range(len(jobs)), key=lambda i: (work[i], -i))  # popped largest first
    held = set()  # indices of the jobs the worker holds
    try:
        while todo or held:
            # Collect what the worker finished; wait for it once nothing is left here.
            while held and (not todo or conn.poll()):
                message = conn.recv()
                if isinstance(message, Exception):
                    raise message
                index, results[index] = message
                held.remove(index)
            while todo and len(held) < 2:
                index = todo.pop()
                conn.send((index, jobs[index]))
                held.add(index)
            if todo:
                index = todo.pop()
                results[index] = _attempt(jobs[index])
    except BaseException:
        _close_worker()  # the worker may hold jobs; never reuse it
        raise
    return results


def fit_networks(jobs) -> list:
    """Train the network of each (series, p, k, cfg) job; each job's ``NeuralNetModel``,
    or the ``ValueError`` it raised, in job order.

    A batch of two jobs or more whose estimated work reaches ``MIN_WORK`` is shared
    with the worker process when this process may use two CPUs (see the module
    docstring); a network's bits do not depend on where it trained.
    """
    jobs = list(jobs)
    work = [_work(job) for job in jobs]
    # A batch in another thread that holds the worker leaves this one in this thread.
    if (len(jobs) > 1 and sum(work) >= MIN_WORK and _cpus() > 1
            and _worker_busy.acquire(blocking=False)):
        try:
            conn = _connection()
            if conn is not None:
                return _fan_out(jobs, work, conn)
        finally:
            _worker_busy.release()
    return [_attempt(job) for job in jobs]


def predict(model: NeuralNetModel, windows) -> np.ndarray:
    """Restart-averaged one-step predictions for (m, p) lag windows, most recent last."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != model.p:
        raise ValueError(f"expected (m, {model.p}) lag windows, got shape {windows.shape}")
    if model.constant:
        return np.full(len(windows), model.constant_value)
    center, scale = model.scaler
    _, out = _forward(_design(windows, center, scale), model.weights)
    return center + scale * out.mean(axis=0)


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
