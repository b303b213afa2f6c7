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
the sigmoid is an exp, an add and a divide, with no negation pass. ``predict``
builds its windows the same way; ``_forward`` is the one place a network is
evaluated, over any leading axes (``forecast_paths`` stacks networks), on the
arrays ``_layers`` gives it. Its exp overflows to inf in a saturated unit, which
gives exactly 0, so each caller holds ``np.errstate`` once around its passes.

Networks train in stacks: C networks of one series length n, lag order p, hidden
size k and ``TrainConfig`` but the seed, such as the J+1 components of one EWNet
candidate, train as one program on a leading network axis, (C, R, k, p+1) input
layers on (C, 1, p+1, n) design matrices. No product mixes networks, and each core
product keeps the shape, and so the bits, it has for one network: a network trained
in a stack equals the network ``fit_network`` trains alone, the stack of one. Each
member keeps its own seeds, scaler and stopping rule; once it stops, its gradient rows
are zeroed, so its weights freeze exactly and its loss curve ends on its own epoch.

A fit binds its training epoch once (``_epoch``): the three buffers, the hidden
activations s and the hidden-layer error term, both (C, R, k, n), and the output error
(C, R, n); every view of them and of the weights and gradient; and the scalars 0.5/n
and n/step. An epoch is then one ``_forward`` call and eleven NumPy calls on those
arrays. It makes no view and enters no ``np.errstate``, which ``_train`` holds
around the whole fit; its stopping rule runs on Python floats. The backward pass is
reassociated: s(1 - s) is scaled by the output error broadcast over k, multiplied by
the design matrix in one batched (k, n) @ (n, p+1) product per restart, and only the
result is scaled by the output weights, so no (C, R, k, n) outer product is formed.
The learning rate is folded into the 1/n scaling of the output error, so the
gradient holds the step and the epoch ends with one ``params -= grad`` on a (C, d)
array whose rows hold the networks' weights. The model keeps (w_in, w_out, b2);
model.json splits the input layer into its weights and biases.

``fit_network`` trains one network in the calling process. ``fit_networks`` trains
a batch of (series, p, k, cfg) jobs, one network each: the J+1 components of an
EWNet fit, or every network of a lag search. A batch whose estimated work
(``_work``) is below ``MIN_WORK`` trains network by network through
``fit_network``. A larger one trains in stacks (``_stacks``) of at most
``MAX_STACK`` hidden activations, C·R·k·(n - p); a network whose hidden buffer alone
exceeds the cap trains alone (README, "Performance", has the measurements). When the
process may use two CPUs or more (``_cpus``: its affinity set, cut to its cgroup's
CPU quota) and runs no other thread, a batch of two stacks or more is shared with one
worker process (``_serve``), forked on the first batch that needs it. The worker lives
as long as the process that forked it, which alone uses it: a forked child drops its
parent's worker (``_connection``). With one thread, one batch at a time uses it, and a
fork copies no lock that another thread holds inside NumPy or OpenBLAS.

A shared batch is split once (``_fan_out``). Stacks are taken largest first, by their
multiply-adds plus ``RESTART_EPOCH`` for each restart's epoch, and each goes to the side
with less of that work so far, ties to the caller, so the caller's share holds the
largest stack. The worker gets its share in one message and answers with one list,
which the caller takes after training its own share.

Every stack the worker does not return trains in the calling process. That is every
stack of a batch without the worker: under ``taskset -c 0``, while other threads run,
and where forking is not allowed (in a daemonic process such as a
``multiprocessing.Pool`` worker) or fails. It is also the worker's share of a batch
whose worker dies: the broken pipe closes it, and the next batch forks a new one. An
exception the worker sends, any but a job's ValueError, closes it and is raised, as does
one raised in the caller. A network is a function of its job alone, so its bits depend
neither on its stack nor on the process that trained it.

The worker is pinned to the last CPU of the caller's affinity set once, when it is
forked; the caller is not pinned.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import core

MIN_WORK = 1_000_000  # estimated multiply-adds below which a batch trains network by network
MAX_STACK = 2**16  # float64s of hidden activations, C·R·k·(n - p), that one stack may hold
RESTART_EPOCH = 5_000  # multiply-adds' worth of the fixed cost of one restart's epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 500
    restarts: int = 20
    seed: int = 0
    tolerance: float = 1e-8
    patience: int = 25

    def __post_init__(self):
        for f in fields(self):  # every setting is a number, whole where its default is an int
            object.__setattr__(self, f.name, core.number(getattr(self, f.name), f.name,
                                                         whole=isinstance(f.default, int)))
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
        p, k = (core.number(d[key], repr(key), whole=True) for key in ("p", "k"))
        weights = None
        if d["restarts"]:
            w1, b1, w2, b2 = (_restart_weights(d["restarts"], key, shape) for key, shape in (
                ("input_to_hidden", (k, p)), ("hidden_bias", (k,)),
                ("hidden_to_output", (k,)), ("output_bias", ())))
            weights = (_stack(w1, b1), w2, b2)
        center, scale = core.numbers(d["scaler"], "'scaler'").tolist()
        model = cls(weights=weights, p=p, k=k, scaler=(center, scale),
                    seed=core.number(d["seed"], "'seed'", whole=True))
        if ((d["constant"], core.number(d["constant_value"], "'constant_value'"))
                != (model.constant, model.constant_value)):
            raise ValueError("'constant' and 'constant_value' disagree with the restarts "
                             "and scaler")
        return model


def _restart_weights(restarts: list, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The ``key`` weights of every restart as one (R, *shape) array.

    A list of the wrong length, or anything but a JSON number where a number
    belongs, is reported by restart index and key, e.g. "restart 0: 'hidden_bias'
    has 3 values, expected 2" or "restart 1: 'output_bias' must be a number, got 'x'".
    """
    def check(values, shape, where):
        if not shape:
            core.number(values, where)
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


def _stack(w1, b1):
    """(..., R, k, p+1) input layer from (..., R, k, p) weights and (..., R, k) biases."""
    return np.concatenate((w1, b1[..., None]), axis=-1)


def _views(params: np.ndarray, r: int, k: int, p: int):
    """(w_in, w_out, b2) views, with the leading axes of ``params``, of the flat vectors in its
    last axis that each hold a stacked state."""
    size = r * k * (p + 1)
    lead = params.shape[:-1]
    return (params[..., :size].reshape(*lead, r, k, p + 1),
            params[..., size:-r].reshape(*lead, r, k), params[..., -r:])


def _design(windows: np.ndarray, center=0.0, scale=1.0) -> np.ndarray:
    """The negated, transposed design matrix -[(windows - center) / scale, 1].T, (..., p+1, m)."""
    *lead, m, p = windows.shape
    xt = np.empty((*lead, p + 1, m))
    np.subtract(np.expand_dims(center, (-2, -1)), np.swapaxes(windows, -1, -2), out=xt[..., :p, :])
    xt[..., :p, :] /= np.expand_dims(scale, (-2, -1))
    xt[..., p, :] = -1.0
    return xt


def _layers(state):
    """The arrays ``_forward`` takes for the networks ``state`` = (w_in, w_out, b2) stacks:
    w_in, the output weights as (..., R, 1, k) rows and the output biases as (..., R, 1, 1)."""
    w_in, w_out, b2 = state
    return w_in, w_out[..., None, :], b2[..., None, None]


def _forward(xt, layers, hidden=None, out=None):
    """Hidden activations (..., R, k, m) and outputs (..., R, 1, m), written into ``hidden`` and
    ``out`` when given, of the networks whose ``_layers`` are ``layers``, from the ``_design``
    matrix ``xt`` (..., 1, p+1, m).

    The sigmoid of the negated pre-activations t is 1 / (1 + exp(t)). exp(t) overflows to inf
    above t = 709, which gives exactly 0: callers hold ``np.errstate(over="ignore")``.
    """
    w_in, w_row, b2_col = layers
    hidden = np.matmul(w_in, xt, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    out = np.matmul(w_row, hidden, out=out)
    out += b2_col
    return hidden, out


def _init_weights(seeds, r: int, p: int, k: int):
    """Initial (W1, b1, w2, b2) of ``r`` restarts for each of C seeds, (C, r, ...) views of one
    (C·r, k(p + 2) + 1) array. Restart i of seed s fills its row with one draw of uniforms on
    [-0.5, 0.5) from ``default_rng([s, i])``, the same numbers as a draw per array, split in
    order; W1 is scaled by 1/sqrt(p)."""
    u = np.empty((len(seeds) * r, k * (p + 2) + 1))
    for row, (seed, i) in zip(u, itertools.product(seeds, range(r))):
        row[:] = np.random.default_rng([seed, i]).uniform(-0.5, 0.5, row.size)
    u = u.reshape(len(seeds), r, -1)
    return (u[..., :k * p].reshape(len(seeds), r, k, p) / np.sqrt(p), u[..., k * p:-k - 1],
            u[..., -k - 1:-1], u[..., -1])


def _epoch(state, grads, xt, y, step=1.0):
    """One fit's training epoch: a function of no arguments that returns the per-restart
    L2 loss 0.5 * mean(err^2) and writes ``step`` times its gradient into ``grads``.

    ``state`` and ``grads`` are (w_in, w_out, b2) with any leading axes, as (C, R, k, p+1),
    (C, R, k) and (C, R) for C networks; ``xt`` is the ``_design`` matrix of the n training
    windows and ``y`` their targets, each broadcast over the restarts, as (C, 1, p+1, n) and
    (C, 1, n). The buffers, views and scalars of an epoch are made here, once per fit; the
    caller holds ``np.errstate(over="ignore")``.
    """
    w_in, w_out, _ = state
    g_in, g_out, g_b2 = grads
    *lead, k, _ = w_in.shape
    n = y.shape[-1]
    layers = _layers(state)
    hidden, d_pre, err = np.empty((*lead, k, n)), np.empty((*lead, k, n)), np.empty((*lead, n))
    err_rows, err_cols, g_out_cols = err[..., None, :], err[..., None], g_out[..., None]
    x1, w_out_cols = np.swapaxes(xt, -1, -2), w_out[..., None]
    half_by_n, n_by_step = 0.5 / n, n / step

    def epoch():
        _forward(xt, layers, hidden, err_rows)
        np.subtract(err, y, out=err)
        loss = np.einsum("...n,...n->...", err, err)
        loss *= half_by_n
        # d_out, the output error err / n times the step, overwrites err.
        np.divide(err, n_by_step, out=err)
        np.add.reduce(err, axis=-1, out=g_b2)
        np.matmul(hidden, err_cols, out=g_out_cols)
        # The input-layer gradient is w_out * (s(1 - s) d_out @ [x, 1]), formed from the
        # two negated factors (s - 1) s d_out and the design matrix.
        np.subtract(hidden, 1.0, out=d_pre)
        np.multiply(d_pre, hidden, out=d_pre)
        np.multiply(d_pre, err_rows, out=d_pre)
        np.matmul(d_pre, x1, out=g_in)
        np.multiply(g_in, w_out_cols, out=g_in)
        return loss

    return epoch


def _loss_and_grad(params, x, y):
    """Loss and (W1, b1, w2, b2) gradients for restart-axis weights ``params``.

    ``x`` is the (n, p) design matrix and ``y`` the (n,) target vector.
    """
    w1, b1, w2, b2 = params
    state = (_stack(w1, b1), w2, b2)
    grads = [np.empty_like(w) for w in state]
    with np.errstate(over="ignore"):
        loss = _epoch(state, grads, _design(x), y)()
    return loss, (grads[0][..., :-1], grads[0][..., -1], *grads[1:])


def _supervised_pairs(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (..., n - p, p) lag windows of the series in the last axis of ``z`` and their
    (..., n - p) targets."""
    n = z.shape[-1]
    x = np.lib.stride_tricks.sliding_window_view(z, p, axis=-1)[..., : n - p, :]
    return x, z[..., p:]


def _train(z, p, k, cfg: TrainConfig, seeds):
    """Train the restarts of ``cfg`` for each of C seeds on the matching row of the (C, n)
    z-scored series ``z``, as one program; the (C, ...) stacked (w_in, w_out, b2) and each
    network's mean loss per epoch.

    Restart i of seed s draws its initial weights from an RNG stream derived from (s, i).
    Each network keeps its own stopping rule, which looks after every epoch: the epoch on
    which it stops and every later one leave its weights as they are (its gradient rows are
    zeroed), and the program ends when every network has stopped.
    """
    c, r = len(seeds), cfg.restarts
    x_mat, target = _supervised_pairs(z, p)
    w1, b1, w2, b2 = _init_weights(seeds, r, p, k)
    params = np.concatenate([w.reshape(c, -1) for w in (_stack(w1, b1), w2, b2)], axis=1)
    grad = np.empty_like(params)
    state = _views(params, r, k, p)
    epoch = _epoch(state, _views(grad, r, k, p), _design(x_mat)[:, None],
                   target[:, None], cfg.learning_rate)
    tolerance, patience = cfg.tolerance, cfg.patience
    prev_loss, stalled, curves = [np.inf] * c, [0] * c, [[] for _ in range(c)]
    live = range(c)
    # A diverging fit ends in non-finite weights, which NeuralNetModel rejects; its
    # overflows on the way are not reported.
    with np.errstate(all="ignore"):
        for _ in range(cfg.epochs):
            totals = np.add.reduce(epoch(), axis=1).tolist()
            for i in live:
                total = totals[i] / r
                curves[i].append(total)
                if prev_loss[i] - total < tolerance:
                    stalled[i] += 1
                else:
                    stalled[i] = 0
                prev_loss[i] = total
            if patience in stalled:  # a network stopped, on this epoch or an earlier one
                live = [i for i in live if stalled[i] < patience]
                if not live:
                    break
                grad[[i for i in range(c) if stalled[i] >= patience]] = 0.0
            params -= grad
    return state, curves


def _scaled(series, p: int, k: int, cfg: TrainConfig):
    """A job's z-scored series and its (center, scale), or the constant network of a series
    without variance; a ValueError for a job that cannot train."""
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
    return (y - center) / scale, (center, scale)


def _fit_stack(jobs) -> list:
    """The ``NeuralNetModel`` of each (series, p, k, cfg) job of a stack, or the ValueError it
    raised alone. The jobs share the series length, p, k and every setting of cfg but the
    seed, and the networks among them train as one program (``_train``)."""
    results = [core.attempt(_scaled, *job) for job in jobs]
    live = [i for i, result in enumerate(results) if isinstance(result, tuple)]
    if live:
        _, p, k, cfg = jobs[live[0]]
        seeds = [jobs[i][3].seed for i in live]
        (w_in, w_out, b2), curves = _train(np.array([results[i][0] for i in live]), p, k, cfg,
                                           seeds)
        for c, (i, seed, curve) in enumerate(zip(live, seeds, curves)):
            model = results[i] = core.attempt(NeuralNetModel, (w_in[c], w_out[c], b2[c]), p, k,
                                              results[i][1], seed)
            if isinstance(model, NeuralNetModel):
                model.training_loss = curve  # mean full-batch loss per epoch, for diagnostics
    return results


def fit_network(series, p: int, k: int, cfg: TrainConfig) -> NeuralNetModel:
    """Train ``cfg.restarts`` networks on lagged pairs from the z-scored series, in this
    process."""
    return core.unwrap(_fit_stack([(series, p, k, cfg)])[0])


def _work(job, fixed=0) -> int:
    """A job's estimated training cost: multiply-adds of its forward and backward
    passes, if it runs every epoch, plus ``fixed`` for each restart's epoch."""
    series, p, k, cfg = job
    return cfg.epochs * cfg.restarts * (max(np.size(series) - p, 0) * k * (p + 2) + fixed)


def _stacks(jobs) -> list:
    """The indices of ``jobs`` in stacks: jobs of one series length, p, k and ``TrainConfig``
    but the seed, in job order, as many to a stack as ``MAX_STACK`` allows (at least one)."""
    groups = {}
    for i, (series, p, k, cfg) in enumerate(jobs):
        groups.setdefault((np.size(series), p, k, replace(cfg, seed=0)), []).append(i)
    stacks = []
    for (n, p, k, cfg), members in groups.items():
        size = max(1, MAX_STACK // max(cfg.restarts * k * (n - p), 1))
        stacks += [members[i:i + size] for i in range(0, len(members), size)]
    return stacks


def _serve(conn, parent_end, cpu):
    """Worker process: on ``cpu``, train the shares the caller sends until its pipe closes.

    Each list of stacks of jobs is answered with the list of their ``_fit_stack`` results;
    any other exception is sent in place of the answer.
    """
    parent_end.close()  # a copy inherited from the caller would keep the pipe open
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # the system refuses: run where the scheduler puts it
        pass
    while True:
        try:
            stacks = conn.recv()
        except EOFError:
            return
        try:
            conn.send([_fit_stack(stack) for stack in stacks])
        except Exception as exc:
            conn.send(exc)


_worker = None  # (process, connection, pid of the process that forked it), forked on first use


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
    """The connection to the worker process, forking it if this process has none; None
    when it cannot be forked, so that the batch trains in this process."""
    global _worker
    import multiprocessing  # here, so that a process that never fans out never loads it

    if _worker is not None and _worker[2] != os.getpid():
        _worker = None  # a forked child's copy of its parent's worker
    if _worker is None:
        if multiprocessing.current_process().daemon:  # a daemonic process may not have children
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
        _worker = (worker, ours, os.getpid())
    return _worker[1]


def _close_worker() -> None:
    global _worker
    if _worker is not None:
        worker, conn, _ = _worker
        conn.close()
        worker.terminate()
        worker.join()
        _worker = None


def _fan_out(stacks, work, conn) -> list:
    """Train ``stacks`` of jobs in this process and in the worker at ``conn``; each stack's
    ``_fit_stack`` results, in stack order, or None for a stack the worker did not return.

    The stacks are split once: largest ``work`` first, each to the side with less work so
    far, ties to this process. The worker's share goes out in one message; this process
    trains its own share, then takes the worker's results in one reply. A broken pipe (the
    worker died) closes the worker and leaves its share to the caller; an exception the
    worker sends, or one raised here, closes it and is raised.
    """
    shares, load = ([], []), [0, 0]  # this process's and the worker's
    for i in sorted(range(len(stacks)), key=lambda i: -work[i]):  # ties in stack order
        side = load[1] < load[0]
        shares[side].append(i)
        load[side] += work[i]
    mine, theirs = shares
    results = [None] * len(stacks)
    try:
        try:
            conn.send([stacks[i] for i in theirs])
        except OSError:  # a broken pipe
            _close_worker()
            return results
        for i in mine:
            results[i] = _fit_stack(stacks[i])
        try:
            reply = conn.recv()
        except (EOFError, OSError):  # a broken pipe
            _close_worker()
            return results
        if isinstance(reply, Exception):
            raise reply
    except BaseException:
        _close_worker()  # the worker may hold its share; never reuse it
        raise
    for i, result in zip(theirs, reply):
        results[i] = result
    return results


def fit_networks(jobs) -> list:
    """Train the network of each (series, p, k, cfg) job; each job's ``NeuralNetModel``,
    or the ``ValueError`` it raised, in job order.

    A batch whose estimated work is below ``MIN_WORK`` trains network by network. A
    larger one trains in stacks (``_stacks``), each one program. Two stacks or more are
    split with the worker process (``_fan_out``) when this process may use two CPUs and
    runs no other thread (see the module docstring). Every stack the worker does not
    return trains in this process: all of them when there is no worker, its share when
    it dies.
    """
    jobs = list(jobs)
    if sum(map(_work, jobs)) < MIN_WORK:
        return [core.attempt(fit_network, *job) for job in jobs]
    stacks = _stacks(jobs)
    units = [[jobs[i] for i in stack] for stack in stacks]
    done = [None] * len(units)
    if len(units) > 1 and _cpus() > 1 and threading.active_count() == 1:
        conn = _connection()
        if conn is not None:
            done = _fan_out(units, [sum(_work(job, RESTART_EPOCH) for job in unit)
                                    for unit in units], conn)
    results = [None] * len(jobs)
    for stack, unit, stack_results in zip(stacks, units, done):
        for i, result in zip(stack, _fit_stack(unit) if stack_results is None else stack_results):
            results[i] = result
    return results


def predict(model: NeuralNetModel, windows) -> np.ndarray:
    """Restart-averaged one-step predictions for (m, p) lag windows, most recent last."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] != model.p:
        raise ValueError(f"expected (m, {model.p}) lag windows, got shape {windows.shape}")
    if model.constant:
        return np.full(len(windows), model.constant_value)
    center, scale = model.scaler
    with np.errstate(over="ignore"):  # a saturated unit (see _forward)
        _, out = _forward(_design(windows, center, scale), _layers(model.weights))
    return center + scale * out[..., 0, :].mean(axis=-2)


def forecast_paths(models, histories, h: int) -> np.ndarray:
    """(C, h) recursive forecasts of C networks of one lag order, each step of path c predicted
    from its trailing p values, from ``histories[c]`` on. The non-constant networks, which must
    share (R, k), are stacked, so that a step is one forward pass of them all."""
    if h < 1:
        raise ValueError("h must be >= 1")
    p = models[0].p
    starts = [np.asarray(series, dtype=float)[-p:] for series in histories]
    if any(start.size < p for start in starts):
        raise ValueError("series shorter than the lag order")
    paths = np.empty((len(models), p + h))
    paths[:, :p] = starts
    paths[:, p:] = [[model.constant_value] for model in models]
    live = [c for c, model in enumerate(models) if not model.constant]
    if live:
        layers = _layers([np.stack(w) for w in zip(*(models[c].weights for c in live))])
        center, scale = np.array([models[c].scaler for c in live]).T[..., None]
        with np.errstate(over="ignore"):  # a saturated unit (see _forward)
            for t in range(p, p + h):
                _, out = _forward(_design(paths[live, None, None, t - p:t], center, scale),
                                  layers)
                paths[live, t] = (center + scale * out[..., 0, :].mean(axis=-2))[:, 0]
    return paths[:, p:]


def forecast_recursive(model: NeuralNetModel, series, h: int) -> np.ndarray:
    """h-step forecast, each step predicted from the trailing p values of the path."""
    return forecast_paths([model], [series], h)[0]


def fitted_values(model: NeuralNetModel, series) -> np.ndarray:
    """In-sample one-step predictions for t = p .. n-1 of the given series."""
    y = np.asarray(series, dtype=float)
    if y.size < model.p + 1:
        raise ValueError("series too short")
    return predict(model, _supervised_pairs(y, model.p)[0])
