"""Restarts split into blocks: a fit's bits do not depend on how many blocks ran it.

``neuralnet._train`` splits the restarts into contiguous blocks that train
``CHUNK`` epochs at a time; the stopping rule sees the joined losses, and a stop
inside a chunk rewinds every block to the start of that chunk and replays. The
property below runs every block in this process and compares each block count
with a plain epoch loop; other tests run a block in the one worker process, and
check that a fit trains in its own process where forking is unsafe or fails.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from epicast import neuralnet
from epicast.neuralnet import CHUNK, TrainConfig, fit_network


def zscored(seed, n):
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.normal(size=n)) + rng.normal(size=n)
    return (y - y.mean()) / y.std()


def unchunked(z, p, k, cfg):
    """The epoch loop with no chunks: the rule looks after every epoch, and the
    stopping epoch takes no step."""
    block = neuralnet._Block(z, p, k, cfg, 0, cfg.restarts)
    prev_loss, stalled, curve = np.inf, 0, []
    for _ in range(cfg.epochs):
        with np.errstate(all="ignore"):
            loss = neuralnet._stacked_loss_and_grad(block.state, block.xt, block.target,
                                                    block.buf, block.grads, block.step)
        total = float(loss.sum()) / cfg.restarts
        curve.append(total)
        if prev_loss - total < cfg.tolerance:
            stalled += 1
            if stalled >= cfg.patience:
                break
        else:
            stalled = 0
        prev_loss = total
        block.params -= block.grad
    return tuple(w.copy() for w in block.state), curve


def where_it_stops(curve, cfg):
    if len(curve) == cfg.epochs:
        return "no stop"
    return "stop on a chunk boundary" if (len(curve) - 1) % CHUNK == 0 else "stop inside a chunk"


def assert_same_bits(got, want):
    (w_got, curve_got), (w_want, curve_want) = got[:2], want[:2]
    assert len(curve_got) == len(curve_want)
    for a, b in zip([*w_got, np.array(curve_got)], [*w_want, np.array(curve_want)]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# An infinite tolerance counts every epoch after the first as stalled, so the rule
# fires at epoch ``patience`` exactly: a stop placed on or next to a chunk boundary.
@settings(max_examples=40, deadline=None)
@given(r=st.integers(1, 8), k=st.integers(1, 5), p=st.integers(1, 10), extra=st.integers(0, 120),
       lr=st.floats(0.005, 0.5), epochs=st.integers(1, 3 * CHUNK + 10),
       tolerance=st.sampled_from([0.0, 1e-7, 1e-5, 1e-3, np.inf]),
       patience=st.integers(1, 3 * CHUNK), seed=st.integers(0, 2**32 - 1))
@example(r=5, k=2, p=3, extra=60, lr=0.05, epochs=150, tolerance=np.inf, patience=CHUNK,
         seed=1)
@example(r=5, k=2, p=3, extra=60, lr=0.05, epochs=150, tolerance=np.inf, patience=CHUNK - 1,
         seed=2)
@example(r=3, k=4, p=8, extra=100, lr=0.05, epochs=150, tolerance=np.inf,
         patience=CHUNK + 17, seed=3)
@example(r=20, k=4, p=8, extra=190, lr=0.2, epochs=150, tolerance=1e-3, patience=5, seed=4)
def test_fit_bits_do_not_depend_on_the_block_count(r, k, p, extra, lr, epochs, tolerance,
                                                   patience, seed):
    z = zscored(seed, p + 2 + extra)
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, restarts=r, seed=seed,
                      tolerance=tolerance, patience=patience)
    want = unchunked(z, p, k, cfg)
    event(where_it_stops(want[1], cfg))
    for blocks in range(1, min(r, 3) + 1):
        assert_same_bits(neuralnet._train(z, p, k, cfg, blocks), want)


@pytest.mark.parametrize("cfg,epochs_run", [
    (TrainConfig(epochs=3 * CHUNK + 7, restarts=5, seed=3), 3 * CHUNK + 7),
    (TrainConfig(learning_rate=0.05, epochs=3 * CHUNK, restarts=4, seed=4, tolerance=np.inf,
                 patience=CHUNK + 9), CHUNK + 10),
    (TrainConfig(learning_rate=0.05, epochs=3 * CHUNK, restarts=4, seed=4, tolerance=np.inf,
                 patience=CHUNK), CHUNK + 1),
], ids=["all-epochs", "stop-inside-a-chunk", "stop-on-a-chunk-boundary"])
def test_a_worker_block_gives_the_in_process_bits(cfg, epochs_run):
    z = zscored(5, 150)
    alone = neuralnet._train(z, 4, 2, cfg, 1)
    assert len(alone[1]) == epochs_run
    split = neuralnet._train(z, 4, 2, cfg, 2, neuralnet._connection())
    assert_same_bits(split, alone)
    assert 0 <= split[2] <= 1  # the largest share of its time a process waited for a CPU
    worker = neuralnet._worker[0]
    assert_same_bits(neuralnet._train(z, 4, 2, cfg, 2, neuralnet._connection()), alone)
    assert neuralnet._worker[0] is worker and worker.is_alive()  # the worker is reused


def test_a_split_fit_runs_each_block_on_its_own_cpu(monkeypatch):
    # The caller's thread runs on the first CPU of its affinity set during the fit
    # and gets its set back after it; the worker stays on the last.
    mask = os.sched_getaffinity(0)
    cfg = TrainConfig(epochs=CHUNK, restarts=4, seed=5)
    z = zscored(8, 90)
    seen = []
    block_chunk = neuralnet._Block.chunk

    def chunk(self, epochs):
        seen.append(os.sched_getaffinity(0))
        return block_chunk(self, epochs)

    conn = neuralnet._connection()
    monkeypatch.setattr(neuralnet._Block, "chunk", chunk)
    split = neuralnet._train(z, 4, 2, cfg, 2, conn)
    monkeypatch.undo()
    assert_same_bits(split, neuralnet._train(z, 4, 2, cfg, 1))
    assert seen == [{min(mask)}]
    assert os.sched_getaffinity(0) == mask
    assert os.sched_getaffinity(neuralnet._worker[0].pid) == {max(mask)}


def test_a_diverging_worker_block_is_rejected_as_in_process(monkeypatch):
    z = zscored(1, 60)
    cfg = TrainConfig(learning_rate=1e8, epochs=CHUNK, restarts=4, seed=0)
    alone = neuralnet._train(z, 2, 1, cfg, 1)
    split = neuralnet._train(z, 2, 1, cfg, 2, neuralnet._connection())
    assert_same_bits(split, alone)
    assert not np.all(np.isfinite(split[0][2][2:]))  # the worker's restarts 2 and 3
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(neuralnet, "_cpus", lambda: cpus)
        with pytest.raises(ValueError) as excinfo:
            fit_network(z, 2, 1, cfg)
        errors.append(str(excinfo.value))
    assert errors == ["non-finite weights"] * 2


def test_an_error_in_the_worker_reaches_the_caller(monkeypatch):
    # The worker is forked after the patch, so its blocks fail and the caller's do not.
    caller = os.getpid()
    block_chunk = neuralnet._Block.chunk

    def chunk(self, epochs):
        if os.getpid() != caller:
            raise ArithmeticError("the worker's block failed")
        return block_chunk(self, epochs)

    z = zscored(9, 100)
    cfg = TrainConfig(epochs=CHUNK + 5, restarts=4, seed=6)
    alone = serial_fit(monkeypatch, z, cfg)
    neuralnet._close_worker()
    monkeypatch.setattr(neuralnet._Block, "chunk", chunk)
    conn = neuralnet._connection()
    worker = neuralnet._worker[0]
    with pytest.raises(ArithmeticError, match="the worker's block failed"):
        neuralnet._train(z, 3, 2, cfg, 2, conn)
    worker.join(timeout=10)
    assert not worker.is_alive() and neuralnet._worker is None
    monkeypatch.setattr(neuralnet._Block, "chunk", block_chunk)
    monkeypatch.setattr(neuralnet, "_serial_until", 0.0)
    before, after, *got = fit_in_this_process(z, cfg)
    assert (before, after) == (False, True) and neuralnet._worker[0] is not worker
    assert_same_bits(tuple(got), alone)


def test_fit_network_uses_the_cpus_it_may_run_on(monkeypatch):
    z = zscored(2, 80)
    calls = []
    train = neuralnet._train
    monkeypatch.setattr(neuralnet, "_train", lambda *a: calls.append(a[4]) or train(*a))
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 4)
    monkeypatch.setattr(neuralnet, "_serial_until", 0.0)
    for cfg in (TrainConfig(epochs=CHUNK, restarts=3), TrainConfig(epochs=CHUNK, restarts=1),
                TrainConfig(epochs=CHUNK - 1, restarts=3)):
        fit_network(z, 2, 1, cfg)
    # At most two blocks; one restart, or less than a chunk, stays in this process.
    assert calls == [2, 1, 1]


@pytest.mark.parametrize("queued,held", [(2 * neuralnet.MAX_QUEUED, True), (0.0, False)])
def test_a_split_fit_short_of_cpu_holds_the_next_fits_in_process(monkeypatch, queued, held):
    # Two blocks that share one CPU train slower than one block alone.
    z = zscored(2, 80)
    calls = []
    train = neuralnet._train

    def measured(*args):
        calls.append(args[4])
        return (*train(*args)[:2], queued)

    monkeypatch.setattr(neuralnet, "_train", measured)
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 2)
    monkeypatch.setattr(neuralnet, "_serial_until", 0.0)
    cfg = TrainConfig(epochs=CHUNK, restarts=4)
    fit_network(z, 2, 1, cfg)
    wait = neuralnet._serial_until - time.monotonic()
    fit_network(z, 2, 1, cfg)
    if held:
        assert 0 < wait <= neuralnet.HOLD and calls == [2, 1]
        neuralnet._serial_until = time.monotonic()  # the hold is over
        fit_network(z, 2, 1, cfg)
        assert calls == [2, 1, 2]
    else:
        assert neuralnet._serial_until == 0.0 and calls == [2, 2]


@pytest.mark.parametrize("files,quota", [
    ({}, np.inf),
    ({"cpu.max": "max 100000\n"}, np.inf),
    ({"cpu.max": "150000 100000\n"}, 1.5),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, np.inf),
    ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 0.5),
    ({"cpu.max": "garbled\n"}, np.inf),
], ids=["none", "v2-max", "v2-quota", "v1-unlimited", "v1-quota", "unreadable"])
def test_cpu_quota_is_read_from_the_cgroup(tmp_path, files, quota):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert neuralnet._cpu_quota(tmp_path) == quota


def test_a_cpu_quota_below_two_keeps_fits_in_process(monkeypatch):
    # As under ``docker run --cpus 1.5`` on a four-CPU host.
    monkeypatch.setattr(neuralnet.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(neuralnet, "_cpu_quota", lambda: 1.5)
    assert neuralnet._cpus() == 1
    monkeypatch.setattr(neuralnet, "_cpu_quota", lambda: 2.0)
    assert neuralnet._cpus() == 2


def fit_in_this_process(z, cfg):
    """A fit, with whether this process had a worker before it and has one after it."""
    before = neuralnet._worker is not None
    fitted = fit_network(z, 3, 2, cfg)
    return before, neuralnet._worker is not None, fitted.weights, fitted.training_loss


def serial_fit(monkeypatch, z, cfg):
    """The weights and loss curve of a fit on one CPU; leaves the process two CPUs."""
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 1)
    _, _, *want = fit_in_this_process(z, cfg)
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 2)
    return tuple(want)


def test_a_fit_in_a_pool_worker_trains_in_that_worker(monkeypatch):
    # A Pool worker is daemonic and may not fork; it also inherits this process's
    # worker, which it must not use.
    z = zscored(4, 100)
    cfg = TrainConfig(epochs=CHUNK + 5, restarts=4, seed=2)
    alone = serial_fit(monkeypatch, z, cfg)
    assert neuralnet._connection() is not None
    with multiprocessing.get_context("fork").Pool(1) as pool:
        before, after, *got = pool.apply(fit_in_this_process, (z, cfg))
    assert (before, after) == (False, False)
    assert_same_bits(tuple(got), alone)


def test_a_fit_with_other_threads_running_does_not_fork(monkeypatch):
    monkeypatch.setattr(neuralnet, "_worker", None)
    z = zscored(6, 100)
    cfg = TrainConfig(epochs=CHUNK + 5, restarts=4, seed=3)
    alone = serial_fit(monkeypatch, z, cfg)
    got = []
    thread = threading.Thread(target=lambda: got.append(fit_in_this_process(z, cfg)))
    thread.start()
    thread.join(timeout=120)
    before, after, *weights = got[0]
    assert (before, after) == (False, False)
    assert_same_bits(tuple(weights), alone)


def test_a_fork_that_fails_leaves_the_fit_in_process(monkeypatch):
    def start(self):
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(neuralnet, "_worker", None)
    z = zscored(7, 100)
    cfg = TrainConfig(epochs=CHUNK + 5, restarts=4, seed=4)
    alone = serial_fit(monkeypatch, z, cfg)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    before, after, *weights = fit_in_this_process(z, cfg)
    assert (before, after) == (False, False)
    assert_same_bits(tuple(weights), alone)


def test_fits_in_several_threads_share_the_workers_safely():
    # One thread at a time holds the worker; the others train in their own thread.
    # Every fit must give the bits of a fit made alone.
    z = zscored(3, 120)
    cfgs = [TrainConfig(epochs=CHUNK + 10, restarts=4, seed=seed) for seed in range(6)]
    alone = [fit_network(z, 3, 2, cfg) for cfg in cfgs]
    got = [None] * len(cfgs)

    def fit(i):
        got[i] = fit_network(z, 3, 2, cfgs[i])

    threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(cfgs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for fitted, want in zip(got, alone):
        assert_same_bits((fitted.weights, fitted.training_loss),
                         (want.weights, want.training_loss))
