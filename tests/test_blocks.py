"""Stacks of networks fanned out to the worker: a network's bits do not depend on where
it trained.

``neuralnet.fit_networks`` shares a batch of (series, p, k, cfg) jobs, in stacks of
jobs that train as one program, between this process and one worker process. The
property below compares a fanned-out batch with the same jobs trained here one after
another; other tests cover the worker's error path, a worker that dies, the worker's
CPU, the split of a batch between the two processes, the dispatch rule, and the cases
where a batch trains in its own process because other threads run or forking is not
allowed or fails. Jobs whose series lengths differ never share a stack, so most
batches below are one job to a stack; tests/test_stacks.py covers larger stacks.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epicast import core, neuralnet
from epicast.neuralnet import TrainConfig, fit_network, fit_networks, forecast_recursive


def series(seed, n):
    rng = np.random.default_rng(seed)
    return 20.0 + np.cumsum(rng.normal(size=n)) + rng.normal(size=n)


def same_bits(got, want):
    """Two networks with the same weights and loss curve, bit for bit, or two
    ValueErrors with the same message."""
    if isinstance(want, ValueError):
        return type(got) is type(want) and str(got) == str(want)
    if want.constant:
        return got.constant and got.scaler == want.scaler
    return (got.training_loss == want.training_loss
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(got.weights, want.weights)))


def in_process(jobs):
    return [core.attempt(fit_network, *job) for job in jobs]


def stack_count(jobs):
    """The number of stacks a batch trains in: one per series length, p, k and TrainConfig
    but the seed, as none of the batches here reaches MAX_STACK."""
    return len({(np.size(y), p, k, dataclasses.replace(cfg, seed=0)) for y, p, k, cfg in jobs})


@pytest.fixture
def fan_out(monkeypatch):
    """Every batch of two stacks or more goes to the worker, whatever its size and the
    load; the number of stacks in each batch shared is recorded in the returned list."""
    fanned = []
    shared = neuralnet._fan_out
    monkeypatch.setattr(neuralnet, "_fan_out",
                        lambda stacks, *args: fanned.append(len(stacks)) or shared(stacks, *args))
    monkeypatch.setattr(neuralnet, "MIN_WORK", 0)
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 2)
    return fanned


@st.composite
def jobs(draw):
    kind = draw(st.sampled_from(["fit", "fit", "fit", "constant", "too short"]))
    p = draw(st.integers(1, 6))
    n = p + 1 if kind == "too short" else p + 2 + draw(st.integers(0, 100))
    y = np.full(n, 4.2) if kind == "constant" else series(draw(st.integers(0, 2**32 - 1)), n)
    cfg = TrainConfig(learning_rate=draw(st.floats(0.005, 0.5)), epochs=draw(st.integers(1, 60)),
                      restarts=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**32 - 1)),
                      tolerance=draw(st.sampled_from([0.0, 1e-5, np.inf])),
                      patience=draw(st.integers(1, 30)))
    return y, p, draw(st.integers(1, 4)), cfg


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(jobs(), min_size=1, max_size=6).flatmap(st.permutations))
def test_a_fanned_out_batch_gives_the_in_process_bits(fan_out, batch):
    # Each job's result comes back in job order, whichever process trained it.
    fan_out.clear()
    got = fit_networks(batch)
    assert len(got) == len(batch)
    assert all(same_bits(g, w) for g, w in zip(got, in_process(batch)))
    stacks = stack_count(batch)
    assert fan_out == ([stacks] if stacks > 1 else [])


def test_the_worker_is_reused_across_batches(fan_out):
    batch = [(series(seed, 120 + seed), 3, 2, TrainConfig(epochs=30, restarts=3, seed=seed))
             for seed in range(4)]
    want = in_process(batch)
    assert all(map(same_bits, fit_networks(batch), want))
    worker = neuralnet._worker[0]
    assert all(map(same_bits, fit_networks(batch), want))
    assert neuralnet._worker[0] is worker and worker.is_alive()


class Recording:
    """A stand-in for the worker's connection, which records each message and answers
    each share with one ("worker", stack) pair per stack."""

    def __init__(self):
        self.sent, self.replies = [], 0

    def send(self, share):
        self.sent.append(share)

    def recv(self):
        self.replies += 1
        return [("worker", stack) for stack in self.sent[-1]]


@settings(max_examples=200, deadline=None)
@given(work=st.lists(st.integers(1, 10**9), min_size=2, max_size=40))
def test_one_split_shares_the_stacks_by_their_work(work):
    # Each stack goes to exactly one side, in one message each way; the caller's share
    # holds the largest stack, and the two shares' work differs by at most one stack's.
    conn, mine = Recording(), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neuralnet, "_fit_stack",
                      lambda stack: mine.append(stack) or ("caller", stack))
        results = neuralnet._fan_out(list(range(len(work))), work, conn)
    assert (len(conn.sent), conn.replies) == (1, 1)
    theirs = conn.sent[0]
    assert sorted(mine + theirs) == list(range(len(work)))
    assert results == [("caller" if i in mine else "worker", i) for i in range(len(work))]
    assert work.index(max(work)) in mine
    assert abs(sum(work[i] for i in mine) - sum(work[i] for i in theirs)) <= max(work)


class Counting:
    """The worker's connection, with each call to it recorded."""

    def __init__(self, conn):
        self.conn, self.calls = conn, []

    def send(self, message):
        self.calls.append("send")
        self.conn.send(message)

    def recv(self):
        self.calls.append("recv")
        return self.conn.recv()


@pytest.mark.parametrize("lengths, caller", [
    ((120, 100), {120}),
    ((130, 110, 90), {130}),
    ((150, 140, 130, 120, 110), {150, 120, 110}),
])
def test_the_caller_trains_its_share_of_one_split(fan_out, monkeypatch, lengths, caller):
    # A stack's work grows with its series length. Largest first, each stack goes to the
    # side with less work so far: of five stacks the caller takes the first, the worker
    # the next two, the caller the fourth and, on a tie, the fifth. The worker's share
    # goes out in one message and comes back in one.
    batch = [(series(n, n), 3, 2, TrainConfig(epochs=30, restarts=3, seed=n)) for n in lengths]
    want = in_process(batch)
    neuralnet._connection()  # forked before the patch: the worker does not record
    here, fit_stack, shared, counting = [], neuralnet._fit_stack, neuralnet._fan_out, []
    monkeypatch.setattr(neuralnet, "_fit_stack",
                        lambda stack: here.append(np.size(stack[0][0])) or fit_stack(stack))
    monkeypatch.setattr(neuralnet, "_fan_out", lambda stacks, work, conn: counting.append(
        Counting(conn)) or shared(stacks, work, counting[-1]))
    assert all(map(same_bits, fit_networks(batch), want))
    assert fan_out == [len(lengths)]
    assert [c.calls for c in counting] == [["send", "recv"]]
    assert here[0] == max(lengths) and set(here) == caller


def test_a_batch_after_the_worker_died_trains_in_the_caller(fan_out):
    # A worker killed while idle (the OOM killer, a stray kill) leaves a broken pipe;
    # the next batch trains every stack here and the one after forks a new worker.
    batch = [(series(seed, 110 + seed), 3, 2, TrainConfig(epochs=30, restarts=3, seed=seed))
             for seed in range(4)]
    want = in_process(batch)
    assert all(map(same_bits, fit_networks(batch), want))
    worker = neuralnet._worker[0]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert all(map(same_bits, fit_networks(batch), want))
    assert neuralnet._worker is None
    assert all(map(same_bits, fit_networks(batch), want))
    assert neuralnet._worker[0] is not worker and neuralnet._worker[0].is_alive()


def test_the_caller_trains_what_a_dying_worker_held(fan_out, monkeypatch):
    # The worker is forked with a _fit_stack that sleeps for a minute, and the caller's
    # first stack kills it while it holds its share: the caller trains that share too.
    batch = [(series(seed, 100 + seed), 3, 2, TrainConfig(epochs=30, restarts=3, seed=seed))
             for seed in range(6)]
    want = in_process(batch)
    fit_stack = neuralnet._fit_stack
    neuralnet._close_worker()
    monkeypatch.setattr(neuralnet, "_fit_stack", lambda stack: time.sleep(60))
    neuralnet._connection()
    worker = neuralnet._worker[0]
    here = []

    def killing(stack):
        if not here:
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10)
        here.append(np.size(stack[0][0]))
        return fit_stack(stack)

    monkeypatch.setattr(neuralnet, "_fit_stack", killing)
    assert all(map(same_bits, fit_networks(batch), want))
    assert not worker.is_alive() and neuralnet._worker is None
    assert sorted(here) == [100 + seed for seed in range(6)]


def test_an_os_error_the_worker_sends_is_not_a_broken_pipe(fan_out, monkeypatch):
    # An OSError raised in the worker's job reaches the caller like any other failure;
    # only an error of the pipe itself leaves the worker's stacks to the caller.
    caller = os.getpid()
    train = neuralnet._train

    def failing(*args):
        if os.getpid() != caller:
            raise OSError("the worker's job failed")
        return train(*args)

    neuralnet._close_worker()
    monkeypatch.setattr(neuralnet, "_train", failing)
    neuralnet._connection()
    worker = neuralnet._worker[0]
    with pytest.raises(OSError, match="the worker's job failed"):
        fit_networks(batch_of(5))
    worker.join(timeout=10)
    assert not worker.is_alive() and neuralnet._worker is None


def test_a_fan_out_pins_the_worker_and_leaves_the_caller_alone(fan_out, monkeypatch):
    # The worker runs on the last CPU of the caller's affinity set from its fork on;
    # the caller keeps its whole set while it trains its share of a batch, and after.
    mask = os.sched_getaffinity(0)
    batch = [(series(seed, 90 + seed), 2, 1, TrainConfig(epochs=20, restarts=4, seed=seed))
             for seed in range(4)]
    want = in_process(batch)
    neuralnet._close_worker()
    neuralnet._connection()  # forked before the patch: the worker does not record
    seen = []
    train = neuralnet._train

    def recording(*args):
        seen.append(os.sched_getaffinity(0))
        return train(*args)

    monkeypatch.setattr(neuralnet, "_train", recording)
    got = fit_networks(batch)
    monkeypatch.setattr(neuralnet, "_train", train)
    assert all(map(same_bits, got, want))
    assert seen and all(cpus == mask for cpus in seen)
    assert os.sched_getaffinity(0) == mask
    assert os.sched_getaffinity(neuralnet._worker[0].pid) == {max(mask)}


def test_an_error_in_the_worker_reaches_the_caller(fan_out, monkeypatch):
    # The worker is forked after the patch, so its jobs fail and the caller's do not.
    caller = os.getpid()
    train = neuralnet._train

    def failing(*args):
        if os.getpid() != caller:
            raise ArithmeticError("the worker's job failed")
        return train(*args)

    batch = [(series(seed, 100 + seed), 3, 2, TrainConfig(epochs=25, restarts=4, seed=seed))
             for seed in range(3)]
    want = in_process(batch)
    neuralnet._close_worker()
    monkeypatch.setattr(neuralnet, "_train", failing)
    neuralnet._connection()
    worker = neuralnet._worker[0]
    with pytest.raises(ArithmeticError, match="the worker's job failed"):
        fit_networks(batch)
    worker.join(timeout=10)
    assert not worker.is_alive() and neuralnet._worker is None
    monkeypatch.setattr(neuralnet, "_train", train)
    assert all(map(same_bits, fit_networks(batch), want))
    assert neuralnet._worker[0] is not worker


def test_fit_networks_uses_the_cpus_it_may_run_on(monkeypatch):
    fanned = []
    monkeypatch.setattr(neuralnet, "_fan_out", lambda stacks, work, conn: fanned.append(
        len(stacks)) or [neuralnet._fit_stack(stack) for stack in stacks])
    y = series(2, 80)
    large = (y, 2, 1, TrainConfig(epochs=200, restarts=10))
    other = (y[1:], 2, 1, TrainConfig(epochs=200, restarts=10))  # a stack of its own
    small = (y, 2, 1, TrainConfig(epochs=100, restarts=10))
    assert 2 * neuralnet._work(large) >= neuralnet.MIN_WORK > 2 * neuralnet._work(small)
    assert neuralnet._work(large) + neuralnet._work(other) >= neuralnet.MIN_WORK
    for cpus, batch in [(2, [large, other]), (2, [large]), (2, [small, small]),
                        (1, [large, other]), (2, [large, large]), (4, [large, small, other])]:
        monkeypatch.setattr(neuralnet, "_cpus", lambda: cpus)
        fit_networks(batch)
    # One job, a batch below MIN_WORK, one CPU or one stack stays in this process.
    assert fanned == [2, 3]


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


def batch_of(seed):
    return [(series(seed + i, 100 + i), 3, 2, TrainConfig(epochs=30, restarts=4, seed=seed + i))
            for i in range(3)]


def owns_worker():
    """Whether this process has a worker it forked itself."""
    return neuralnet._worker is not None and neuralnet._worker[2] == os.getpid()


def fit_in_this_process(batch):
    """A batch's results, with whether this process had a worker of its own before it and
    has one after it."""
    before = owns_worker()
    got = fit_networks(batch)
    return before, owns_worker(), got


def test_a_fit_in_a_pool_worker_trains_in_that_worker(fan_out):
    # A Pool worker is daemonic and may not fork; it also inherits this process's
    # worker, which it must not use, and which this process keeps.
    batch = batch_of(2)
    assert neuralnet._connection() is not None
    worker = neuralnet._worker[0]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        before, after, got = pool.apply(fit_in_this_process, (batch,))
    assert (before, after) == (False, False)
    assert all(map(same_bits, got, in_process(batch)))
    assert neuralnet._worker[0] is worker and worker.is_alive()


def test_a_fit_with_other_threads_running_does_not_fork(fan_out, monkeypatch):
    monkeypatch.setattr(neuralnet, "_worker", None)
    batch = batch_of(3)
    got = []
    thread = threading.Thread(target=lambda: got.append(fit_in_this_process(batch)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    before, after, results = got[0]
    assert (before, after, fan_out) == (False, False, [])
    assert all(map(same_bits, results, in_process(batch)))


def test_a_fork_that_fails_leaves_the_fit_in_process(fan_out, monkeypatch):
    def start(self):
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(neuralnet, "_worker", None)
    batch = batch_of(4)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    before, after, got = fit_in_this_process(batch)
    assert (before, after) == (False, False)
    assert all(map(same_bits, got, in_process(batch)))


def test_fits_in_several_threads_train_in_their_own_threads(fan_out):
    # While other threads run, no batch uses the worker, so no two batches share it.
    # Every network must have the bits of one trained alone.
    batches = [batch_of(seed) for seed in range(0, 18, 3)]
    alone = [in_process(batch) for batch in batches]
    neuralnet._connection()  # forked while this is the only thread
    got = [None] * len(batches)

    def fit(i):
        got[i] = fit_networks(batches[i])

    threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(batches))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert fan_out == []
    for results, want in zip(got, alone):
        assert all(map(same_bits, results, want))


def test_fit_network_trains_in_this_process(monkeypatch):
    # The one-network entry point never forks, whatever the CPUs.
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 2)
    monkeypatch.setattr(neuralnet, "_worker", None)
    model = fit_network(series(5, 120), 3, 2, TrainConfig(epochs=60, restarts=4, seed=1))
    assert neuralnet._worker is None and len(model.training_loss) == 60


@pytest.mark.parametrize("cpus", [2, 1], ids=["shared", "in-process"])
def test_recursive_forecasts_of_fitted_networks_lie_within_the_output_bound(fan_out,
                                                                           monkeypatch, cpus):
    # Each hidden unit lies in [0, 1], so a network's output in z-units is bounded by
    # |b2| + sum |w2|, averaged over restarts; so is every step of a recursive forecast,
    # however far it runs. A large learning rate drives the weights far from their start.
    monkeypatch.setattr(neuralnet, "_cpus", lambda: cpus)
    batch = [(series(seed, n), p, k, TrainConfig(learning_rate=0.5, epochs=80, restarts=3,
                                                 seed=seed))
             for seed, (n, p, k) in enumerate([(40, 1, 1), (90, 3, 2), (150, 8, 4)])]
    fan_out.clear()
    nets = fit_networks(batch)
    assert fan_out == ([len(batch)] if cpus == 2 else [])
    for (y, *_), net in zip(batch, nets):
        _, w_out, b2 = net.weights
        center, scale = net.scaler
        bound = np.mean(np.abs(b2) + np.abs(w_out).sum(axis=1))
        z = (forecast_recursive(net, y, 500) - center) / scale
        assert np.all(np.abs(z) <= bound + 1e-9 * (bound + abs(center) / scale))
