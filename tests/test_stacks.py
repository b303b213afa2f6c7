"""Stacked training: the networks of one series length, p, k and TrainConfig but the seed
train as one program, and each keeps the bits it has when ``fit_network`` trains it alone.

``neuralnet.fit_networks`` trains a batch that reaches ``MIN_WORK`` in stacks of at most
``MAX_STACK`` hidden activations, in this process or shared with the worker process. Each
member keeps its own seeds, scaler and stopping rule, and a member that cannot train, or
diverges, fails alone. A smaller batch trains network by network through ``fit_network``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from epicast import neuralnet
from epicast.neuralnet import TrainConfig, fit_network, fit_networks


def series(seed, n):
    rng = np.random.default_rng(seed)
    return 20.0 + np.cumsum(rng.normal(size=n)) + rng.normal(size=n)


def alone(job):
    """The network ``fit_network`` trains for one job, or the ValueError it raises."""
    try:
        return fit_network(*job)
    except ValueError as exc:
        return exc


def same_result(got, want):
    """The same weights, scaler, seed and loss curve, byte for byte, or a ValueError of the
    same type and message."""
    if isinstance(want, ValueError):
        return type(got) is type(want) and str(got) == str(want)
    if isinstance(got, ValueError) or (got.p, got.k, got.seed) != (want.p, want.k, want.seed):
        return False
    if np.array(got.scaler).tobytes() != np.array(want.scaler).tobytes():
        return False
    if want.constant:
        return got.constant and not hasattr(got, "training_loss")
    return (np.array(got.training_loss).tobytes() == np.array(want.training_loss).tobytes()
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(got.weights, want.weights)))


def spike(n):
    return np.where(np.arange(n) == 20, 50.0, 1.0) + 0.1 * np.sin(np.arange(n))


def nan_reset_stack():
    """Two jobs of one stack. With an infinite tolerance every epoch after the first counts
    as stalled, so the walk stops on epoch 38. The spike's loss overflows to inf on epoch 37
    and turns NaN on epoch 74; inf - inf, and any difference with a NaN, is NaN, which
    resets its stall count, so it trains all 80 epochs and diverges."""
    cfg = TrainConfig(learning_rate=1e4, epochs=80, restarts=3, seed=1, tolerance=np.inf,
                      patience=37)
    return [(series(0, 40), 2, 1, cfg), (spike(40), 2, 1, cfg)]


def diverging_stack():
    """Walks of seeds 0 to 3 at a learning rate that diverges seeds 2 and 3 alone."""
    cfg = TrainConfig(learning_rate=1e6, epochs=50, restarts=3, tolerance=0.0, patience=60)
    return [(series(seed, 40), 2, 1, dataclasses.replace(cfg, seed=seed)) for seed in range(4)]


@st.composite
def stack_jobs(draw):
    """One to four jobs of one series length, p, k and TrainConfig but the seed."""
    p, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n = p + 1 if draw(st.integers(0, 9)) == 0 else p + 2 + draw(st.integers(0, 80))
    shared = dict(learning_rate=draw(st.sampled_from([0.005, 0.05, 0.5, 1e4, 1e6])),
                  epochs=draw(st.integers(1, 60)), restarts=draw(st.integers(1, 5)),
                  tolerance=draw(st.sampled_from([0.0, 1e-5, 1e-3, np.inf])),
                  patience=draw(st.integers(1, 30)))
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["walk", "walk", "walk", "spike", "constant", "non-finite"]))
        y = np.full(n, 4.2) if kind == "constant" else series(draw(st.integers(0, 2**32 - 1)), n)
        if kind == "spike" and n > 20:
            y = spike(n)
        if kind == "non-finite":
            y[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        jobs.append((y, p, k, TrainConfig(seed=draw(st.integers(0, 2**32 - 1)), **shared)))
    return jobs


batches = st.lists(stack_jobs(), min_size=1, max_size=3).map(
    lambda stacks: [job for stack in stacks for job in stack]).flatmap(st.permutations)


@pytest.fixture
def stacked(monkeypatch):
    """Every batch trains in stacks, however small."""
    monkeypatch.setattr(neuralnet, "MIN_WORK", 0)


def describe(batch, want):
    """Hypothesis events: the largest stack, and stacks whose members stop on different
    epochs or fail while another member trains."""
    stacks = neuralnet._stacks(batch)
    event(f"largest stack of {max(map(len, stacks))}")
    for stack in stacks:
        results = [want[i] for i in stack]
        epochs = {len(r.training_loss) for r in results if hasattr(r, "training_loss")}
        if len(epochs) > 1:
            event("members of a stack stop on different epochs")
        if epochs and any(isinstance(r, ValueError) and str(r) == "non-finite weights"
                          for r in results):
            event("a member diverges alone")


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "worker"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=batches)
@example(batch=nan_reset_stack() + diverging_stack())
@example(batch=diverging_stack()[::-1] + nan_reset_stack()[::-1] + [
    (np.full(40, 4.2), 2, 1, nan_reset_stack()[0][3]), (series(5, 3), 2, 1, TrainConfig())])
def test_a_stacked_batch_gives_each_job_the_result_of_fit_network(stacked, monkeypatch, cpus,
                                                                 batch):
    monkeypatch.setattr(neuralnet, "_cpus", lambda: cpus)
    want = [alone(job) for job in batch]
    describe(batch, want)
    got = fit_networks(batch)
    assert len(got) == len(batch)
    assert all(same_result(g, w) for g, w in zip(got, want))


def test_a_nan_loss_resets_the_stall_count_of_its_member_alone(stacked):
    jobs = nan_reset_stack()
    z = np.array([neuralnet._scaled(*job)[0] for job in jobs])
    _, curves = neuralnet._train(z, 2, 1, jobs[0][3], [1, 1])
    assert len(curves[0]) == 38 and np.all(np.isfinite(curves[0]))
    assert np.isinf(curves[1][36]) and np.isnan(curves[1][73]) and len(curves[1]) == 80
    walk, diverged = fit_networks(jobs)
    assert walk.training_loss == curves[0]
    assert str(diverged) == "non-finite weights"


def test_a_batch_below_min_work_trains_network_by_network(monkeypatch):
    # As the benchmark's traced passes see it: one fit_network call per job, in job order.
    batch = [(series(seed, 60), 2, 1, TrainConfig(epochs=5, restarts=2, seed=seed))
             for seed in range(4)]
    work = sum(map(neuralnet._work, batch))
    calls, stacks = [], []
    fit, fit_stack = neuralnet.fit_network, neuralnet._fit_stack
    monkeypatch.setattr(neuralnet, "fit_network",
                        lambda *job: calls.append(job[3].seed) or fit(*job))
    monkeypatch.setattr(neuralnet, "_fit_stack",
                        lambda jobs: stacks.append(len(jobs)) or fit_stack(jobs))
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 1)
    monkeypatch.setattr(neuralnet, "MIN_WORK", work + 1)
    below = fit_networks(batch)
    assert (calls, stacks) == ([0, 1, 2, 3], [1, 1, 1, 1])
    calls.clear(), stacks.clear()
    monkeypatch.setattr(neuralnet, "MIN_WORK", work)
    reaching = fit_networks(batch)
    assert (calls, stacks) == ([], [4])
    assert all(map(same_result, reaching, below))


def test_a_network_whose_hidden_buffer_exceeds_the_cap_trains_alone(stacked, monkeypatch):
    # R k (n - p) with R = 4 is half of MAX_STACK, two networks to a stack; with 8 restarts
    # one network fills the cap, and with 9 it exceeds it, so each trains alone.
    assert 8 * 4 * (2055 - 7) == neuralnet.MAX_STACK
    sizes = []
    train = neuralnet._train
    monkeypatch.setattr(neuralnet, "_train",
                        lambda z, *args: sizes.append(len(z)) or train(z, *args))
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 1)
    for restarts, want in [(4, [2, 1]), (8, [1, 1, 1]), (9, [1, 1, 1])]:
        cfg = TrainConfig(epochs=1, restarts=restarts)
        batch = [(series(seed, 2055), 7, 4, dataclasses.replace(cfg, seed=seed))
                 for seed in range(3)]
        sizes.clear()
        got = fit_networks(batch)
        assert sizes == want
        assert all(same_result(g, alone(job)) for g, job in zip(got, batch))


def workload_shapes(epochs=500):
    """(n, p, count, want) for the benchmark's networks at R = 20: weekly_fit's five p = 8
    calibration-head and refit networks, monthly_backtest's four p = 12 components, and
    five p = 20 networks of the default search, each 50 800 hidden floats."""
    cfg = TrainConfig(epochs=epochs)
    shapes = [(273, 8, 5, [3, 2]), (299, 8, 5, [2, 2, 1]), (135, 12, 4, [4]),
              (274, 20, 5, [1] * 5)]
    return [([(series(seed, n), p, neuralnet.hidden_neurons(p),
               dataclasses.replace(cfg, seed=seed)) for seed in range(count)], want)
            for n, p, count, want in shapes]


@pytest.mark.parametrize("jobs,want", workload_shapes(), ids=["weekly-head", "weekly-refit",
                                                              "monthly", "p20"])
def test_the_workloads_networks_stack_as_the_cap_allows(jobs, want):
    assert [len(stack) for stack in neuralnet._stacks(jobs)] == want


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "worker"])
def test_a_batch_of_the_workloads_shapes_keeps_the_bits_of_fit_network(stacked, monkeypatch,
                                                                       cpus):
    monkeypatch.setattr(neuralnet, "_cpus", lambda: cpus)
    batch = [job for jobs, _ in workload_shapes(epochs=2) for job in jobs]
    batch = [batch[i] for i in np.random.default_rng(0).permutation(len(batch))]
    assert sorted(map(len, neuralnet._stacks(batch))) == [1] * 6 + [2] * 3 + [3, 4]
    got = fit_networks(batch)
    assert all(same_result(g, alone(job)) for g, job in zip(got, batch))


def test_stacks_go_out_by_multiply_adds_and_a_fixed_cost_per_restart_epoch(stacked,
                                                                           monkeypatch):
    # On one CPU, a stack of five p = 1 networks of 273 points trained in about twice the
    # time of one p = 8 network (190 ms against 86 ms at 500 epochs), though it makes 0.4
    # times the multiply-adds: most of a small network's epoch is a fixed cost per
    # restart. Counting it puts the stack first.
    handed = []
    monkeypatch.setattr(neuralnet, "_cpus", lambda: 2)
    monkeypatch.setattr(neuralnet, "_fan_out", lambda stacks, work, conn: handed.append(
        work) or [neuralnet._fit_stack(stack) for stack in stacks])
    cfg = TrainConfig(epochs=2, restarts=20)
    small = [(series(seed, 273), 1, 1, dataclasses.replace(cfg, seed=seed)) for seed in range(5)]
    large = (series(9, 273), 8, 4, cfg)
    assert sum(map(neuralnet._work, small)) < neuralnet._work(large)
    fit_networks(small + [large])
    assert len(handed) == 1 and handed[0][0] > handed[0][1]
