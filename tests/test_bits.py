"""Pinned bits: sha256 digests of ``fit_network``'s weights and loss curve.

The digests were recorded from the trainer that split each network's restarts into
50-epoch chunks, on the build in ``RECORDED``: NumPy, its BLAS library and version,
and the SIMD extensions NumPy found on the CPU, which pick OpenBLAS's kernels.
Another build may round differently, so the digests are checked only on that one.
On every build, each pinned fit must stop on its pinned epoch, and the worker must
give the in-process bits.
"""

import hashlib

import numpy as np
import pytest

from epicast import neuralnet
from epicast.neuralnet import TrainConfig, fit_network


def series(seed, n):
    rng = np.random.default_rng(seed)
    return 20.0 + np.cumsum(rng.normal(size=n)) + rng.normal(size=n)


def build():
    """This NumPy's version, BLAS name and version, and the CPU's SIMD extensions;
    None where NumPy does not report them."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return (np.__version__, blas["name"], blas["version"],
                tuple(config["SIMD Extensions"]["found"]))
    except (TypeError, KeyError):  # NumPy before 1.26 prints its config only
        return None


RECORDED = ("2.4.6", "scipy-openblas", "0.3.31.188.0",
            ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))
on_the_recorded_build = pytest.mark.skipif(
    build() != RECORDED, reason="the digests were recorded on another NumPy, BLAS or CPU")


def digest(model):
    sha = hashlib.sha256()
    for w in (*model.weights, np.array(model.training_loss)):
        sha.update(w.tobytes())
    return sha.hexdigest()


# An infinite tolerance counts every epoch after the first as stalled, so the rule
# fires at epoch ``patience`` + 1 exactly.
PINNED = [
    (TrainConfig(epochs=157, restarts=5, seed=3), 157,
     "9a158c164ceb093d176cf00f554f4c54b332926182b26caf5463a822cda5d3fe"),
    (TrainConfig(learning_rate=0.05, epochs=150, restarts=4, seed=4, tolerance=np.inf,
                 patience=50), 51,
     "e4b1d4b6ab7d186978c29b4a28771ceb1b04fee9bf9d6c536aaf20ef04713fc3"),
    (TrainConfig(learning_rate=0.05, epochs=150, restarts=4, seed=4, tolerance=np.inf,
                 patience=59), 60,
     "d6e954b1a4aae1eeb124e6ca310529afc5f699afebcc63d4394fa79b2c35f1b7"),
]
IDS = ["no-stop", "stop-on-epoch-51", "stop-inside-a-chunk"]
DIVERGING = TrainConfig(learning_rate=1e8, epochs=50, restarts=4, seed=0)


@pytest.mark.parametrize("cfg,epochs_run,sha", PINNED, ids=IDS)
def test_a_fit_stops_on_its_pinned_epoch(cfg, epochs_run, sha):
    assert len(fit_network(series(5, 150), 4, 2, cfg).training_loss) == epochs_run


@on_the_recorded_build
@pytest.mark.parametrize("cfg,epochs_run,sha", PINNED, ids=IDS)
def test_a_fit_keeps_its_pinned_bits(cfg, epochs_run, sha):
    assert digest(fit_network(series(5, 150), 4, 2, cfg)) == sha


def test_a_diverging_fit_is_still_rejected():
    with pytest.raises(ValueError, match="non-finite weights"):
        fit_network(series(1, 60), 2, 1, DIVERGING)


def in_worker(job):
    """The result of one job trained in the worker process, as a share of one stack of one."""
    conn = neuralnet._connection()
    conn.send([[job]])
    ((result,),) = conn.recv()
    return result


@pytest.mark.parametrize("cfg,epochs_run,sha", PINNED, ids=IDS)
def test_the_worker_gives_the_in_process_bits(cfg, epochs_run, sha):
    model = in_worker((series(5, 150), 4, 2, cfg))
    assert len(model.training_loss) == epochs_run
    assert digest(model) == digest(fit_network(series(5, 150), 4, 2, cfg))


@on_the_recorded_build
@pytest.mark.parametrize("cfg,epochs_run,sha", PINNED, ids=IDS)
def test_the_worker_keeps_the_pinned_bits(cfg, epochs_run, sha):
    assert digest(in_worker((series(5, 150), 4, 2, cfg))) == sha


def test_a_diverging_fit_is_rejected_in_the_worker_too():
    error = in_worker((series(1, 60), 2, 1, DIVERGING))
    assert isinstance(error, ValueError) and str(error) == "non-finite weights"
