"""Machine-speed probe that turns wall time into calibrated seconds.

On a shared virtual machine the same computation can take 30% longer from
one minute to the next, so raw wall times of runs made minutes apart do not
compare. The probe runs a fixed NumPy kernel, independent of the program, at
regular moments during the timed work and records how long it takes. Dividing
a wall time by the kernel's median time over the same interval, and multiplying
by ``REF_SECONDS``, gives the time the work would have taken at the speed at
which the kernel takes ``REF_SECONDS``. The kernel's own time is subtracted
from the work it interrupts.

The probe runs the kernel from a SIGALRM handler, so it adds no thread or
process; Python runs the handler between bytecodes of the main thread.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median time of one ``Kernel()`` call on the machine the benchmark was defined on
# (2 vCPU Intel Xeon VM, numpy 2.4.6); any fixed value would do.
REF_SECONDS = 0.02


class Kernel:
    """Fixed work of the kinds the workloads spend their time on (about 20 ms).

    A third is dense arithmetic like a training epoch (einsum and exp on
    preallocated arrays), a third is many calls on tiny arrays, where the
    per-call overhead dominates as in short training windows and recursive
    forecasts, and a third is a large strided gather with freshly allocated
    index arrays, like the MODWT. These kinds speed up and slow down by
    different factors on a shared machine, so the probe times all three.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((300, 8))
        self.w = rng.standard_normal((20, 4, 8)) * 0.1
        self.hidden = np.empty((20, 300, 4))
        self.grad = np.empty_like(self.w)
        self.small = rng.standard_normal((4, 8))
        self.series = rng.standard_normal(4096)
        self.taps = np.full(64, 1.0 / 64)

    def __call__(self) -> None:
        for _ in range(4):
            np.einsum("rkp,np->rnk", self.w, self.x, out=self.hidden)
            np.negative(self.hidden, out=self.hidden)
            np.exp(self.hidden, out=self.hidden)
            np.einsum("rnk,np->rkp", self.hidden, self.x, out=self.grad)
        window = list(self.series[:8])
        for value in self.series[8:1000]:
            hidden = 1.0 / (1.0 + np.exp(-(self.small @ np.array(window))))
            window.pop(0)
            window.append(float(value + 1e-3 * hidden.sum()))
        n = self.series.size
        for _ in range(4):
            idx = np.mod(np.arange(n)[:, None] - np.arange(self.taps.size)[None, :], n)
            self.series[idx] @ self.taps


class SpeedProbe:
    """Samples the kernel every ``interval`` seconds while active."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.kernel = Kernel()
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def sample(self) -> float:
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.paused += elapsed
        return elapsed

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def calibrated(seconds: float, samples: list[float]) -> float:
    """``seconds`` rescaled to the speed at which the kernel takes REF_SECONDS.

    The median kernel time stands for the speed over the interval, so one
    sample slowed by something else does not move the result.
    """
    return seconds * REF_SECONDS / statistics.median(samples)

