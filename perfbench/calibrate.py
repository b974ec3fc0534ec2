"""CPU-speed reference for normalising the benchmark's times.

On a shared VM the host slows a vCPU by 1.0-1.9x for stretches of tens of
seconds, and at times deschedules it outright, so raw seconds of the same
work differ by a third from one run to the next.  Descheduled time is
left out by taking the smaller of wall and CPU time (CPU time alone would
hide a change that used more cores).  The slowdown is measured by a fixed
kernel, timed in CPU seconds at regular intervals in the process that does
the work; a time multiplied by ``REFERENCE_S / mean kernel time`` is in
seconds at the speed where the kernel takes ``REFERENCE_S``.  The kernel
mixes small numpy scatter-adds and modular reductions with a pure Python
loop, as the library does, and calls nothing in ``pgroupalg``, so a
library change cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.005
_IDX = np.arange(64, dtype=np.int64)


def kernel_seconds() -> tuple[float, float]:
    """(CPU seconds of this thread, wall seconds) of one kernel run."""
    w0, c0 = time.perf_counter(), time.thread_time()
    out = np.zeros(64, dtype=np.int64)
    for k in range(400):
        np.add.at(out, (_IDX * k) % 64, _IDX)
        out %= 5
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    return time.thread_time() - c0, time.perf_counter() - w0


# A sample this many times the median of its process was interrupted
# (a page fault, say) and says nothing about speed.
OUTLIER = 1.5


def speed_factor(samples, all_samples=None) -> float:
    """Factor that turns raw seconds into reference seconds, from the
    samples taken around the work; outliers are judged against
    `all_samples`, the samples of the whole process (default: samples)."""
    cutoff = OUTLIER * statistics.median(all_samples or samples)
    kept = [s for s in samples if s <= cutoff] or samples
    return REFERENCE_S / statistics.mean(kept)


class Sampler:
    """Times the kernel every `every_s` wall seconds from a SIGALRM handler,
    so samples are spread evenly over the work, long items included, and
    once more on exit.  Call `sample()` for a sample at a chosen moment.

    `samples` holds the CPU seconds of each run and `kernel_wall_s` their
    total wall seconds, so callers can take the kernel out of their own
    times.  `on_sample(wall seconds)` lets a tracer do the same.
    """

    def __init__(self, every_s: float, on_sample=None):
        self.every_s = every_s
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.kernel_wall_s = 0.0

    def sample(self) -> float:
        """Take one sample now; returns its wall seconds."""
        cpu, wall = kernel_seconds()
        self.samples.append(cpu)
        self.kernel_wall_s += wall
        return wall

    def _handler(self, signum, frame) -> None:
        wall = self.sample()
        if self.on_sample is not None:
            self.on_sample(wall)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
