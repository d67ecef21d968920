"""Host-speed calibration for the benchmark's timings.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, in CPU time as well as wall time, so raw timings of
runs made a few minutes apart differ by far more than a code change would.
The benchmark therefore samples the time of a short fixed task that does
not use gammaproc, right before a timed call, every ``INTERVAL_S`` during
it (from a SIGALRM handler, whose own time is subtracted from the call)
and right after it, and rescales the call's time to a host on which that
task takes ``REFERENCE_S``:

    adjusted = seconds * REFERENCE_S / mean(task samples)

The task mixes the kinds of work gammaproc's hot paths do: creating Philox
generators, scalar numpy draws from the Python loop, and ``%.17g``
formatting.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Task time on an unloaded core of the 2.1 GHz Xeon (2 vCPUs) the benchmark
# was written on; it only sets the scale of adjusted seconds.
REFERENCE_S = 0.001
INTERVAL_S = 0.05


def _task():
    total = 0.0
    for key in range(10):
        gen = np.random.Generator(np.random.Philox(key=key))
        for _ in range(8):
            total += float(gen.gamma(2.0))
    text = ",".join(f"{v:.17g}" for v in gen.gamma(2.0, size=800))
    return total + len(text)


def task_seconds(repeats=5):
    """Median wall time of a few back-to-back runs of the calibration task."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _task()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def adjust(seconds, samples):
    """``seconds`` rescaled to the reference host speed."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


class SpeedSampler:
    """Samples the task time every ``INTERVAL_S`` while the block runs.

    ``samples`` holds the task times; ``overhead_s`` is the time the
    handler took, to be subtracted from the block's time.  Main thread only.
    A disabled sampler takes no samples (the traced run uses one, so that
    no handler time lands in a traced span).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled

    def __enter__(self):
        self.samples = []
        self.overhead_s = 0.0
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _task()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.overhead_s += time.perf_counter() - t0

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False
