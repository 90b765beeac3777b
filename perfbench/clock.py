"""Host-speed correction for timings taken on a shared machine.

On a shared virtual machine the same code can run 1.5-2x slower for seconds
or minutes at a time while other tenants load the host, and its speed also
changes within a second, which swamps the differences a benchmark must
resolve.  So while a run measures, an interval timer (SIGALRM, every
SAMPLE_PERIOD_S) interrupts the benchmark's thread and runs a short fixed
reference kernel (small numpy reductions plus interpreter work, like the
program's own inner loops), recording how long it took.  The samples are
taken on the thread and core that run the operation, while it runs, so they
follow the host's speed within an operation.

An operation's raw time is its wall time less the time spent in the sampler.
Its corrected time is the raw time scaled by REFERENCE_NOMINAL_S over the
median kernel time sampled during the operation: the time the operation
would take on a host that runs the kernel in REFERENCE_NOMINAL_S.  An
operation shorter than MIN_SAMPLES periods uses the latest MIN_SAMPLES
samples.  The kernel is benchmark code, so a change to the program moves the
corrected times exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
MIN_SAMPLES = 5
# One kernel run on the machine the baseline was measured on, when quiet.
REFERENCE_NOMINAL_S = 0.00015


class Clock:
    def __init__(self) -> None:
        self._matrix = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
        self.samples: list[float] = []  # kernel seconds, in the order taken
        self._spent = 0.0  # seconds spent in the sampler

    def _kernel(self) -> float:
        a = self._matrix
        start = time.perf_counter()
        for _ in range(4):
            step = a[:, :, None] + a[None, :, :]
            m = step.max(axis=0)
            np.log(np.exp(step - m).sum(axis=0)) + m
            table = {}
            for i in range(60):
                table[f"w{i}"] = table.get(f"w{i - 1}", 0) + i
        return time.perf_counter() - start

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append(self._kernel())
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        """Start sampling the host's speed in the background."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """Run fn; return (result, raw seconds, host-corrected seconds)."""
        first, spent = len(self.samples), self._spent
        start = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - start - (self._spent - spent)
        while len(self.samples) < MIN_SAMPLES:  # too few samples so far
            self._sample()
        window = self.samples[first:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        return out, raw, raw * REFERENCE_NOMINAL_S / statistics.median(window)
