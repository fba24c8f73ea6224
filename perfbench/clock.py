"""Timing in reference seconds, for a host whose speed drifts.

On a shared host the speed of this single-threaded process drifts by up to
2x over seconds to tens of seconds while neighbours contend for cores,
caches and memory bandwidth; the process's CPU time drifts with it. Raw wall
times then differ more between runs than the regressions the benchmark must
catch. So while a run measures, a timer interrupts it ten times a second to
run a fixed 2 ms calibration kernel, and every timed operation is scaled by
REFERENCE_S over the mean kernel time sampled around it. The result reads as
seconds on a machine where the kernel takes REFERENCE_S. Kernel time spent
inside an operation is subtracted from it. The kernel mixes the two kinds of
work rarecast does: FFTs and matmuls over a batch, and small Adam-like
updates dispatched from Python. Raw wall times are reported beside the
scaled ones.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

REFERENCE_S = 0.0025
INTERVAL_S = 0.1
MIN_SAMPLES = 10  # an operation shorter than this many samples borrows the latest ones before it


@dataclass
class Timed:
    wall_s: float = 0.0  # wall time minus calibration time spent inside the operation
    factor: float = 1.0  # REFERENCE_S / mean kernel time around the operation

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.factor


class Calibrator:
    """Samples machine speed with SIGALRM while active; use as a context manager in the main thread."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20251017)
        self._x = rng.standard_normal((512, 64))
        self._w = rng.standard_normal((64, 64)) * 0.1
        self._xs = rng.standard_normal((128, 64))
        self._ws = rng.standard_normal((16, 64)) * 0.1
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        for _ in range(5):  # FFT plans and allocator warm-up
            self._kernel()

    def _kernel(self) -> None:
        y = np.tanh(self._x @ self._w)
        np.fft.irfft(np.fft.rfft(y, axis=1), n=y.shape[1], axis=1)
        w = self._ws.copy()
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for _ in range(40):
            g = np.tanh(self._xs @ w.T).T @ self._xs
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w -= 1e-3 * m / (np.sqrt(v) + 1e-8)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_time(self, start: float, end: float) -> float:
        """Calibration time that ran inside [start, end]."""
        i = bisect_left(self.starts, start)
        j = bisect_left(self.starts, end)
        return sum(self.durations[i:j])

    def factor(self, start: float, end: float) -> float:
        j = bisect_left(self.starts, end)
        i = min(bisect_left(self.starts, start), max(j - MIN_SAMPLES, 0))
        window = self.durations[i:j]
        return REFERENCE_S / (sum(window) / len(window))

    @contextmanager
    def timed(self) -> Iterator[Timed]:
        """Time the block in reference seconds."""
        t = Timed()
        start = time.perf_counter()
        try:
            yield t
        finally:
            end = time.perf_counter()
            t.wall_s = end - start - self.kernel_time(start, end)
            t.factor = self.factor(start, end)
