"""Machine-speed reference kernel and the normalisation it drives.

The 2-core box this benchmark was built on changes speed by tens of
percent from one second to the next while CPU time stays equal to wall
time: a fixed kernel flips between a fast and a slow level within a
single two-second request, and its per-run median ranged from 0.17 to
0.38 ms over one hour.  No run length averages that away, and a kernel
run only before and after each request samples it too sparsely: over
35 repeats of one identical two-second request, rescaling by that pair
*raised* the spread of its time from 8% to 16% (coefficient of
variation).

So the kernel -- a short pure-Python loop plus a small NumPy loop, using
no ``repro`` code -- is sampled throughout each measured window: once
just before it, every ``INTERVAL_S`` of wall time inside it (from a
``SIGALRM`` handler, so no thread is started), and once just after it.
The window's time, less the time spent in the kernel, is rescaled by
the mean of all its samples::

    normalised = (wall - kernel time) * NOMINAL_KERNEL_MS / mean(samples)

On the same 35 repeats this cut the spread to 3%.  A window that ran
while the machine was 20% slow also saw a 20% slower kernel, so its
normalised time reads as on a machine whose kernel takes exactly
``NOMINAL_KERNEL_MS``.  The kernel is only meaningful on a quiescent
process: a sample taken while any thread besides the main one is alive
fails the window with :class:`KernelGuardError`.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: Kernel time on the reference machine; normalised seconds are seconds
#: on a machine whose kernel takes exactly this long.
NOMINAL_KERNEL_MS = 0.3

#: Wall-clock period of the in-window samples.
INTERVAL_S = 0.025

_MATRIX = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)


class KernelGuardError(RuntimeError):
    """The reference kernel was sampled beside live threads."""


def reference_kernel() -> int:
    """The fixed reference work: no ``repro`` code, no allocation growth."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(600):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
        table[acc & 255] = i
    vector = np.ones(16)
    for _ in range(10):
        vector = np.tanh(_MATRIX @ vector + 0.5)
    return acc + len(table)


def normalise(raw_s: float, kernel_ms: float) -> float:
    """Rescale ``raw_s`` measured at mean kernel time ``kernel_ms``."""
    return raw_s * NOMINAL_KERNEL_MS / kernel_ms


class Window:
    """Timings of one sampled window (filled in when it closes)."""

    def __init__(self) -> None:
        self.wall_s = 0.0  # from just after the first sample to the last
        self.kernel_s = 0.0  # spent in samples taken inside the window
        self.samples_ms: list[float] = []

    @property
    def raw_s(self) -> float:
        """Wall time less the time the in-window samples took."""
        return self.wall_s - self.kernel_s

    @property
    def kernel_ms(self) -> float:
        return statistics.fmean(self.samples_ms)

    @property
    def normalised_s(self) -> float:
        return self.normalise_part(self.wall_s)

    def normalise_part(self, seconds: float) -> float:
        """Normalise an interval measured inside (or around) this window,
        less its pro-rata share of the in-window kernel time."""
        return normalise(seconds * self.raw_s / self.wall_s, self.kernel_ms)


class SpeedSampler:
    """Samples :func:`reference_kernel` across measured windows.

    Owns the process's ``SIGALRM`` handler while it exists; only one
    window may be open at a time.
    """

    def __init__(self) -> None:
        self._window: Window | None = None
        self._violation: str | None = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self, window: Window) -> float:
        alive = threading.active_count()
        if alive != 1:
            self._violation = f"{alive} live threads"
            return 0.0
        started = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - started
        window.samples_ms.append(elapsed * 1e3)
        return elapsed

    def _on_alarm(self, signum: int, frame: object) -> None:
        window = self._window
        if window is not None:
            window.kernel_s += self._sample(window)

    @contextmanager
    def window(self) -> Iterator[Window]:
        """Time the ``with`` body; the kernel samples it throughout."""
        if self._window is not None:
            raise RuntimeError("sampler windows do not nest")
        window = Window()
        self._violation = None
        self._sample(window)
        self._window = window
        started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._window = None
            window.wall_s = time.perf_counter() - started
            self._sample(window)
        if self._violation is not None:
            raise KernelGuardError(
                "reference kernel needs a quiescent process, found "
                + self._violation
            )
