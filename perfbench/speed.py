"""Machine-speed meter: times a fixed probe kernel all through the run.

On a shared machine the same op can take 1.4 times as long from one
stretch of seconds to the next, because other tenants load the cores. The
meter times a fixed kernel, independent of the package, every ``PERIOD``
seconds (from a ``SIGALRM`` handler, so also in the middle of a long op)
and right before and after each op. An op's wall time divided by the
kernel's slowness over the op's window (mean kernel time over the
kernel's reference time) is the op's time at the reference speed:
stretches of slow machine cancel out, and a slower program still reads
slower.

How much a loaded core slows a piece of code depends on the kind of work,
so each workload probes with a kernel of the kind of work its ops do:
numpy over a 4096-point grid (``vector``), small matrix products in a
Python loop (``matrix``) or scalar Python arithmetic and calls
(``scalar``). The kernels are frozen: they must not follow the package.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD = 0.05  # seconds between samples taken by the timer

_GRID = np.linspace(-1.0, 1.0, 4096)
_GROUND = np.exp(-8.0 * _GRID**2).astype(complex)
_MATRIX = -1j * np.array([[0.1, -0.2], [-0.2, 0.3]], dtype=complex)
_STATES = np.ones((100, 2), dtype=complex) / math.sqrt(2.0)


def vector_kernel() -> float:
    """One time sample of exact two-level evolution and its observables."""
    shift = 0.3 + 0.5 * _GRID
    split = np.hypot(shift, 1.0)
    half = 0.85 * split
    cos_h, sin_h = np.cos(half), np.sin(half)
    phase = np.exp(-0.85j * (2.0 * _GRID**2 + shift))
    ground = phase * (cos_h + 1j * shift / split * sin_h) * _GROUND
    excited = phase * (1j / split * sin_h) * _GROUND
    n_ground, n_excited = np.abs(ground) ** 2, np.abs(excited) ** 2
    return float((n_ground * _GRID).sum() + (n_excited * (_GRID + 0.1)).sum()
                 + (n_ground + n_excited).sum())


def matrix_kernel() -> float:
    """Classical RK4 steps of 100 two-level states, one matmul per stage."""
    y, h = _STATES, 0.01
    for _ in range(12):
        k1 = np.matmul(_MATRIX, y[..., None])[..., 0]
        k2 = np.matmul(_MATRIX, (y + 0.5 * h * k1)[..., None])[..., 0]
        k3 = np.matmul(_MATRIX, (y + 0.5 * h * k2)[..., None])[..., 0]
        k4 = np.matmul(_MATRIX, (y + h * k3)[..., None])[..., 0]
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(np.abs(y).sum())


def _width(sigma_x0: float, sigma_p: float, t: float, mass: float) -> float:
    if t < 0 or not mass > 0:
        raise ValueError("out of domain")
    return math.hypot(sigma_x0, sigma_p * t / mass)


def scalar_kernel() -> float:
    """Bisection on a gap-versus-width equation in scalar Python."""
    total = 0.0
    for i in range(16):
        mass_b = 1.3 + 0.2 * i
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            widths = _width(1.0, 0.3, mid, 1.0) + _width(1.0, 0.3, mid, mass_b)
            if 0.9 * mid - 2.0 * widths >= 0:
                hi = mid
            else:
                lo = mid
        total += hi
    return total


# Kernel, and its time at the reference speed: the 10th percentile of its
# run time on a 2-core Xeon VM (Python 3.11, numpy 2.4).
KERNELS = {
    "vector": (vector_kernel, 0.40e-3),
    "matrix": (matrix_kernel, 0.41e-3),
    "scalar": (scalar_kernel, 0.41e-3),
}


class SpeedMeter:
    """Samples ``(start, seconds)`` of one probe kernel taken during a run."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.reference_s = KERNELS[kind]
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # seconds spent running the kernel
        self._previous = None

    def sample(self, *_) -> None:
        start = perf_counter()
        self.kernel()
        seconds = perf_counter() - start
        self.samples.append((start, seconds))
        self.spent += seconds

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowness(self) -> list[float]:
        return [seconds / self.reference_s for _, seconds in self.samples]

    def timed(self, fn):
        """Run ``fn()`` between two samples. Return its result, its wall time
        without the kernel time inside it, and the machine's slowness over
        the window."""
        self.sample()
        first, spent = len(self.samples), self.spent
        start = perf_counter()
        result = fn()
        end = perf_counter()
        inside = self.spent - spent
        self.sample()
        # The mean, not the median: when the load comes and goes faster than
        # the op, the op is slowed by the load's average.
        window = self.samples[first - 1:]
        slowness = statistics.fmean(seconds for _, seconds in window) / self.reference_s
        return result, end - start - inside, slowness


def slowness_now(kind: str, repeats: int) -> float:
    """Slowness from ``repeats`` back-to-back runs of one kernel."""
    kernel, reference_s = KERNELS[kind]
    start = perf_counter()
    for _ in range(repeats):
        kernel()
    return (perf_counter() - start) / repeats / reference_s
