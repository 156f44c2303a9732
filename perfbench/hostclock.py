"""Host-speed calibration.

On a shared host the speed of one core drifts by tens of percent over
seconds while CPU time keeps tracking wall time, so a raw wall-clock
median moves with the neighbours rather than with the code.  Every
timed sample is therefore paired with runs of a fixed calibration kernel
taken during it (or, for set-up, right after it), and reported as

    seconds * REF_CAL_S / calibration_seconds

i.e. as the time the sample would have taken on a host where the kernel
runs in ``REF_CAL_S``.  The kernel mixes the two kinds of work the solver
does: dense matvecs through BLAS and interpreter-bound small-array
arithmetic.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Calibration kernel time on a quiet 2-core x86-64 host, Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31 with one thread.
REF_CAL_S = 0.0012

_rng = np.random.default_rng(12345)
_MAT = _rng.standard_normal((256, 512))
_VEC = _rng.standard_normal(512)
_U = _rng.standard_normal(50)
_W = _rng.standard_normal(50)


def _kernel() -> float:
    t0 = time.perf_counter()
    for _ in range(15):
        _MAT.T @ (_MAT @ _VEC)
    u, w = _U, _W
    for _ in range(150):
        v = u + 0.5 * (u - w)
        w, u = u, v / (1.0 + float(np.linalg.norm(v)))
    return time.perf_counter() - t0


def calibrate(window_s: float = 0.05) -> float:
    """Mean time of one calibration kernel run over at least ``window_s``."""
    runs = []
    while sum(runs) < window_s:
        runs.append(_kernel())
    return sum(runs) / len(runs)


class HostSampler:
    """While entered, runs the calibration kernel from SIGALRM every
    ``period_s`` seconds, so host speed is sampled during a timed pass
    rather than only next to it.  :meth:`clock` excludes the kernel's
    own time."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.samples: list[float] = []
        self._paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(_kernel())
        self._paused += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def __enter__(self) -> "HostSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_since(self, mark: int) -> float:
        """Mean kernel time over the samples taken after ``mark``; a fresh
        calibration when the interval was too short to hold one."""
        recent = self.samples[mark:]
        return sum(recent) / len(recent) if recent else calibrate()


def normalized(seconds: float, cal_s: float) -> float:
    return seconds * REF_CAL_S / cal_s
