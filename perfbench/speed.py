"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over seconds to minutes: one request repeated in one process takes
anywhere from 170 to 320 ms, in CPU time as much as in wall time.  That
drift, not the program, sets the spread of raw timings between runs.

A fixed reference computation of the same kind as the package's hot path (a
bounded Nelder-Mead search over a 2x2 correlated-noise log-det objective,
written here and not taken from the package) slows down with the host.  It
is timed between requests, never inside one.  Each request's raw time is
scaled by ``NOMINAL_S`` over the median probe time around it: the time the
request would have taken on a host where one probe takes ``NOMINAL_S``.  A
slower program raises the scaled time exactly as much as the raw one, as
the probe runs none of the program's code; the host's drift partly cancels.  Over ten seeds per workload on a 2-vCPU Xeon
host, the spread between runs (quartile distance over median) of ``wall_s``
went from 11, 15 and 17% raw to 7, 12 and 4% scaled (certify-cli, region-k3,
etw-k4), and of ``request_tail_ms`` from 9, 14 and 13% to 4, 14 and 10%.
The probe tracks the short certify requests best; a K=3 region search
drifts partly on its own.  ``setup_s`` runs in fresh interpreters and is
not scaled.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np
from scipy.optimize import minimize

#: seconds one probe takes at the reference speed, about its median on a
#: 2-vCPU Intel Xeon host, so that scaled times read close to raw ones there
NOMINAL_S = 16e-3
#: one probe per EVERY_S seconds of requests, at most MAX_BURST at one gap
EVERY_S = 0.5
MAX_BURST = 5
#: unrecorded probes before the first one
WARM = 3
#: a request is scaled by the probes within WINDOW_S of it, at least NEAREST
WINDOW_S = 1.5
NEAREST = 4

_H = np.array([[1.3, 0.4 + 0.5j], [0.7 - 0.2j, 1.1]])
_A = [_H[:1] @ _H[:1].conj().T, _H[:, 1:] @ _H[:, 1:].conj().T]
_B = _H[:1, 1:] @ _H[:1, 1:].conj().T
_STARTS = (np.array([1.2, 0.5]), np.array([0.6, 3.0]))
_BOUNDS = [(1e-3, np.pi / 2), (-2 * np.pi, 4 * np.pi)]
_EVALS = 100


def _logdet(m: np.ndarray) -> float:
    return float(np.linalg.slogdet(m)[1])


def _objective(x: np.ndarray) -> float:
    L = np.eye(2, dtype=complex)
    L[1, 0] = np.exp(1j * x[1]) * np.cos(x[0])
    L[1, 1] = np.sin(x[0])
    sigma = L @ L.conj().T
    np.fill_diagonal(sigma, 1.0)
    return (_logdet(sigma[:1, :1] + _A[0]) + _logdet(sigma + _A[1])
            - _logdet(sigma[:1, :1] + _B) - _logdet(sigma))


def reference() -> float:
    """Seconds for the fixed reference computation."""
    t0 = time.perf_counter()
    for x0 in _STARTS:
        res = minimize(_objective, x0, method="Nelder-Mead", bounds=_BOUNDS,
                       options={"maxfev": _EVALS, "xatol": 1e-12, "fatol": 1e-14})
        if res.nfev != _EVALS:
            raise RuntimeError(f"reference search made {res.nfev} evaluations, not {_EVALS}")
    return time.perf_counter() - t0


class Speed:
    """Probe timings ``(time, seconds)`` taken between requests."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._last = None

    def between_requests(self) -> float:
        """Probe once per EVERY_S seconds since the last probe (at least once
        after EVERY_S, at most MAX_BURST times); returns the seconds spent."""
        now = time.perf_counter()
        if self._last is None:
            for _ in range(WARM):  # the first probes run cold, by up to 60%
                reference()
            n = MAX_BURST
        else:
            n = min(MAX_BURST, int((now - self._last) / EVERY_S))
        for _ in range(n):
            self.samples.append((time.perf_counter(), reference()))
        if n:
            self._last = time.perf_counter()
        return time.perf_counter() - now

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median probe within WINDOW_S of ``[start, end]``
        (or over the NEAREST probes, if fewer were taken there)."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < NEAREST:
            def gap(s):
                return max(start - s[0], s[0] - end, 0.0)
            near = [d for _, d in sorted(self.samples, key=gap)[:NEAREST]]
        return NOMINAL_S / statistics.median(near)
