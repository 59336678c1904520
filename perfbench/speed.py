"""Machine speed probe: timings scaled to a reference speed.

On a shared host the same code runs up to about 1.5x faster or slower from
one minute to the next, as other tenants load the cores; process CPU time
slows with wall time, so it does not help.  Medians within a run remove
bursts shorter than the run, not stretches of minutes.  So the benchmark
also times a fixed probe around the work it measures and reports each timing
at the reference speed:

    timing at reference speed = measured timing * REFERENCE_S / probe time

where the probe time is measured just before and just after the timed work.
The probe is written here and does not use the package, so a change to the
package moves the measured timing and not the probe.  It is the package's
kind of work: ML discrepancies of a fixed 9-variable, 2-factor model, that is
small dense linear algebra in numpy driven by a Python loop.  The measured
timings and the speed factors are printed in the report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference speed is the one at which a probe run takes 1 ms.  On the
# shared 2-core host the benchmark was written on (Intel Xeon, Python 3.11,
# numpy 2.4, one BLAS thread) a run took 0.75-1.4 ms.
REFERENCE_S = 1.0e-3
# Probe runs per sample; a sample is their median.
PROBE_RUNS = 5

_P, _K = 9, 2
_LAMBDA = np.zeros((_P, _K))
_LAMBDA[:5, 0] = np.linspace(0.5, 0.8, 5)
_LAMBDA[4:, 1] = np.linspace(0.7, 0.4, 5)
_PHI = np.array([[1.0, 0.3], [0.3, 1.0]])
_S = _LAMBDA @ _PHI @ _LAMBDA.T + 0.5 * np.eye(_P)
_LD_S = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(_S)))))


def _work() -> float:
    """Twenty ML discrepancies of the fixed model along a fixed path."""
    total = 0.0
    for i in range(20):
        lam = _LAMBDA * (1.0 + 0.01 * i)
        sigma = lam @ _PHI @ lam.T + 0.5 * np.eye(_P)
        chol = np.linalg.cholesky(sigma)
        ld_sigma = 2.0 * float(np.sum(np.log(np.diag(chol))))
        trace = float(np.trace(np.linalg.solve(sigma, _S)))
        grad = 0.0
        for a in range(_P):
            for b in range(_K):
                grad += lam[a, b] * sigma[a, a]
        total += ld_sigma - _LD_S + trace - _P + 1e-12 * grad
    return total


def probe_s(runs: int = PROBE_RUNS) -> float:
    """One sample: the median wall clock of ``runs`` probe runs."""
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        _work()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def scale(before: float, after: float) -> float:
    """Factor that takes a timing measured between two probe samples to the
    reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
