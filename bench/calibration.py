"""Machine-speed calibration for the benchmark's times.

The benchmark runs on shared virtual machines whose speed drifts: for tens
of seconds to minutes at a time the same code runs up to twice as slow, and
the drift is the same for every pure-Python loop on the machine. So a run
times a fixed calibration pass next to every chunk of operations, and
reports each time scaled to a machine on which one pass takes
``NOMINAL_NS``:

    reported = measured * NOMINAL_NS / calibration time next to it

A change to the library moves the measured times and not the calibration
pass, so it moves the reported times by the same factor; a stretch of slow
machine moves both and cancels. The pass is complex arithmetic in plain
Python, the kind of work the library does.
"""

from __future__ import annotations

import cmath
import statistics
from time import perf_counter_ns

# one pass on an idle 2-vCPU VM (Python 3.11); the unit the reported times use
NOMINAL_NS = 200_000
PASSES = 3
# neighbouring calibrations whose median scales a chunk
WINDOW = 5

_POINTS = [cmath.rect(0.5 + 0.001 * k, 0.01 * k) for k in range(300)]
_COEFFS = (0.3, -1.2, 2.5j, 0.7, -0.1j)


def _pass() -> complex:
    acc = 0j
    for z in _POINTS:
        p = 1 + 0j
        for c in _COEFFS:
            p = p * z + c
        acc += p / (abs(p) + 1.0) + cmath.sqrt(p)
    return acc


def calibrate() -> int:
    """Median time (ns) of PASSES calibration passes."""
    times = []
    for _ in range(PASSES):
        t0 = perf_counter_ns()
        _pass()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times)


def factors(calibrations: list[int]) -> list[float]:
    """Scale factor per chunk, from the median of the WINDOW calibrations
    around it, so that one disturbed calibration does not move a chunk."""
    half = WINDOW // 2
    return [
        NOMINAL_NS / statistics.median(calibrations[max(0, i - half):i + half + 1])
        for i in range(len(calibrations))
    ]
