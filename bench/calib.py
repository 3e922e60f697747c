"""The calibration loop that times are scaled by (see run.py).

Imports only ``time``, so that child.py can time the package import in a
fresh interpreter with nothing else loaded.
"""

import time

CALIB_ITERS = 20_000
CALIB_REF_S = 1.0e-3  # the loop's time on the reference machine, uncontended


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter_ns()
    s = 0.0
    for i in range(CALIB_ITERS):
        s += i * 0.5
    return (time.perf_counter_ns() - t0) / 1e9


def speed(before: float, after: float) -> float:
    """Factor that scales a time, from the calibrations around it."""
    return 2 * CALIB_REF_S / (before + after)
