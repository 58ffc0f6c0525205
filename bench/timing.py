"""Reference kernel and the normaliser built on it.

The CPU of a small shared machine can change speed by a large factor from
one minute to the next, so raw seconds do not repeat.  A fixed kernel of
the same kind of work as the program's hot loops (a Python loop over
small numpy calls) is timed right before and right after every
operation, and the operation's wall time T is scaled to
T * (R0 / R) ** e, where R is the mean of those two kernel times, R0 a
constant and e the operation's sensitivity to the speed (e = 1 when it
slows exactly as the kernel does).  A normalised second is then a
second at the speed where the kernel takes R0.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time in the slower, more common of the two speed modes of
# the reference machine (README.md); any constant works, as long as it
# never changes between the runs being compared
R0_S = 0.0068

_CUM = np.cumsum(np.full(4, 0.25))
_LOGS = np.array([-1.0, -2.0, -0.5])
_U = np.random.default_rng(0).random(600).tolist()


def kernel() -> float:
    """One pass of the reference loop; returns a checksum so it is not elided."""
    acc = 0.0
    for u in _U:
        acc += int(min(np.searchsorted(_CUM, u, side="right"), 3))
        hi = _LOGS.max()
        acc += float(np.log(np.exp(_LOGS - hi).sum()) + hi)
    return acc


def kernel_time() -> float:
    """Median of three timed kernel passes, in seconds."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def normalised(wall_s: float, before_s: float, after_s: float, exponent: float) -> float:
    """Wall time scaled to the reference speed, from the adjacent kernel times.

    exponent is the operation's sensitivity to the speed: when the kernel
    slows by a factor f, the operation slows by f ** exponent.
    """
    return wall_s * (R0_S / (0.5 * (before_s + after_s))) ** exponent
