"""Test-only oracle: entropies and divergences of one level by enumeration.

marginal_entropy and brute_force_kl_level sum over every word of a level
through Q.log_marginals_level.  They were in the library until nothing
there called them; the tests use them as slow exact cross-checks of the
closed-form rates and of the trajectory estimates at small n.
"""
from __future__ import annotations

import numpy as np

from gapsub import ConfigError, ShiftMeasure


def marginal_entropy(Q: ShiftMeasure, n: int, cap: int = 10**7) -> float:
    """H(Q_n) = -sum_w Q_n(w) log Q_n(w) by enumeration."""
    lv = Q.log_marginals_level(n, cap=cap)
    finite = lv[np.isfinite(lv)]
    return float(-(np.exp(finite) @ finite))


def brute_force_kl_level(
    P: ShiftMeasure, Q: ShiftMeasure, n: int, cap: int = 10**7
) -> float:
    """Exact D(P_n || Q_n) = sum_w P_n(w) log(P_n(w)/Q_n(w)) by enumeration.

    +inf when some word has P-mass but no Q-mass.
    """
    if P.alphabet.size != Q.alphabet.size:
        raise ConfigError("measures must share one alphabet")
    lp = P.log_marginals_level(n, cap=cap)
    lq = Q.log_marginals_level(n, cap=cap)
    support = np.isfinite(lp)
    if (~np.isfinite(lq) & support).any():
        return float("inf")
    p = np.exp(lp[support])
    return float(p @ (lp[support] - lq[support]))
