"""Test-only oracle: the split scan and the prefix-sum suffix before fusion.

split_scan builds each row's excess in a fresh array and runs the
violation lookup and the max on every row.  prefix_sum_suffix counts the
-inf terms of every suffix, whether or not the path has any.  The blocked
scan and the windows' suffix blocks must reproduce both bit for bit.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from gapsub.fekete import Violation


def split_scan(
    pre: np.ndarray,
    shifted: Callable[[int, int], np.ndarray],
    sig: np.ndarray,
    rh: np.ndarray,
    tol: float,
    max_report: int,
) -> tuple[tuple[Violation, ...], int, float]:
    N = pre.size
    found: list[Violation] = []
    total = 0
    max_excess = -np.inf
    with np.errstate(invalid="ignore"):
        for n in range(1, N + 1):
            j = n + int(sig[n - 1])
            m_max = N - j
            if m_max < 1:
                continue
            excess = pre[j : j + m_max] - (pre[n - 1] + rh[n - 1]) - shifted(j, m_max)
            bad = np.flatnonzero(excess > tol)
            top = float(excess.max())
            if math.isnan(top):  # some pair has -inf on both sides
                defined = excess[~np.isnan(excess)]
                top = float(defined.max()) if defined.size else -np.inf
            max_excess = max(max_excess, top)
            total += bad.size
            for i in bad[: max_report - len(found)]:
                found.append(Violation(n=n, m=int(i) + 1, excess=float(excess[i])))
    return tuple(found), total, float(max_excess)


def prefix_sum_suffix(wl, j: int, m_max: int) -> np.ndarray:
    """The suffix of iid or Markov windows wl, -inf count always taken."""
    cum = wl._cum[j + 1 : j + m_max + 1]
    bad_cum = wl._bad_cum[j + 1 : j + m_max + 1]
    if wl._markov:
        vals = wl._head[j] + cum - wl._cum[j + 1]
        nbad = wl._head_bad[j] + bad_cum - wl._bad_cum[j + 1]
    else:
        vals = cum - wl._cum[j]
        nbad = bad_cum - wl._bad_cum[j]
    return np.where(nbad > 0, -np.inf, vals)
