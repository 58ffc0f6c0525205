"""Test-only oracle: the HMM forward recursion one log_sum_exp per step.

forward is HiddenMarkovMeasure._forward as it stood before the step was
written out on buffers and run in chunks: every step calls the old
log_sum_exp (lse_oracle.py) on a fresh (hidden, hidden, rows) array,
gathers its emission terms, and in table mode takes the totals over
hidden states at once.  The chunked recursion must reproduce its prefix
tables and windows bit for bit.
"""
from __future__ import annotations

import numpy as np

from gapsub import HiddenMarkovMeasure

from lse_oracle import log_sum_exp


def forward(
    Q: HiddenMarkovMeasure, x: np.ndarray, js: np.ndarray, m: int, table: bool = False
) -> np.ndarray:
    """log Q_m of each window x[j : j + m], or with table=True the
    (rows, m) prefix table, nan past the end of x; js must then ascend."""

    def total(alpha: np.ndarray) -> np.ndarray:
        return log_sum_exp(np.ascontiguousarray(alpha.T), axis=1)

    alpha = Q.log_start[:, None] + Q.log_E[:, x[js]]
    out = np.full((js.size, m), np.nan) if table else None
    for t in range(m):
        live = int(np.searchsorted(js, x.size - t)) if table else js.size
        if t:
            moved = log_sum_exp(alpha[:, None, :live] + Q.log_A[:, :, None], axis=0)
            alpha = moved + Q.log_E[:, x[js[:live] + t]]
        if table:
            out[:live, t] = total(alpha)
    return out if table else total(alpha)


def prefix_logprobs(Q: HiddenMarkovMeasure, x: np.ndarray) -> np.ndarray:
    return forward(Q, x, np.zeros(1, dtype=np.int64), x.size, table=True)[0]
