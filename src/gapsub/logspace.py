"""Small log-domain helpers used by the measure and estimator code.

Values live in [-inf, inf); -inf encodes probability zero.  +inf never
appears in a valid log-probability, so no helper here produces it from
valid inputs.
"""
from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def safe_log(x: np.ndarray | float) -> np.ndarray | float:
    """Elementwise log with log(0) = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def log_sum_exp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Stable log(sum(exp(a))) along an axis.

    All-(-inf) slices return -inf, not nan.  The max shift keeps the
    exponentials in range for finite inputs.
    """
    a = np.asarray(a, dtype=np.float64)
    hi = np.max(a, axis=axis, keepdims=True)
    # Freeze the shift at 0 where the whole slice is -inf so the
    # subtraction below stays nan-free.
    shift = np.where(np.isfinite(hi), hi, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)
    if axis is None:
        return float(out)
    return out
