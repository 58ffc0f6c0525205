"""Test-only oracle: log_sum_exp as it stood before the buffered kernel.

The shift is frozen at 0 where a slice is all -inf (isfinite + where),
and the exponentials are summed by np.sum along the given axis.  The
kernel in gapsub.logspace must reproduce it bit for bit on [-inf, inf).
The other oracles build on this one, so they stay independent of the
code they check.
"""
from __future__ import annotations

import numpy as np


def log_sum_exp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    a = np.asarray(a, dtype=np.float64)
    hi = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)
    if axis is None:
        return float(out)
    return out
