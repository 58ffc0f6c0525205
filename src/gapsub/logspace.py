"""Small log-domain helpers used by the measure and estimator code.

Values live in [-inf, inf); -inf encodes probability zero.  +inf never
appears in a valid log-probability, so no helper here produces it from
valid inputs.
"""
from __future__ import annotations

import sys

import numpy as np

NEG_INF = float("-inf")
_NEG_MAX = -sys.float_info.max


def safe_log(x: np.ndarray | float) -> np.ndarray | float:
    """Elementwise log with log(0) = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def log_sum_exp_into(terms: np.ndarray, hi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = log(sum(exp(terms))) over axis 0; terms is overwritten.

    hi and out are separate buffers of shape terms.shape[1:].  The max
    starts at -DBL_MAX, so an all -inf slice gives -inf and a finite max
    is the shift exactly.  log(0) warns unless the caller ignores "divide".
    """
    np.maximum.reduce(terms, axis=0, out=hi, initial=_NEG_MAX)
    np.subtract(terms, hi, out=terms)
    np.exp(terms, out=terms)
    np.add.reduce(terms, axis=0, out=out)
    np.log(out, out=out)
    out += hi
    return out


def log_sum_exp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Stable log(sum(exp(a))) along an axis, for entries in [-inf, inf).

    All-(-inf) and empty slices give -inf quietly; +inf gives nan.  The
    copy keeps a's memory layout, so a slice sums in numpy's order.
    """
    terms = np.array(a, dtype=np.float64)
    terms = terms.ravel(order="K") if axis is None else np.moveaxis(terms, axis, 0)
    hi, out = np.empty(terms.shape[1:]), np.empty(terms.shape[1:])
    with np.errstate(divide="ignore"):
        log_sum_exp_into(terms, hi, out)
    if axis is None:
        return float(out)
    return out
