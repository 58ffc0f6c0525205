from __future__ import annotations

import numpy as np
import pytest
import warnings

from hypothesis import given, strategies as st

from gapsub.logspace import NEG_INF, log_sum_exp, safe_log


def test_safe_log_zero_is_neg_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert safe_log(0.0) == NEG_INF
    out = safe_log(np.array([1.0, 0.0, np.e]))
    assert out[0] == 0.0
    assert out[1] == NEG_INF
    assert abs(out[2] - 1.0) < 1e-15


def test_log_sum_exp_matches_logaddexp_reduce():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=rng.integers(1, 40)) * 10
        ref = np.logaddexp.reduce(a)
        assert abs(log_sum_exp(a) - ref) < 1e-12


def test_log_sum_exp_axis():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 7)) * 3
    ref0 = np.logaddexp.reduce(a, axis=0)
    ref1 = np.logaddexp.reduce(a, axis=1)
    assert np.allclose(log_sum_exp(a, axis=0), ref0, atol=1e-12)
    assert np.allclose(log_sum_exp(a, axis=1), ref1, atol=1e-12)


def test_log_sum_exp_all_neg_inf_slice():
    """An empty-support slice must come back -inf, not nan, and quietly."""
    a = np.array([[NEG_INF, NEG_INF], [0.0, NEG_INF]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_sum_exp(a, axis=1)
    assert out[0] == NEG_INF
    assert abs(out[1] - 0.0) < 1e-15
    assert log_sum_exp(np.array([NEG_INF, NEG_INF])) == NEG_INF


def test_log_sum_exp_huge_values_no_overflow():
    a = np.array([1000.0, 1000.0])
    assert abs(log_sum_exp(a) - (1000.0 + np.log(2.0))) < 1e-12


@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
def test_log_sum_exp_dominates_max(vals):
    a = np.asarray(vals)
    out = log_sum_exp(a)
    assert out >= a.max() - 1e-12
    assert out <= a.max() + np.log(a.size) + 1e-12
