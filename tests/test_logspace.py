from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from hypothesis import given, strategies as st

from gapsub.logspace import NEG_INF, log_sum_exp, log_sum_exp_into, safe_log

import lse_oracle


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


_SHAPES = [(1,), (2,), (9,), (16,), (33,), (3, 9), (16, 4), (9, 16), (2, 3, 9), (16, 1, 5), (4, 9, 2, 3)]


def _layouts(a: np.ndarray):
    """a as C, Fortran, transposed and strided arrays of the same values."""
    yield a
    yield np.asfortranarray(a)
    yield a.T
    yield np.repeat(a, 2, axis=-1)[..., ::2]


@pytest.mark.parametrize("shape", _SHAPES, ids=str)
def test_log_sum_exp_is_bitwise_the_old_body(shape):
    """The buffered kernel against the isfinite + where body, every axis.

    Sums over an axis of 9 or more run numpy's pairwise order, so widths
    9 and 16 check that a slice sums in the same order as before.
    """
    rng = np.random.default_rng(list(shape))
    for scale, dead in itertools.product((1.0, 30.0, 700.0), (0.0, 0.4, 0.95, 1.0)):
        a = rng.normal(size=shape) * scale
        a[rng.random(shape) < dead] = NEG_INF
        if len(shape) > 1:
            a[(0,) * (len(shape) - 1)] = NEG_INF  # one all--inf slice on the last axis
        for b in _layouts(a):
            for axis in [None, *range(b.ndim), -1]:
                got = np.asarray(log_sum_exp(b, axis))
                want = np.asarray(lse_oracle.log_sum_exp(b, axis))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (b.shape, axis)


def test_log_sum_exp_of_nothing_is_neg_inf():
    """An empty sum is probability zero; the old body raised ValueError."""
    assert log_sum_exp(np.array([])) == NEG_INF
    assert log_sum_exp(np.empty((0, 3)), axis=0).tolist() == [NEG_INF] * 3
    assert log_sum_exp(np.empty((3, 0)), axis=1).tolist() == [NEG_INF] * 3
    assert log_sum_exp(np.empty((3, 0)), axis=0).shape == (0,)


def test_log_sum_exp_into_writes_the_callers_buffers():
    terms = np.array([[0.0, NEG_INF], [np.log(3.0), NEG_INF]])
    want = lse_oracle.log_sum_exp(terms, axis=0)
    hi, out = np.empty(2), np.empty(2)
    with np.errstate(divide="ignore"):
        got = log_sum_exp_into(terms, hi, out)
    assert got is out
    assert out.tobytes() == want.tobytes()
    assert out[0] == np.log(4.0) and out[1] == NEG_INF
