from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from gapsub import (
    CapExceededError,
    ConfigError,
    ErrorSchedule,
    GapLiftError,
    GapSchedule,
    RealSequence,
    SchemaError,
    ValidationError,
    check_gapped_subadditivity,
    fekete_infimum,
    fekete_limit_estimate,
    gap_lift,
    sequence_from_spec,
)


def table_seq(vals) -> RealSequence:
    return sequence_from_spec({"name": "table", "params": {"values": list(vals)}})


# ------------------------------------------------------------ RealSequence


def test_sequence_is_one_indexed_and_cached():
    calls = []

    def fn(ns):
        calls.append(ns.size)
        return ns.astype(float) ** 0.5

    F = RealSequence(fn, name="sqrt")
    v = F.values(10)
    assert v[0] == 1.0 and abs(F(9) - 3.0) < 1e-15
    F.values(5)
    assert calls == [10]  # shorter horizon served from cache
    F.values(12)
    assert calls == [10, 12]


def test_sequence_rejects_nan_and_plus_inf():
    with pytest.raises(ValidationError):
        RealSequence(lambda ns: np.full(ns.shape, np.nan)).values(3)
    with pytest.raises(ValidationError):
        RealSequence(lambda ns: np.full(ns.shape, np.inf)).values(3)
    # -inf is legal
    F = sequence_from_spec({"name": "neg_inf_from", "params": {"start": 2}})
    assert F(1) == 0.0 and F(5) == -np.inf


def test_sequence_non_vectorized_path():
    F = RealSequence(lambda ns: 2.0 * ns)
    assert F.values(4).tolist() == [2.0, 4.0, 6.0, 8.0]


def test_builtin_families():
    assert sequence_from_spec({"name": "linear", "params": {"slope": 3.0}})(7) == 21.0
    F = sequence_from_spec(
        {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}
    )
    assert abs(F(4) - 16.0) < 1e-12
    assert sequence_from_spec({"name": "square", "params": {"scale": 1.0}})(5) == 25.0
    with pytest.raises(ConfigError):
        sequence_from_spec({"name": "cubic"})
    with pytest.raises(ConfigError):
        sequence_from_spec({"params": {}})


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"name": "linear", "params": {"slope": "x"}}, "/params/slope"),
        ({"name": "sqrt", "params": {"scale": math.nan}}, "/params/scale"),
        ({"name": "neg_inf_from", "params": {"start": True}}, "/params/start"),
        ({"name": "linear", "params": [1]}, "/params"),
        ({"name": "table", "params": {"values": ["a"]}}, "/params/values/0"),
        ({"name": "table", "params": {"values": [1.0, math.nan]}}, "/params/values/1"),
        ({"name": "table", "params": {"values": []}}, "/params/values"),
        ({"name": "cube"}, "/name"),
        ([1], ""),
    ],
)
def test_sequence_spec_rejections_point_at_the_field(spec, pointer):
    with pytest.raises(SchemaError) as exc:
        sequence_from_spec(spec, "/sequence")
    assert [ptr for ptr, _ in exc.value.problems] == ["/sequence" + pointer]


def test_table_sequence_keeps_neg_inf():
    F = sequence_from_spec({"name": "table", "params": {"values": [1.0, -math.inf]}})
    assert F.values(2).tolist() == [1.0, -math.inf]


# ------------------------------------------------------- subadditivity check


def test_subadditive_sequence_has_no_violations():
    F = sequence_from_spec({"name": "sqrt", "params": {"scale": 2.0}})
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 120)
    assert chk.ok and chk.violation_count == 0 and chk.violations == ()


def test_square_sequence_violations_reported_exactly():
    # n^2 fails plainly: excess at (n, m) is exactly 2 n m
    F = sequence_from_spec({"name": "square", "params": {"scale": 1.0}})
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 30)
    assert not chk.ok
    first = chk.violations[0]
    assert (first.n, first.m, first.excess) == (1, 1, 2.0)
    for v in chk.violations[:20]:
        assert abs(v.excess - 2.0 * v.n * v.m) < 1e-9


def test_gap_shifts_the_left_side():
    # with sigma = 1 the tested inequality is F_{n+1+m} <= F_n + rho_n + F_m;
    # F = table picked so only the shifted pair (1, 1) fails
    F = table_seq([0.0, 0.0, 5.0])
    chk = check_gapped_subadditivity(F, GapSchedule.constant(1), ErrorSchedule.zero(), 3)
    assert chk.violation_count == 1
    v = chk.violations[0]
    assert (v.n, v.m, v.excess) == (1, 1, 5.0)
    # the plain check on the same table sees the (1, 2)/(2, 1) pairs too
    plain = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 3)
    assert plain.violation_count == 2


def test_rho_absorbs_excess():
    F = table_seq([0.0, 0.0, 5.0])
    chk = check_gapped_subadditivity(
        F, GapSchedule.constant(1), ErrorSchedule.constant(5.0), 3
    )
    assert chk.ok


def test_neg_inf_left_side_never_violates():
    F = table_seq([0.0, 0.0, -np.inf, -np.inf])
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 4)
    assert chk.ok


def test_finite_left_against_neg_inf_right_is_a_violation():
    # F_3 = -inf but F_6 finite: splitting 6 = 3 + 3 must flag +inf excess
    F = table_seq([0.0, 0.0, -np.inf, 0.0, 0.0, 1.0])
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 6)
    assert not chk.ok
    assert any(v.n == 3 and v.m == 3 and v.excess == np.inf for v in chk.violations)


def test_check_cap():
    F = sequence_from_spec({"name": "sqrt"})
    with pytest.raises(CapExceededError):
        check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 6000)
    chk = check_gapped_subadditivity(
        F, GapSchedule.zero(), ErrorSchedule.zero(), 6000, cap=6000
    )
    assert chk.ok


def test_max_report_truncates_but_counts_all():
    F = sequence_from_spec({"name": "square"})
    chk = check_gapped_subadditivity(
        F, GapSchedule.zero(), ErrorSchedule.zero(), 40, max_report=7
    )
    assert len(chk.violations) == 7
    assert chk.violation_count > 7


def _naive_check(Fv, sig, rh, tol):
    """Triple-loop reference with the same float expression order."""
    out = []
    N = len(Fv)
    for n in range(1, N + 1):
        base = n + sig[n - 1]
        for m in range(1, N - base + 1):
            lhs = Fv[base + m - 1]
            excess = (lhs - (Fv[n - 1] + rh[n - 1])) - Fv[m - 1]
            if excess > tol:  # nan compares false, matching the vector path
                out.append((n, m, excess))
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-40.0, max_value=40.0),
            st.just(float("-inf")),
        ),
        min_size=4,
        max_size=28,
    ),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([0.0, 0.5]),
)
def test_checker_agrees_with_naive_reference(vals, gap, rho_val):
    F = table_seq(vals)
    sigma = GapSchedule.constant(gap)
    rho = ErrorSchedule.constant(rho_val)
    N = len(vals)
    chk = check_gapped_subadditivity(F, sigma, rho, N, max_report=10**6)
    ref = _naive_check(vals, [gap] * N, [rho_val] * N, chk.tol)
    got = [(v.n, v.m, v.excess) for v in chk.violations]
    assert got == ref


# ------------------------------------------------------------------ infimum


def test_infimum_of_linear_sequence_hits_slope_at_one():
    F = sequence_from_spec({"name": "linear", "params": {"slope": 2.5}})
    rep = fekete_infimum(F, GapSchedule.zero(), ErrorSchedule.zero(), 100)
    assert rep.infimum == 2.5
    assert rep.argmin_n == 1  # first attaining index
    assert rep.limit_proxy == 2.5
    assert rep.gap == 0.0


def test_infimum_with_gaps_matches_direct_formula():
    F = sequence_from_spec(
        {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}
    )
    sigma = GapSchedule("ceil_log")
    lifted = gap_lift(F, sigma, probe_N=100)
    N = 10**4
    rep = fekete_infimum(F, sigma, lifted, N)
    # independent recomputation of min_n (F_n + rho_n) / (n + sigma_n)
    ns = np.arange(1, N + 1, dtype=float)
    sig = np.ceil(np.log2(1.0 + ns))
    rho = np.where(sig >= 1, 3.0 * sig + 2.0 * np.sqrt(sig), 0.0)
    ratios = (3.0 * ns + 2.0 * np.sqrt(ns) + rho) / (ns + sig)
    assert abs(rep.infimum - ratios.min()) < 1e-12
    assert rep.argmin_n == int(np.argmin(ratios)) + 1


def test_infimum_neg_inf_case():
    F = table_seq([0.0, -np.inf, -np.inf])
    rep = fekete_infimum(F, GapSchedule.zero(), ErrorSchedule.zero(), 3)
    assert rep.infimum == -np.inf
    assert rep.argmin_n == 2
    assert rep.limit_proxy == -np.inf
    assert rep.gap == 0.0  # both ends at -inf count as agreeing


def test_limit_estimate_series():
    F = sequence_from_spec({"name": "linear", "params": {"slope": 1.0}})
    est = fekete_limit_estimate(F, GapSchedule.zero(), ErrorSchedule.zero(), 1000, stride=300)
    assert est.series.ns.tolist() == [300, 600, 900, 1000]
    assert est.series.values.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert est.report.horizon == 1000


# ----------------------------------------------------------------- gap lift


def test_gap_lift_rho_values():
    F = sequence_from_spec({"name": "sqrt", "params": {"scale": 2.0}})
    sigma = GapSchedule("ceil_log")
    lifted = gap_lift(F, sigma, probe_N=64)
    # rho_n = max(F_{sigma_n}, 0); sigma_5 = ceil(log2 6) = 3 -> 2 sqrt(3)
    assert abs(lifted.value(5) - 2.0 * math.sqrt(3.0)) < 1e-12
    chk = check_gapped_subadditivity(F, sigma, lifted, 300)
    assert chk.ok


def test_gap_lift_zero_gap_gives_zero_rho():
    F = sequence_from_spec({"name": "sqrt"})
    lifted = gap_lift(F, GapSchedule.zero(), probe_N=32)
    assert lifted.values(np.arange(1, 20)).tolist() == [0.0] * 19


def test_gap_lift_refuses_superadditive_input():
    F = sequence_from_spec({"name": "square"})
    with pytest.raises(GapLiftError, match=r"\(1, 1\)"):
        gap_lift(F, GapSchedule("ceil_log"), probe_N=50)
