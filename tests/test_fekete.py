from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from gapsub import (
    CapExceededError,
    ConfigError,
    ErrorSchedule,
    FeketeReport,
    GapLiftError,
    GapsubError,
    GapSchedule,
    RealSequence,
    ScheduleRangeError,
    SchemaError,
    ValidationError,
    IIDMeasure,
    MarkovMeasure,
    check_gapped_subadditivity,
    check_trajectory_subadditivity,
    fekete_infimum,
    fekete_limit_estimate,
    gap_lift,
    sample_trajectory,
    schedules,
    validate_measure,
)
from gapsub.fekete import split_scan

from conftest import WORKED_P, table_schedule


# ------------------------------------------------------------ RealSequence


def test_sequence_is_one_indexed_and_evaluated_afresh():
    calls = []

    def fn(ns):
        calls.append(ns.size)
        return ns.astype(float) ** 0.5

    F = RealSequence.from_function(fn)
    v = F.values(np.arange(1, 11))
    assert v[0] == 1.0 and abs(F.value(9) - 3.0) < 1e-15
    F.values(np.arange(1, 6))
    F.values(np.arange(1, 13))
    assert calls == [10, 1, 5, 12]  # no prefix is kept


def test_sequence_rejects_nan_and_plus_inf():
    with pytest.raises(ValidationError):
        RealSequence.from_function(lambda ns: np.full(ns.shape, np.nan)).values(np.arange(1, 4))
    with pytest.raises(ValidationError):
        RealSequence.from_function(lambda ns: np.full(ns.shape, np.inf)).values(np.arange(1, 4))
    # -inf is legal
    F = RealSequence.from_json({"name": "neg_inf_from", "params": {"start": 2}})
    assert F.value(1) == 0.0 and F.value(5) == -np.inf


def test_sequence_non_vectorized_path():
    F = RealSequence.from_function(lambda ns: 2.0 * ns)
    assert F.values(np.arange(1, 5)).tolist() == [2.0, 4.0, 6.0, 8.0]


def test_old_call_shapes_fail_loudly():
    """A horizon is not an index array, a sequence is not called, and a
    function is wrapped by from_function, not passed in place of the rule."""
    F = RealSequence.from_json({"name": "linear"})
    with pytest.raises(ValidationError, match="^sequence 'linear' is evaluated at a 1-d index array"):
        F.values(10)
    with pytest.raises(TypeError):
        F(3)
    with pytest.raises(TypeError):
        RealSequence(lambda ns: 1.0 * ns, name="x")
    assert not hasattr(F, "at") and not hasattr(F, "name")


def test_builtin_families():
    assert RealSequence.from_json({"name": "linear", "params": {"slope": 3.0}}).value(7) == 21.0
    F = RealSequence.from_json(
        {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}
    )
    assert abs(F.value(4) - 16.0) < 1e-12
    assert RealSequence.from_json({"name": "square", "params": {"scale": 1.0}}).value(5) == 25.0
    with pytest.raises(ConfigError):
        RealSequence.from_json({"name": "cubic"})
    with pytest.raises(ConfigError):
        RealSequence.from_json({"params": {}})


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
        RealSequence.from_json(spec, "/sequence")
    assert exc.value.pointer == "/sequence" + pointer


def test_table_sequence_keeps_neg_inf():
    F = RealSequence.from_json({"name": "table", "params": {"values": [1.0, -math.inf]}})
    assert F.values([1, 2]).tolist() == [1.0, -math.inf]


# every closed form with all its params, and F written out with those params
CLOSED_FORMS = {
    "linear": ({"slope": 0.7}, lambda ns: 0.7 * ns.astype(np.float64)),
    "affine_sqrt": ({"slope": 3.0, "sqrt_coeff": -0.3},
                    lambda ns: 3.0 * ns + -0.3 * np.sqrt(ns.astype(np.float64))),
    "sqrt": ({"scale": 1.1}, lambda ns: 1.1 * np.sqrt(ns.astype(np.float64))),
    "neg_nlogn": ({"scale": 0.3}, lambda ns: -0.3 * ns * np.log(ns.astype(np.float64))),
    "square": ({"scale": 0.1}, lambda ns: 0.1 * ns.astype(np.float64) ** 2),
    "log": ({"scale": 2.3}, lambda ns: 2.3 * np.log1p(ns.astype(np.float64))),
    "neg_inf_from": ({"start": 40, "slope": 0.9},
                     lambda ns: np.where(ns >= 40, -np.inf, 0.9 * ns.astype(np.float64))),
}
# the defaults of each closed form's params
DEFAULTS = {
    "linear": {"slope": 1.0}, "affine_sqrt": {"slope": 1.0, "sqrt_coeff": 1.0},
    "sqrt": {"scale": 1.0}, "neg_nlogn": {"scale": 1.0}, "square": {"scale": 1.0},
    "log": {"scale": 1.0}, "neg_inf_from": {"start": 2, "slope": 0.0},
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_each_closed_form_is_its_expression_bit_for_bit(name):
    """F at n = 1 .. 64 has the bytes of its expression with every param
    given, and a spec without params the bytes of one with the defaults."""
    params, expected = CLOSED_FORMS[name]
    F = RealSequence.from_json({"name": name, "params": params})
    ns = np.arange(1, 65, dtype=np.int64)
    assert F.values(ns).tobytes() == expected(ns).tobytes()
    default = RealSequence.from_json({"name": name, "params": DEFAULTS[name]})
    assert RealSequence.from_json({"name": name}).values(ns).tobytes() == default.values(ns).tobytes()


@pytest.mark.parametrize("name", ["table", *sorted(CLOSED_FORMS)])
def test_an_extra_sequence_param_is_refused(name):
    params = {"values": [1.0]} if name == "table" else dict(CLOSED_FORMS[name][0])
    with pytest.raises(SchemaError) as exc:
        RealSequence.from_json({"name": name, "params": {**params, "extra": 1.0}}, "/sequence")
    assert (exc.value.pointer, exc.value.message) == ("/sequence/params/extra", "unknown key")


# ------------------------------------------------------- subadditivity check


def test_subadditive_sequence_has_no_violations():
    F = RealSequence.from_json({"name": "sqrt", "params": {"scale": 2.0}})
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 120)
    assert chk.ok and chk.violation_count == 0 and chk.violations == ()


def test_square_sequence_violations_reported_exactly():
    # n^2 fails plainly: excess at (n, m) is exactly 2 n m
    F = RealSequence.from_json({"name": "square", "params": {"scale": 1.0}})
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 30)
    assert not chk.ok
    first = chk.violations[0]
    assert (first.n, first.m, first.excess) == (1, 1, 2.0)
    for v in chk.violations[:20]:
        assert abs(v.excess - 2.0 * v.n * v.m) < 1e-9


def test_gap_shifts_the_left_side():
    # with sigma = 1 the tested inequality is F_{n+1+m} <= F_n + rho_n + F_m;
    # F = table picked so only the shifted pair (1, 1) fails
    F = table_schedule(RealSequence, [0.0, 0.0, 5.0])
    chk = check_gapped_subadditivity(F, GapSchedule.constant(1), ErrorSchedule.zero(), 3)
    assert chk.violation_count == 1
    v = chk.violations[0]
    assert (v.n, v.m, v.excess) == (1, 1, 5.0)
    # the plain check on the same table sees the (1, 2)/(2, 1) pairs too
    plain = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 3)
    assert plain.violation_count == 2


def test_rho_absorbs_excess():
    F = table_schedule(RealSequence, [0.0, 0.0, 5.0])
    chk = check_gapped_subadditivity(
        F, GapSchedule.constant(1), ErrorSchedule.constant(5.0), 3
    )
    assert chk.ok


def test_neg_inf_left_side_never_violates():
    F = table_schedule(RealSequence, [0.0, 0.0, -np.inf, -np.inf])
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 4)
    assert chk.ok


def test_finite_left_against_neg_inf_right_is_a_violation():
    # F_3 = -inf but F_6 finite: splitting 6 = 3 + 3 must flag +inf excess
    F = table_schedule(RealSequence, [0.0, 0.0, -np.inf, 0.0, 0.0, 1.0])
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 6)
    assert not chk.ok
    assert any(v.n == 3 and v.m == 3 and v.excess == np.inf for v in chk.violations)


@pytest.mark.parametrize("big", [1e300, 1e308])
def test_an_overflowing_subtraction_keeps_its_violation(big):
    """F_3 = -big is finite and F_1 + F_2 = -inf, so (1, 2) violates; at 1e308
    F_3 - F_1 once overflowed to -inf, and -inf - (-inf) hid the pair as a nan."""
    F = table_schedule(RealSequence, [big, -np.inf, -big])
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 3)
    assert chk.violation_count == 2
    assert [(v.n, v.m, v.excess) for v in chk.violations] == [(1, 2, np.inf), (2, 1, np.inf)]


def test_an_overflowing_first_subtraction_is_taken_again():
    """F_3 - F_1 overflows to +inf, but F_3 - (F_1 + F_2) = 5e307 is finite and
    once was reported as +inf; F_2 - 2 F_1 = 3.5e308 is past the float range,
    so (1, 1) keeps +inf.  A row's largest excess follows its recomputed entries."""
    F = table_schedule(RealSequence, [-1e308, 1.5e308, 1e308])
    chk = check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 3)
    assert [(v.n, v.m, v.excess) for v in chk.violations] == [
        (1, 1, np.inf), (1, 2, 5e307), (2, 1, 5e307)]
    pre, zeros = np.asarray([1.5e308, -1e308, 1e308]), np.zeros(3)
    found, total, top = split_scan(pre, lambda j, rows, m: pre[None, :m],
                                   zeros.astype(np.int64), zeros, 1e-12, 10)
    assert [(v.n, v.m, v.excess) for v in found] == [(1, 2, 5e307), (2, 1, 5e307)]
    assert (total, top) == (2, 5e307)


def test_check_cap():
    F = RealSequence.from_json({"name": "sqrt"})
    with pytest.raises(CapExceededError):
        check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 6000)
    chk = check_gapped_subadditivity(
        F, GapSchedule.zero(), ErrorSchedule.zero(), 6000, cap=6000
    )
    assert chk.ok


def test_max_report_truncates_but_counts_all():
    F = RealSequence.from_json({"name": "square"})
    chk = check_gapped_subadditivity(
        F, GapSchedule.zero(), ErrorSchedule.zero(), 40, max_report=7
    )
    assert len(chk.violations) == 7
    assert chk.violation_count > 7


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_a_tol_that_is_not_finite_and_nonnegative_is_refused_first(tol):
    """A nan tol once passed every check: square (N = 10) reported 45
    violations at the default tol and ok at nan, so did a 50-symbol path of
    the worked chain (1,193 violations), and the worked chain started at
    (0.5, 0.5) validated.  Each front end now refuses the tol before it
    evaluates any value or level."""
    square = RealSequence.from_json({"name": "square"})
    zero_gap, zero_rho = GapSchedule.zero(), ErrorSchedule.zero()
    assert check_gapped_subadditivity(square, zero_gap, zero_rho, 10).violation_count == 45
    chain = MarkovMeasure(WORKED_P)
    x = sample_trajectory(chain, 50, seed=1)
    assert check_trajectory_subadditivity(x, chain, zero_rho, zero_gap).violation_count == 1193
    off = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    assert not validate_measure(off).ok
    evaluated = []

    def spy(ns):
        evaluated.append(ns)
        return ns.astype(np.float64)

    class Spy(IIDMeasure):
        def windows(self, x):
            evaluated.append(x)

        def log_marginals_level(self, n, cap=10**7):
            evaluated.append(n)

    runs = [
        lambda: check_gapped_subadditivity(RealSequence.from_function(spy), zero_gap,
                                           zero_rho, 10, tol=tol),
        lambda: check_trajectory_subadditivity(x, Spy([0.5, 0.5]), zero_rho,
                                               GapSchedule.from_function(spy), tol=tol),
        lambda: validate_measure(Spy([0.5, 0.5]), tol=tol),
    ]
    for run in runs:
        with pytest.raises(ConfigError, match=r"^tol must be finite and >= 0$"):
            run()
    assert evaluated == []


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
    F = table_schedule(RealSequence, vals)
    sigma = GapSchedule.constant(gap)
    rho = ErrorSchedule.constant(rho_val)
    N = len(vals)
    chk = check_gapped_subadditivity(F, sigma, rho, N, max_report=10**6)
    ref = _naive_check(vals, [gap] * N, [rho_val] * N, chk.tol)
    got = [(v.n, v.m, v.excess) for v in chk.violations]
    assert got == ref


def test_an_overflowing_sum_points_at_rho():
    """F_n is in range, so an F_n + rho_n that overflows is refused at the pointer
    of rho, the allowance that pushed it over; a rho built in code has none."""
    F = RealSequence.from_json({"name": "linear", "params": {"slope": 1e306}}, "/sequence")
    spec = {"rule": "constant", "params": {"value": 1.7e308}}
    for rho, pointer in ((ErrorSchedule.from_json(spec, "/rho"), "/rho"),
                         (ErrorSchedule.from_json(spec), "")):
        for run in (check_gapped_subadditivity, fekete_infimum):
            with pytest.raises(ScheduleRangeError) as exc:
                run(F, GapSchedule.zero(), rho, 64)
            assert exc.value.pointer == pointer
            assert exc.value.message.startswith("F_n + rho_n of sequence 'linear' gives inf at n = 10;")


# ------------------------------------------------------------------ infimum


def test_infimum_of_linear_sequence_hits_slope_at_one():
    F = RealSequence.from_json({"name": "linear", "params": {"slope": 2.5}})
    rep = fekete_infimum(F, GapSchedule.zero(), ErrorSchedule.zero(), 100)
    assert rep.infimum == 2.5
    assert rep.argmin_n == 1  # first attaining index
    assert rep.limit_proxy == 2.5
    assert rep.gap == 0.0


def test_infimum_with_gaps_matches_direct_formula():
    F = RealSequence.from_json(
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
    F = table_schedule(RealSequence, [0.0, -np.inf, -np.inf])
    rep = fekete_infimum(F, GapSchedule.zero(), ErrorSchedule.zero(), 3)
    assert rep.infimum == -np.inf
    assert rep.argmin_n == 2
    assert rep.limit_proxy == -np.inf
    assert rep.gap == 0.0  # both ends at -inf count as agreeing


def test_limit_estimate_series():
    F = RealSequence.from_json({"name": "linear", "params": {"slope": 1.0}})
    est = fekete_limit_estimate(F, GapSchedule.zero(), ErrorSchedule.zero(), 1000, stride=300)
    assert est.series.ns.tolist() == [300, 600, 900, 1000]
    assert est.series.values.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert est.report.horizon == 1000


# --------------------------------------------------------- blocked infimum

AFFINE_SQRT = {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}


def _whole_array_report(F, sigma, rho, N) -> FeketeReport:
    """The infimum as one pass over n = 1 .. N: the blocks must match it bit for bit."""
    ns = np.arange(1, N + 1, dtype=np.int64)
    Fv = F.values(ns)
    denom = (ns + sigma.values(ns)).astype(np.float64)
    ratios = (Fv + rho.values(ns)) / denom
    i = int(np.argmin(ratios))
    inf_val = float(ratios[i])
    proxy = float(Fv[N - 1] / N)
    gap = 0.0 if inf_val == -np.inf and proxy == -np.inf else abs(proxy - inf_val)
    return FeketeReport(inf_val, i + 1, proxy, float(gap), N)


def _horizons(B: int) -> list[int]:
    return sorted({1, B - 1, B, B + 1, 3 * B + 5} - {0})


@pytest.mark.parametrize("B", [1, 7, 1 << 16])
def test_blocked_infimum_is_the_whole_array_one_bit_for_bit(B, monkeypatch):
    """Every sequence, gap and error family, at block sizes 1, 7 and 2^16 and
    horizons on both sides of one and three block boundaries; the -inf runs
    start inside a block, on a block's last index and on a block's first."""
    monkeypatch.setattr(schedules, "_INDEX_BLOCK", B)
    size = 3 * B + 5
    rng = np.random.default_rng(B)
    sequences = {
        "affine_sqrt": RealSequence.from_json(AFFINE_SQRT),
        "log": RealSequence.from_json({"name": "log", "params": {"scale": 1.5}}),
        "table": table_schedule(RealSequence, np.round(rng.normal(size=size) * 4.0).tolist()),
        **{
            f"neg_inf_from_{start}": RealSequence.from_json(
                {"name": "neg_inf_from", "params": {"start": start, "slope": 0.5}}
            )
            for start in (B // 2 + 2, B, B + 1)
        },
    }
    gaps = {
        "constant": GapSchedule.constant(2),
        "ceil_log": GapSchedule("ceil_log"),
        "ceil_power": GapSchedule("ceil_power", {"alpha": 0.5, "scale": 1.5}),
        "table": table_schedule(GapSchedule, rng.integers(0, 6, size=size).tolist()),
    }
    errors = {
        "constant": ErrorSchedule.constant(0.5),
        "scaled_power": ErrorSchedule("scaled_power", {"alpha": 0.5, "scale": 2.0}),
        "table": table_schedule(ErrorSchedule, rng.uniform(0.0, 3.0, size=size).tolist()),
    }
    lifted = RealSequence.from_json(AFFINE_SQRT)
    for N in _horizons(B):
        for (fname, F), (gname, sigma) in itertools.product(sequences.items(), gaps.items()):
            rhos = {**errors, "gap_lift": gap_lift(lifted, sigma, probe_N=50)}
            for rname, rho in rhos.items():
                got = fekete_infimum(F, sigma, rho, N)
                want = _whole_array_report(F, sigma, rho, N)
                assert repr(got) == repr(want), (fname, gname, rname, N)


@pytest.mark.parametrize("B", [1, 7, 1 << 16])
def test_blocked_infimum_keeps_argmins_rule_across_blocks(B, monkeypatch):
    """A minimum tied at n = B and B + 1, and again in the last block, is
    attained first at B.  A +inf rho, which once made -inf + inf a nan
    ratio in block two, is refused at its first n, as in one pass."""
    monkeypatch.setattr(schedules, "_INDEX_BLOCK", B)
    N = 3 * B + 5
    vals = np.arange(1, N + 1, dtype=np.float64)
    for n in (B, B + 1, 3 * B + 2):
        vals[n - 1] = 0.5 * n
    F = table_schedule(RealSequence, vals.tolist())
    zero_gap, zero_error = GapSchedule.zero(), ErrorSchedule.zero()
    rep = fekete_infimum(F, zero_gap, zero_error, N)
    assert (rep.infimum, rep.argmin_n) == (0.5, B)
    assert repr(rep) == repr(_whole_array_report(F, zero_gap, zero_error, N))

    F = RealSequence.from_json({"name": "neg_inf_from", "params": {"start": 1}})
    rho = ErrorSchedule.from_function(lambda ns: np.where(ns >= B + 2, np.inf, 0.0))
    want = (ScheduleRangeError,
            f"error rule 'function' gives inf at n = {B + 2}; error values must be finite and >= 0")
    assert _raised(lambda: fekete_infimum(F, zero_gap, rho, N)) == want
    assert _raised(lambda: _whole_array_report(F, zero_gap, rho, N)) == want


@pytest.mark.parametrize("B", [1, 7, 1 << 16])
@pytest.mark.parametrize("stride", [None, 7])
def test_limit_series_is_the_prefix_at_the_grid_points(B, stride, monkeypatch):
    monkeypatch.setattr(schedules, "_INDEX_BLOCK", B)
    N = 3 * B + 5
    for spec in (AFFINE_SQRT, {"name": "neg_inf_from", "params": {"start": B + 1}}):
        F = RealSequence.from_json(spec)
        est = fekete_limit_estimate(F, GapSchedule("ceil_log"), ErrorSchedule.constant(50.0), N, stride)
        grid = est.series.ns
        assert grid[-1] == N
        assert est.series.values.tobytes() == (F.values(np.arange(1, N + 1))[grid - 1] / grid).tobytes()


def _raised(call) -> tuple[type, str] | None:
    try:
        call()
    except GapsubError as exc:
        return type(exc), str(exc)
    return None


def _late(bad: float):
    return RealSequence.from_function(lambda ns: np.where(ns == 25, bad, 1.0 * ns))


def _rho_failing_from(n: int) -> ErrorSchedule:
    def fn(ns):
        if ns.max() >= n:
            raise ValidationError(f"rho fails at n >= {n}")
        return np.zeros(ns.shape)

    return ErrorSchedule.from_function(fn)


def test_faults_raise_the_whole_pass_error(monkeypatch):
    """With blocks of 7 and N = 30, every mix of faults raises the exception
    and message of one pass over 1 .. N: F is checked at every n before any
    schedule (a short table at n = 21, a nan or +inf at n = 25), even where
    a schedule fails in an earlier block; sigma comes before rho, even where
    rho fails in an earlier block; and a short schedule table (at n = 21) or
    a value out of range names the first n that fails."""
    monkeypatch.setattr(schedules, "_INDEX_BLOCK", 7)
    N = 30
    Fs = {
        "ok": lambda: RealSequence.from_json(AFFINE_SQRT),
        "short-table": lambda: table_schedule(RealSequence, [1.0] * 20),
        "late-nan": lambda: _late(np.nan),
        "late-plus-inf": lambda: _late(np.inf),
    }
    sigmas = {
        "ok": GapSchedule.constant(1),
        "short-table": table_schedule(GapSchedule, [1] * 20),
        # ceil(scale sqrt(n)) passes 2**62 first at n = 15, in block three
        "too-large-in-block-three": GapSchedule(
            "ceil_power", {"alpha": 0.5, "scale": 2.0**62 / math.sqrt(14.5)}),
    }
    rhos = {
        "ok": ErrorSchedule.zero(),
        "short-table": table_schedule(ErrorSchedule, [1.0] * 20),
        "fails-in-block-two": _rho_failing_from(9),
        "plus-inf-in-block-two": ErrorSchedule.from_function(
            lambda ns: np.where(ns >= 10, np.inf, 0.0)),
    }
    for (fname, F), (sname, sigma), (rname, rho) in itertools.product(
        Fs.items(), sigmas.items(), rhos.items()
    ):
        want = _raised(lambda: _whole_array_report(F(), sigma, rho, N))
        assert (want is None) == (fname == sname == rname == "ok")
        if fname != "ok":
            assert want == _raised(lambda: F().values(np.arange(1, N + 1)))
        if (fname, sname) == ("ok", "short-table"):
            assert want == (ScheduleRangeError, "gap table covers n <= 20, asked for n = 21")
        if (fname, sname) == ("ok", "too-large-in-block-three"):
            assert want[0] is ScheduleRangeError and "at n = 15;" in want[1]
        if (fname, sname, rname) == ("ok", "ok", "plus-inf-in-block-two"):
            assert want[0] is ScheduleRangeError and "gives inf at n = 10;" in want[1]
        for run in (fekete_infimum, fekete_limit_estimate):
            assert _raised(lambda: run(F(), sigma, rho, N)) == want, (fname, sname, rname)


def test_an_overflowing_sum_is_refused_after_f_sigma_and_rho(monkeypatch):
    """With blocks of 7 and N = 30, F_n + rho_n = 1e306 n + 1.7e308 overflows
    from n = 10, in block two; a short gap or error table fails in block
    three, and its error is raised first, as in one pass over 1 .. N."""
    monkeypatch.setattr(schedules, "_INDEX_BLOCK", 7)
    F = RealSequence.from_json({"name": "linear", "params": {"slope": 1e306}})
    sigmas = {"ok": GapSchedule.zero(), "short": table_schedule(GapSchedule, [0] * 20)}
    rhos = {"ok": ErrorSchedule.constant(1.7e308),
            "short": table_schedule(ErrorSchedule, [1.7e308] * 20)}
    want = {
        ("ok", "ok"): "F_n + rho_n of sequence 'linear' gives inf at n = 10; "
                      "F_n + rho_n must lie in [-inf, inf)",
        ("ok", "short"): "error table covers n <= 20, asked for n = 21",
        ("short", "ok"): "gap table covers n <= 20, asked for n = 21",
        ("short", "short"): "gap table covers n <= 20, asked for n = 21",
    }
    for (sname, sigma), (rname, rho) in itertools.product(sigmas.items(), rhos.items()):
        for run in (fekete_infimum, fekete_limit_estimate):
            got = _raised(lambda: run(F, sigma, rho, 30))
            assert got == (ScheduleRangeError, want[sname, rname]), (sname, rname)
    got = _raised(lambda: check_gapped_subadditivity(F, GapSchedule.zero(), rhos["ok"], 30))
    assert got == (ScheduleRangeError, want["ok", "ok"])


@pytest.mark.parametrize("N", [10**6, 4 * 10**6])
def test_limit_estimate_memory_does_not_grow_with_the_horizon(N):
    """One index block at a time: 3.7 MB traced at either horizon, where a
    whole-array pass held about 32 bytes per index (32 MB at 10^6)."""
    F = RealSequence.from_json(AFFINE_SQRT)
    tracemalloc.start()
    try:
        est = fekete_limit_estimate(F, GapSchedule("ceil_log"), ErrorSchedule.constant(50.0), N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.report.argmin_n == N
    assert peak <= 8 * 10**6


# ----------------------------------------------------------------- gap lift


def test_gap_lift_rho_values():
    F = RealSequence.from_json({"name": "sqrt", "params": {"scale": 2.0}})
    sigma = GapSchedule("ceil_log")
    lifted = gap_lift(F, sigma, probe_N=64)
    # rho_n = max(F_{sigma_n}, 0); sigma_5 = ceil(log2 6) = 3 -> 2 sqrt(3)
    assert abs(lifted.value(5) - 2.0 * math.sqrt(3.0)) < 1e-12
    chk = check_gapped_subadditivity(F, sigma, lifted, 300)
    assert chk.ok


def test_gap_lift_at_the_largest_gap_evaluates_f_at_the_gaps_alone():
    """A gap of 2**62 once built F_1 .. F_{2**62} and ended in a numpy ValueError."""
    F = RealSequence.from_json({"name": "sqrt"})
    lifted = gap_lift(F, GapSchedule.constant(2**62), probe_N=32)
    assert lifted.values(np.arange(1, 4)).tolist() == [2.0**31] * 3


def test_gap_lift_zero_gap_gives_zero_rho():
    F = RealSequence.from_json({"name": "sqrt"})
    lifted = gap_lift(F, GapSchedule.zero(), probe_N=32)
    assert lifted.values(np.arange(1, 20)).tolist() == [0.0] * 19


def test_gap_lift_refuses_superadditive_input():
    F = RealSequence.from_json({"name": "square"})
    with pytest.raises(GapLiftError, match=r"\(1, 1\)"):
        gap_lift(F, GapSchedule("ceil_log"), probe_N=50)
