from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from gapsub import (
    ConfigError,
    ErrorSchedule,
    GapSchedule,
    HiddenMarkovMeasure,
    MarkovMeasure,
    ValidationError,
    sample_trajectory,
    stationary_distribution,
)
from gapsub import measures, steele
from gapsub.steele import (
    Interval,
    ProofContext,
    SteeleDecomposition,
    bad_indicator,
    birkhoff_bad_average,
    first_depths,
    steele_decompose,
    trajectory_context,
    verify_cover_bounds,
    verify_depths,
    verify_ub_rep,
)

import steele_oracle as oracle
from conftest import WORKED_H
from level_oracle import marginal_entropy


def zero_rho(js, m):
    return np.zeros(js.shape)


def const_rho(value):
    return lambda js, m: np.full(js.shape, value)


def linear_f(js, m):
    return np.full(js.shape, -float(m))


def linear_ctx(n, r=10, K=3, limit=-1.0, eps=0.1, sigma=None):
    """f(j, m) = -m: every offset admits depth 1."""
    return ProofContext(
        f=linear_f,
        limit_value=limit,
        sigma=sigma or GapSchedule.zero(),
        r=r,
        K=K,
        eps=eps,
        horizon=n + K * r,
        rho=zero_rho,
    )


def flat_ctx(n, r=3, K=2, limit=-10.0, eps=0.25):
    """f = 0 against a far-below limit: every offset is bad."""
    return ProofContext(
        f=lambda js, m: np.zeros(js.shape),
        limit_value=limit,
        sigma=GapSchedule.zero(),
        r=r,
        K=K,
        eps=eps,
        horizon=n + K * r,
        rho=zero_rho,
    )


def parity_f(js, m):
    return np.where(js % 2 == 0, -float(m), 0.0)


def parity_ctx(n, r=3, K=2, eps=0.5, rho=zero_rho):
    return ProofContext(
        f=parity_f,
        limit_value=-1.0,
        sigma=GapSchedule.zero(),
        r=r,
        K=K,
        eps=eps,
        horizon=n + K * r,
        rho=rho,
    )


# ------------------------------------------------------------- construction


def test_context_parameter_validation():
    ok = dict(
        f=parity_f, limit_value=-1.0, sigma=GapSchedule.zero(), eps=0.5, horizon=100,
        rho=zero_rho,
    )
    with pytest.raises(ConfigError):
        ProofContext(r=0, K=2, **ok)
    with pytest.raises(ConfigError):
        ProofContext(r=3, K=0, **ok)
    with pytest.raises(ConfigError):
        ProofContext(r=3, K=2, **{**ok, "eps": 0.0})
    with pytest.raises(ConfigError):
        ProofContext(r=3, K=2, **{**ok, "limit_value": np.inf})
    with pytest.raises(ConfigError):
        ProofContext(r=3, K=2, **{**ok, "limit_value": np.nan})


def test_nonzero_sigma1_needs_waiver():
    kw = dict(
        f=parity_f,
        limit_value=-1.0,
        sigma=GapSchedule.constant(2),
        r=4,
        K=1,
        eps=0.2,
        horizon=100,
        rho=zero_rho,
    )
    with pytest.raises(ValidationError):
        ProofContext(**kw)
    ctx = ProofContext(assume_shift_monotone=True, **kw)
    assert ctx.sigma_bar == 2
    assert ctx.block_length(1) == 6


def test_the_depth_gaps_are_evaluated_once(monkeypatch):
    """The walk, the cover bounds and the depth audit read sigma_{k r} from one
    sigma.values call on the context, not one scalar call per depth."""
    ctx = linear_ctx(60, limit=-1.0, eps=0.1)
    calls = []
    values = GapSchedule.values

    def spy(self, ns):
        calls.append(np.asarray(ns).tolist())
        return values(self, ns)

    monkeypatch.setattr(GapSchedule, "values", spy)
    d = steele_decompose(ctx, 50)
    assert verify_cover_bounds(d, ctx).ok and verify_depths(d, ctx).ok
    assert calls == [[k * ctx.r for k in range(1, ctx.K + 1)]]


def test_threshold_floor_and_offsets():
    assert linear_ctx(50, limit=-1.0, eps=0.1).threshold == pytest.approx(-0.9)
    # far-below limits are floored at -1/eps before adding eps
    low = linear_ctx(50, limit=-100.0, eps=0.1)
    assert low.threshold == pytest.approx(-9.9)
    ninf = linear_ctx(50, limit=-np.inf, eps=0.5)
    assert ninf.threshold == pytest.approx(-1.5)


def test_block_length_with_log_gaps():
    ctx = ProofContext(
        f=parity_f,
        limit_value=-1.0,
        sigma=GapSchedule("ceil_log"),
        r=3,
        K=2,
        eps=0.5,
        horizon=100,
        rho=zero_rho,
        assume_shift_monotone=True,
    )
    assert ctx.block_length(1) == 3 + 2  # ceil(log2(4)) = 2
    assert ctx.block_length(2) == 6 + 3  # ceil(log2(7)) = 3
    assert ctx.sigma_bar == 3


def test_eval_guards():
    ctx = linear_ctx(20, r=5, K=2)
    assert ctx.horizon == 30
    assert ctx.eval_f([25, 0], 5).tolist() == [-5.0, -5.0]
    with pytest.raises(ConfigError, match=r"f\(26, 5\)"):
        ctx.eval_f([0, 26], 5)
    with pytest.raises(ConfigError):
        ctx.eval_f([-1], 3)
    with pytest.raises(ConfigError):
        ctx.eval_f([0], 0)
    bad_rho = dataclasses.replace(ctx, rho=const_rho(-0.5))
    with pytest.raises(ValidationError):
        bad_rho.eval_rho([0], 5)


@pytest.mark.parametrize("js", [[1.7], ["2"], [True]], ids=["float", "string", "bool"])
def test_offsets_of_a_non_integer_dtype_are_refused(js):
    """A cast would read the offset 1.7 as 1, '2' as 2 and True as 1; an
    empty offset list, float64 to numpy, holds no offset to misread."""
    ctx = linear_ctx(20, r=5, K=2)
    for evaluate in (ctx.eval_f, ctx.eval_rho):
        with pytest.raises(ConfigError, match="offsets must be integers"):
            evaluate(js, 5)
    with pytest.raises(ConfigError, match="offsets must be integers"):
        first_depths(ctx, js)
    assert first_depths(ctx, []).dtype == np.int64 and first_depths(ctx, []).size == 0


def test_rho_shifts_depth_values():
    # threshold -0.5; offset 0 has block values -1 at depths 1 and 2
    assert first_depths(parity_ctx(30), [0, 1]).tolist() == [1, 0]
    # rho = 2 lifts depth 1 to (-3 + 2) / 3 > -0.5, depth 2 stays below
    assert first_depths(parity_ctx(30, rho=const_rho(2.0)), [0, 1]).tolist() == [2, 0]
    assert first_depths(parity_ctx(30), []).tolist() == []


# ------------------------------------------------------------- decomposition


def test_all_good_tiling():
    n = 101
    ctx = linear_ctx(n)
    d = steele_decompose(ctx, n)
    assert len(d.intervals) == 10
    assert all(iv.kind == "good" and iv.k == 1 for iv in d.intervals)
    assert [iv.lo for iv in d.intervals] == list(range(1, 100, 10))
    assert d.covered == 100
    assert d.good_mass == 100 and d.bad_mass == 0
    cb = verify_cover_bounds(d, ctx)
    assert cb.ok and cb.upper_slack == 0 and cb.bad_offset_count == 0
    assert cb.lower_slack == 100 - (n - ctx.K * ctx.r)
    ub = verify_ub_rep(d, ctx)
    assert ub.ok
    assert ub.lhs == -101.0 and ub.rhs == -100.0
    assert verify_depths(d, ctx).ok
    assert birkhoff_bad_average(ctx, n + 1) == 0.0


def test_all_bad_tiling():
    n = 20
    ctx = flat_ctx(n)
    d = steele_decompose(ctx, n)
    assert len(d.intervals) == 6
    assert all(iv.kind == "bad" and iv.k is None for iv in d.intervals)
    assert all(iv.length == 3 for iv in d.intervals)
    assert d.good_mass == 0 and d.covered == 18
    cb = verify_cover_bounds(d, ctx)
    assert cb.ok and cb.bad_offset_count == n + 1
    ub = verify_ub_rep(d, ctx)
    assert ub.ok and ub.residual == 0.0
    assert verify_depths(d, ctx).ok
    # every bad offset contributes 1 + 0_+ + 0
    assert birkhoff_bad_average(ctx, n + 1) == 1.0


def test_alternating_tiling():
    n = 20
    ctx = parity_ctx(n)
    d = steele_decompose(ctx, n)
    kinds = [iv.kind for iv in d.intervals]
    assert kinds == ["good", "bad"] * 3
    assert d.good_mass == 9 and d.bad_mass == 9 and d.covered == 18
    # tiles are contiguous from position 1
    assert d.intervals[0].lo == 1
    for a, b in zip(d.intervals, d.intervals[1:]):
        assert b.lo == a.hi + 1
    cb = verify_cover_bounds(d, ctx)
    assert cb.ok and cb.bad_offset_count == 10
    ub = verify_ub_rep(d, ctx)
    assert ub.ok and ub.lhs == -20.0 and ub.rhs == -9.0
    assert verify_depths(d, ctx).ok
    js = d.to_json()
    assert js["good_mass"] == 9 and len(js["intervals"]) == 6


def test_depth_two_admission():
    # depth 1 block value 0 fails the threshold, depth 2 value -1 passes
    def f(js, m):
        return np.full(js.shape, 0.0 if m < 6 else -float(m))

    ctx = ProofContext(
        f=f, limit_value=-1.0, sigma=GapSchedule.zero(), r=3, K=2, eps=0.5, horizon=40,
        rho=zero_rho,
    )
    d = steele_decompose(ctx, 30)
    assert d.intervals and all(iv.kind == "good" and iv.k == 2 for iv in d.intervals)
    assert all(iv.length == 6 for iv in d.intervals)
    assert verify_depths(d, ctx).ok


def test_gapped_tile_lengths():
    n = 31
    ctx = ProofContext(
        f=linear_f,
        limit_value=-4.0 / 6.0,
        sigma=GapSchedule.constant(2),
        r=4,
        K=1,
        eps=0.2,
        horizon=n + 4,
        rho=zero_rho,
        assume_shift_monotone=True,
    )
    d = steele_decompose(ctx, n)
    assert all(iv.length == 6 for iv in d.intervals)
    assert len(d.intervals) == 5 and d.covered == 30
    assert verify_cover_bounds(d, ctx).ok
    assert verify_depths(d, ctx).ok


def test_decompose_guards_and_degenerate_cases():
    ctx = linear_ctx(50)
    with pytest.raises(ConfigError):
        steele_decompose(ctx, 51)  # horizon only covers 50 + K r
    with pytest.raises(ConfigError):
        steele_decompose(ctx, 0)
    d1 = steele_decompose(ctx, 1)
    assert d1.intervals == () and d1.covered == 0
    small = steele_decompose(ctx, 5)  # first tile (length 10) does not fit
    assert small.intervals == () and small.covered == 0
    assert verify_cover_bounds(small, ctx).upper_ok
    assert verify_ub_rep(small, ctx).ok


# ---------------------------------------------------------------- indicators


def scalar_parity(n, r=3, K=2, eps=0.5, rho=lambda j, m: 0.0):
    return oracle.ScalarContext(
        f=lambda j, m: -float(m) if j % 2 == 0 else 0.0, rho=rho, limit_value=-1.0,
        sigma=GapSchedule.zero(), r=r, K=K, eps=eps, horizon=n + K * r,
    )


def test_bad_indicator_matches_scalar_loop():
    want = oracle.bad_indicator(scalar_parity(40), 30)
    assert (bad_indicator(parity_ctx(40), 30) == want).all()
    assert want[1] and not want[0]


def test_bad_indicator_guards():
    """A count must lie in 1 .. ctx.depths.size, the offsets whose K depths fit."""
    ctx = parity_ctx(20)
    assert ctx.depths.size == ctx.horizon - ctx.K * ctx.r + 1
    assert bad_indicator(ctx, ctx.depths.size).tolist() == (ctx.depths == 0).tolist()
    with pytest.raises(ConfigError):
        bad_indicator(ctx, 0)
    with pytest.raises(ConfigError, match=r"offset count 22 must lie in 1 \.\. 21"):
        bad_indicator(ctx, ctx.horizon - ctx.K * ctx.r + 2)


def test_a_value_at_the_threshold_admits_and_one_offset_is_a_count():
    """Every normalized value ties the threshold 0.5 exactly, so depth 1
    admits at every offset, and a count of 1 reads one offset."""
    ctx = ProofContext(f=lambda js, n: np.full(js.shape, 0.5 * n), limit_value=0.0,
                       sigma=GapSchedule.zero(), r=2, K=1, eps=0.5, horizon=10,
                       rho=lambda js, n: np.zeros(js.shape))
    assert ctx.threshold == 0.5
    assert first_depths(ctx, [0, 1, 5]).tolist() == [1, 1, 1]
    assert bad_indicator(ctx, 1).tolist() == [False]


@pytest.mark.parametrize("value", [-0.5, np.nan, np.inf])
def test_bad_rho_is_rejected_on_every_path(value):
    ctx = parity_ctx(20, rho=const_rho(value))
    with pytest.raises(ValidationError):
        bad_indicator(ctx, 10)
    with pytest.raises(ValidationError):
        birkhoff_bad_average(ctx, 10)
    with pytest.raises(ValidationError):
        steele_decompose(ctx, 20)


# ----------------------------------------------------------- forged evidence


def test_verify_depths_rejects_tampering():
    ctx = parity_ctx(20)
    d = steele_decompose(ctx, 20)
    bad_iv = d.intervals[1]
    forged = dataclasses.replace(
        d, intervals=d.intervals[:1] + (dataclasses.replace(bad_iv, kind="good", k=1),) + d.intervals[2:]
    )
    audit = verify_depths(forged, ctx)
    assert not audit.ok
    assert audit.first_failure[0] == 2
    assert "fails" in audit.first_failure[1]
    good_iv = d.intervals[0]
    forged2 = dataclasses.replace(
        d, intervals=(dataclasses.replace(good_iv, kind="bad", k=None),) + d.intervals[1:]
    )
    audit2 = verify_depths(forged2, ctx)
    assert not audit2.ok and "admits" in audit2.first_failure[1]


@pytest.mark.parametrize("tile, k", [(0, 0), (0, -1), (1, 3), (1, 7)])
def test_verify_depths_reports_a_declared_depth_outside_1_to_K(tile, k):
    # K = 2; tile 0 is good at depth 1, tile 1 is bad
    ctx = parity_ctx(20)
    d = steele_decompose(ctx, 20)
    iv = dataclasses.replace(d.intervals[tile], kind="good", k=k)
    forged = dataclasses.replace(
        d, intervals=d.intervals[:tile] + (iv,) + d.intervals[tile + 1:]
    )
    audit = verify_depths(forged, ctx)
    assert not audit.ok
    assert audit.first_failure == (
        tile + 1, f"declared depth {k} fails at offset {iv.offset}"
    )


def test_cover_bounds_reject_dropped_and_inflated_tiles():
    n = 101
    ctx = linear_ctx(n)
    d = steele_decompose(ctx, n)
    dropped = dataclasses.replace(d, intervals=())
    cb = verify_cover_bounds(dropped, ctx)
    assert cb.upper_ok and not cb.lower_ok and not cb.ok
    fat = Interval(index=1, lo=1, hi=60, kind="good", k=1)
    inflated = dataclasses.replace(d, intervals=(fat, dataclasses.replace(fat, index=2)))
    cb2 = verify_cover_bounds(inflated, ctx)
    assert not cb2.upper_ok and cb2.upper_slack == 100 - 120


def test_ub_rep_detects_impossible_lhs():
    n = 20
    ctx = flat_ctx(n)
    d = steele_decompose(ctx, n)
    cheat = dataclasses.replace(
        ctx, f=lambda js, m: np.where((js == 0) & (m == n), 5.0 * m, 0.0)
    )
    ub = verify_ub_rep(d, cheat)
    assert not ub.ok and ub.residual == pytest.approx(-100.0)


def test_ub_rep_neg_inf_lhs_trivially_ok():
    n = 20
    ctx = flat_ctx(n)
    d = steele_decompose(ctx, n)
    sunk = dataclasses.replace(
        ctx, f=lambda js, m: np.where((js == 0) & (m == n), -np.inf, 0.0)
    )
    ub = verify_ub_rep(d, sunk)
    assert ub.ok and ub.lhs == -np.inf


# ------------------------------------------------------------- trajectories


@pytest.fixture(scope="module")
def worked_path(worked_chain):
    return sample_trajectory(worked_chain, 2400, seed=211)


def make_worked_ctx(x, Q, K, eps=0.05, r=20):
    # log(2.4) bounds log P_ij - log pi_j for this kernel, so it is a
    # valid per-split allowance for window log-marginals
    return trajectory_context(
        x,
        Q,
        rho=ErrorSchedule.constant(math.log(2.4)),
        sigma=GapSchedule.zero(),
        limit_value=-WORKED_H,
        r=r,
        K=K,
        eps=eps,
    )


def test_trajectory_context_evaluates_window_logprobs(worked_path, worked_chain):
    ctx = make_worked_ctx(worked_path, worked_chain, K=5)
    assert ctx.horizon == 2400
    for j, m in ((0, 17), (120, 40), (2300, 100)):
        direct = worked_chain.log_marginal(worked_path.symbols[j : j + m])
        assert abs(ctx.eval_f([j], m)[0] - direct) < 1e-10
    js = np.asarray([0, 7, 1009], dtype=np.int64)
    batch = ctx.f(js, 25)
    for i, j in enumerate(js):
        assert batch[i] == ctx.eval_f([j], 25)[0]


def test_trajectory_decomposition_verifies(worked_path, worked_chain):
    ctx = make_worked_ctx(worked_path, worked_chain, K=5)
    n = 2000
    d = steele_decompose(ctx, n)
    assert d.covered <= n - 1
    assert verify_cover_bounds(d, ctx).ok
    assert verify_ub_rep(d, ctx).ok
    assert verify_depths(d, ctx).ok
    assert d.good_coverage > 0.8


def test_trajectory_bad_average_shrinks_with_depth(worked_path, worked_chain):
    psi = {
        K: birkhoff_bad_average(make_worked_ctx(worked_path, worked_chain, K=K), 2000)
        for K in (5, 10)
    }
    assert 0.0 <= psi[10] < psi[5] < 1.0


def test_a_rho_of_the_offset_goes_straight_into_a_proof_context(worked_path, worked_chain):
    """A rho of the offset as well as n is the context's rho(js, n), next to
    the log-marginal windows; a constant one lays trajectory_context's tiles."""

    def context(rho):
        return ProofContext(
            f=worked_chain.windows(worked_path.symbols).many, rho=rho, limit_value=-WORKED_H,
            sigma=GapSchedule.zero(), r=20, K=3, eps=0.05, horizon=len(worked_path),
            assume_shift_monotone=True,
        )

    ctx = context(lambda js, n: np.full(js.shape, 0.25))
    assert ctx.eval_rho([3, 5], 17).tolist() == [0.25, 0.25]
    d = steele_decompose(ctx, 300)
    assert verify_depths(d, ctx).ok
    assert verify_cover_bounds(d, ctx).ok
    by_schedule = trajectory_context(
        worked_path, worked_chain, rho=ErrorSchedule.constant(0.25), sigma=GapSchedule.zero(),
        limit_value=-WORKED_H, r=20, K=3, eps=0.05,
    )
    assert steele_decompose(by_schedule, 300) == d
    # rho is asked at each offset, with that offset
    asked = []

    def by_offset(js, n):
        asked.append((js.tolist(), n))
        return (js + n).astype(np.float64)

    assert context(by_offset).eval_rho([3, 5], 17).tolist() == [20.0, 22.0]
    assert asked == [([3, 5], 17)]


def test_trajectory_context_refuses_non_integer_symbols(worked_path, worked_chain):
    """The path was cast to int64, which truncated 1.5 to 1."""
    with pytest.raises(ValidationError, match="symbols must be integers"):
        make_worked_ctx(worked_path.symbols + 0.5, worked_chain, K=3)
    ctx = make_worked_ctx(worked_path.symbols.astype(np.int32), worked_chain, K=3)
    assert ctx.horizon == len(worked_path)


def test_trajectory_context_generic_family_fallback(half_half_mixture):
    x = sample_trajectory(half_half_mixture, 160, seed=223)
    # along either component's typical path the normalized mixture
    # log-marginal tends to minus that component's entropy; the two
    # component entropies coincide here
    per_path_limit = 0.9 * math.log(0.9) + 0.1 * math.log(0.1)
    ctx = trajectory_context(
        x,
        half_half_mixture,
        rho=ErrorSchedule.constant(math.log(2.0)),
        sigma=GapSchedule.zero(),
        limit_value=per_path_limit,
        r=10,
        K=3,
        eps=0.1,
    )
    # mixtures evaluate through their windows too, batch and single alike
    js = np.arange(0, 140, 13, dtype=np.int64)
    assert ctx.f(js, 20).tolist() == [ctx.eval_f([j], 20)[0] for j in js]
    d = steele_decompose(ctx, 120)
    assert verify_ub_rep(d, ctx).ok
    assert verify_depths(d, ctx).ok


def test_trajectory_decomposition_on_an_hmm_path_verifies():
    A = np.asarray([[0.7, 0.3], [0.4, 0.6]])
    H = HiddenMarkovMeasure(A, [[0.8, 0.2], [0.3, 0.7]])
    # hidden-kernel decoupling bound max_ij log A(i, j) - log pi(j), and
    # the conditional entropy H(Q_11) - H(Q_10) as the candidate limit
    rho = float(np.max(np.log(A) - np.log(stationary_distribution(A))[None, :]))
    limit = marginal_entropy(H, 10) - marginal_entropy(H, 11)
    n, r, K = 2000, 50, 20
    x = sample_trajectory(H, n + K * r, seed=227)
    ctx = trajectory_context(
        x, H, ErrorSchedule.constant(rho), GapSchedule.zero(), limit, r, K, eps=0.05
    )
    d = steele_decompose(ctx, n)
    assert d.good_intervals
    assert verify_cover_bounds(d, ctx).ok
    assert verify_ub_rep(d, ctx).ok
    assert verify_depths(d, ctx).ok


# ------------------------------------------------------- against the oracle


def _scalar(f, rho=lambda j, m: 0.0, **kw):
    return oracle.ScalarContext(f=f, rho=rho, **kw)


def _synthetic_cases():
    """(scalar oracle context, batch context, horizon n) for the fixed contexts."""
    zero = GapSchedule.zero()
    return {
        "parity": (scalar_parity(40), parity_ctx(40), 40),
        "parity-rho": (
            scalar_parity(40, rho=lambda j, m: 2.0), parity_ctx(40, rho=const_rho(2.0)), 40
        ),
        # a rho with no batch form: the batch context asks it offset by offset
        "parity-scalar-rho": (
            scalar_parity(40, rho=lambda j, m: 0.3),
            scalar_parity(40, rho=lambda j, m: 0.3).batch(),
            40,
        ),
        "linear": (
            _scalar(lambda j, m: -float(m), limit_value=-1.0, sigma=zero, r=10, K=3,
                    eps=0.1, horizon=131),
            linear_ctx(101),
            101,
        ),
        "flat": (
            _scalar(lambda j, m: 0.0, limit_value=-10.0, sigma=zero, r=3, K=2, eps=0.25,
                    horizon=26),
            flat_ctx(20),
            20,
        ),
    }


def _path_case(name, worked_chain, half_half_mixture):
    """(scalar oracle context, trajectory context, horizon n) on a sampled path."""
    hmm = HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]])
    cases = {
        # (measure, rho, sigma, limit, n, r, K, eps, seed)
        "markov": (worked_chain, ErrorSchedule.constant(math.log(2.4)), GapSchedule.zero(),
                   -WORKED_H, 600, 10, 5, 0.05, 211),
        # a rho of the offset: one expression serves the scalar and the batch context
        "markov-hook": (worked_chain, lambda j, n: 0.1 * (j % 3),
                        GapSchedule.zero(), -WORKED_H, 400, 10, 4, 0.05, 212),
        "hmm": (hmm, ErrorSchedule.constant(hmm.kernel_bound(0)), GapSchedule.zero(),
                -0.7, 300, 5, 4, 0.05, 227),
        "mixture": (half_half_mixture, ErrorSchedule.constant(math.log(2.0)),
                    GapSchedule.zero(), 0.9 * math.log(0.9) + 0.1 * math.log(0.1),
                    300, 10, 3, 0.1, 223),
        "markov-tau2": (worked_chain, ErrorSchedule.constant(worked_chain.kernel_bound(2)),
                        GapSchedule.constant(2), -WORKED_H, 600, 10, 5, 0.02, 229),
    }
    Q, rho, sigma, limit, n, r, K, eps, seed = cases[name]
    x = sample_trajectory(Q, n + K * r, seed=seed).symbols
    if isinstance(rho, ErrorSchedule):
        return (
            oracle.scalar_trajectory_context(x, Q, rho, sigma, limit, r, K, eps),
            trajectory_context(x, Q, rho, sigma, limit, r, K, eps),
            n,
        )
    # a rho of the offset goes straight into both contexts, next to the windows
    scalar = oracle.scalar_trajectory_context(x, Q, ErrorSchedule.zero(), sigma, limit, r, K, eps)
    ctx = ProofContext(f=Q.windows(x).many, rho=rho, limit_value=limit, sigma=sigma, r=r, K=K,
                       eps=eps, horizon=x.size, assume_shift_monotone=True)
    return dataclasses.replace(scalar, rho=rho), ctx, n


def _assert_matches_oracle(scalar, ctx, n):
    offsets = np.arange(n + 1)
    want = [oracle.first_depth(scalar, int(j)) for j in offsets]
    assert first_depths(ctx, offsets).tolist() == want
    d = steele_decompose(ctx, n)
    want_d = oracle.steele_decompose(scalar, n)
    assert json.dumps(d.to_json()) == json.dumps(want_d.to_json())
    got_v = oracle.verification(d, ctx, steele)
    want_v = oracle.verification(want_d, scalar, oracle)
    assert json.dumps(got_v) == json.dumps(want_v)
    return want, d


@pytest.mark.parametrize(
    "name", ["parity", "parity-rho", "parity-scalar-rho", "linear", "flat"]
)
def test_synthetic_contexts_match_the_scalar_oracle(name):
    _assert_matches_oracle(*_synthetic_cases()[name])


@pytest.mark.parametrize("name", ["markov", "markov-hook", "hmm", "mixture", "markov-tau2"])
def test_trajectory_contexts_match_the_scalar_oracle(name, worked_chain, half_half_mixture):
    depths, d = _assert_matches_oracle(*_path_case(name, worked_chain, half_half_mixture))
    # every case has good and bad offsets, and the walk lays both kinds
    assert 0 in depths and any(depths)
    assert d.good_intervals and d.bad_intervals


def test_forged_depths_match_the_scalar_oracle():
    scalar, ctx, n = _synthetic_cases()["parity"]
    d = steele_decompose(ctx, n)
    for i, iv in enumerate(d.intervals[:4]):
        for kind, k in (("good", 1), ("good", 2), ("bad", None)):
            forged = dataclasses.replace(
                d, intervals=d.intervals[:i] + (dataclasses.replace(iv, kind=kind, k=k),)
                + d.intervals[i + 1:]
            )
            assert verify_depths(forged, ctx) == oracle.verify_depths(forged, scalar)


# ------------------------------------------------ table walk, per-tile walk


def _zero_step_case():
    """A chain with a zero in P and a path across it: some windows are -inf."""
    Q = MarkovMeasure([[0.5, 0.5, 0.0], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])
    n, r, K = 400, 10, 4
    x = sample_trajectory(Q, n + K * r, seed=233).symbols
    x[[57, 58, 203, 204]] = [0, 2, 0, 2]
    rho, sigma, limit = ErrorSchedule.constant(0.5), GapSchedule.zero(), -0.9
    return (
        oracle.scalar_trajectory_context(x, Q, rho, sigma, limit, r, K, 0.05),
        trajectory_context(x, Q, rho, sigma, limit, r, K, 0.05),
        n,
    )


def _walk_cases(worked_chain, half_half_mixture):
    cases = {name: case[1:] for name, case in _synthetic_cases().items()}
    for name in ["markov", "markov-hook", "hmm", "mixture", "markov-tau2"]:
        cases[name] = _path_case(name, worked_chain, half_half_mixture)[1:]
    cases["zero-step"] = _zero_step_case()[1:]
    cases["shorter-than-a-tile"] = (linear_ctx(50), 5)
    cases["n-1"] = (linear_ctx(50), 1)
    return cases


@pytest.mark.parametrize("name", [
    "parity", "parity-rho", "parity-scalar-rho", "linear", "flat", "markov", "markov-hook",
    "hmm", "mixture", "markov-tau2", "zero-step", "shorter-than-a-tile", "n-1",
])
def test_table_walk_matches_the_per_tile_walk(name, worked_chain, half_half_mixture):
    ctx, n = _walk_cases(worked_chain, half_half_mixture)[name]
    got = steele_decompose(ctx, n)
    assert json.dumps(got.to_json()) == json.dumps(oracle.per_tile_decompose(ctx, n).to_json())
    if name in ("shorter-than-a-tile", "n-1"):
        assert got.intervals == () and got.covered == 0


def test_zero_step_context_matches_the_scalar_oracle():
    scalar, ctx, n = _zero_step_case()
    assert (ctx.f(np.arange(n), ctx.r) == -np.inf).any()
    depths, d = _assert_matches_oracle(scalar, ctx, n)
    assert 0 in depths and d.good_intervals and d.bad_intervals


def test_depth_table_comes_from_the_context_alone():
    """A forged decomposition moves neither B nor the Birkhoff average, and
    counts of any size read one table."""
    scalar, ctx, n = _synthetic_cases()["parity"]
    d = steele_decompose(ctx, n)
    forged = dataclasses.replace(
        d, n=n, intervals=tuple(dataclasses.replace(iv, kind="good", k=1) for iv in d.intervals)
    )
    assert verify_cover_bounds(forged, ctx).bad_offset_count == (
        verify_cover_bounds(d, ctx).bad_offset_count
    )
    assert birkhoff_bad_average(ctx, n) == oracle.birkhoff_bad_average(scalar, n)
    fresh = parity_ctx(40)
    assert bad_indicator(fresh, 5).tolist() == oracle.bad_indicator(scalar, 5).tolist()
    assert bad_indicator(fresh, 30).tolist() == oracle.bad_indicator(scalar, 30).tolist()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.eps = 1.0


@pytest.mark.parametrize("name", ["markov", "hmm"])
def test_depth_table_streams_and_is_built_once(name, worked_chain, half_half_mixture, monkeypatch):
    """ctx.depths walks its offsets in blocks of measures._GATHER_ENTRIES:
    every budget gives the same table, tiles and checks, and the walk, the
    cover count and the Birkhoff average build the table once per context."""
    builds = []

    def counted(ctx, js):
        builds.append(len(js))
        return first_depths(ctx, js)

    monkeypatch.setattr(steele, "first_depths", counted)
    runs = []
    for budget in (1, 7, measures._GATHER_ENTRIES):
        monkeypatch.setattr(measures, "_GATHER_ENTRIES", budget)
        _, ctx, n = _path_case(name, worked_chain, half_half_mixture)
        d = steele_decompose(ctx, n)
        cover, psi = verify_cover_bounds(d, ctx), birkhoff_bad_average(ctx, n)
        assert builds == [ctx.depths.size] == [ctx.horizon - ctx.K * ctx.r + 1]
        checks = [cover.to_json(), verify_ub_rep(d, ctx).to_json(),
                  verify_depths(d, ctx).to_json(), psi]
        runs.append((json.dumps(d.to_json()), json.dumps(checks), ctx.depths.tolist()))
        builds.clear()
    assert runs[0] == runs[1] == runs[2]
    assert checks[0]["ok"] and checks[1]["ok"] and checks[2]["ok"]


def test_ub_rep_adds_tiles_in_order(worked_chain, half_half_mixture):
    """Batching f and rho by base length keeps the tile-order sum on floats."""
    scalar, ctx, n = _path_case("markov-tau2", worked_chain, half_half_mixture)
    d = steele_decompose(ctx, n)
    assert len({iv.k for iv in d.intervals}) > 2  # several base lengths interleave
    assert json.dumps(verify_ub_rep(d, ctx).to_json()) == json.dumps(
        oracle.verify_ub_rep(d, scalar).to_json()
    )
