from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gapsub import (
    CapExceededError,
    ConfigError,
    ErrorSchedule,
    GapSchedule,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    ShiftMeasure,
    ValidationError,
    check_trajectory_subadditivity,
    minimal_decoupling_constants,
    sample_trajectory,
    stationary_distribution,
)

from gapsub import decoupling

from audit_oracle import decoupling_defect, whole_level_audit
from conftest import WORKED_P, WORKED_PI


# --------------------------------------------------------------- the bound


def test_markov_bound_worked_chain(worked_chain):
    """Worst ratio P(i,j)/pi(j) for the worked chain is 0.8/(1/3) = 2.4."""
    c = worked_chain.kernel_bound(0)
    assert abs(c - math.log(2.4)) < 1e-12
    expected = math.log(0.8) - math.log(WORKED_PI[1])
    assert abs(c - expected) < 1e-14


def test_markov_bound_with_gap_uses_the_two_step_kernel(worked_chain):
    c1 = worked_chain.kernel_bound(1)
    P2 = np.linalg.matrix_power(np.asarray(WORKED_P), 2)
    expected = float(
        np.max(np.log(P2) - np.log(np.asarray(WORKED_PI))[None, :])
    )
    assert abs(c1 - expected) < 1e-14
    # mixing brings the kernel closer to pi, so the constant shrinks
    assert c1 < worked_chain.kernel_bound(0)


def test_markov_bound_iid_rows_is_exactly_zero():
    Q = MarkovMeasure(np.tile([0.25, 0.75], (2, 1)))
    assert Q.kernel_bound(0) == 0.0
    assert Q.kernel_bound(3) == 0.0


def test_markov_bound_requires_stationary_positive_start():
    Q = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    with pytest.raises(ValidationError):
        Q.kernel_bound(0)
    with pytest.raises(ConfigError):
        MarkovMeasure(WORKED_P).kernel_bound(-1)
    # a transient state leaves a zero in pi, for a chain and for a hidden chain
    transient = [[0.5, 0.5], [0.0, 1.0]]
    for Q in (MarkovMeasure(transient), HiddenMarkovMeasure(transient, [[0.5, 0.5], [0.1, 0.9]])):
        with pytest.raises(ValidationError, match="pi > 0"):
            Q.kernel_bound(0)
        with pytest.raises(ValidationError):
            MixtureMeasure([Q, IIDMeasure([0.5, 0.5])], [0.5, 0.5]).kernel_bound(0)


def test_kernel_bound_is_exact_for_iid_and_the_half_half_mixture(half_half_mixture):
    # iid is the one-state hidden chain; the mixture adds -log w = log 2
    for tau in range(4):
        assert IIDMeasure([0.7, 0.3, 0.0]).kernel_bound(tau) == 0.0
        assert half_half_mixture.kernel_bound(tau) == math.log(2.0)


def _rows(rng, rows: int, cols: int, zeros: bool) -> list:
    """Random row-stochastic rows; with zeros, some entries (never a whole row) vanish."""
    M = rng.dirichlet(np.ones(cols), size=rows)
    if zeros:
        M[rng.random((rows, cols)) < 0.3] = 0.0
        M[np.arange(rows), rng.integers(cols, size=rows)] += 0.5
        M /= M.sum(axis=1, keepdims=True)
    return M.tolist()


def _random_measure(rng, family: str, h: int, k: int, zeros: bool) -> ShiftMeasure:
    if family == "iid":
        return IIDMeasure(_rows(rng, 1, k, zeros)[0])
    if family == "markov":
        return MarkovMeasure(_rows(rng, k, k, zeros))
    return HiddenMarkovMeasure(_rows(rng, h, h, zeros), _rows(rng, h, k, zeros))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mixture=st.booleans(),
    h=st.integers(1, 3),
    k=st.integers(2, 3),
    tau=st.integers(0, 2),
    n_max=st.integers(1, 4),
    m_max=st.integers(1, 4),
    zeros=st.booleans(),
)
def test_audited_constants_never_exceed_the_kernel_bound(
    seed, mixture, h, k, tau, n_max, m_max, zeros
):
    rng = np.random.default_rng(seed)
    try:
        if mixture:
            families = rng.choice(["iid", "markov", "hmm"], size=2)
            Q = MixtureMeasure(
                [_random_measure(rng, f, h, k, zeros) for f in families],
                rng.dirichlet(np.ones(2)).tolist(),
            )
        else:
            Q = _random_measure(rng, "hmm", h, k, zeros)
        bound = Q.kernel_bound(tau)
    except ValidationError:
        assume(False)  # a reducible chain, or pi with a zero: no bound to test
    rep = minimal_decoupling_constants(Q, n_max, m_max, GapSchedule.constant(tau))
    assert not rep.failed
    assert all(c <= bound + 1e-12 for c in rep.constants)


# ---------------------------------------------------------------- the audit


def test_audit_constants_never_exceed_the_bound(worked_chain):
    rep = minimal_decoupling_constants(worked_chain, 4, 4, GapSchedule.zero())
    bound = worked_chain.kernel_bound(0)
    assert rep.method == "enumeration"
    assert rep.n_values == (1, 2, 3, 4)
    assert all(c <= bound + 1e-12 for c in rep.constants)
    assert max(rep.constants) <= bound + 1e-12
    assert not rep.failed
    # the worst pair must realize its reported defect
    w = rep.worst_pairs[-1]
    d = decoupling_defect(worked_chain, w.a, w.b, 0)
    assert abs(d - w.defect) < 1e-12


def test_audit_matches_per_pair_defects_with_gap(worked_chain):
    """Cross-check the table enumeration against the one-pair routine,
    which sums the gap block out along a different code path."""
    tau = GapSchedule.constant(1)
    rep = minimal_decoupling_constants(worked_chain, 2, 2, tau)
    for n in (1, 2):
        best = -np.inf
        for m in (1, 2):
            for a in itertools.product(range(worked_chain.alphabet.size), repeat=n):
                for b in itertools.product(range(worked_chain.alphabet.size), repeat=m):
                    best = max(best, decoupling_defect(worked_chain, a, b, 1))
        assert abs(rep.constant(n) - best) < 1e-12


def test_iid_product_shortcut_is_exact():
    """An iid measure gets the exact product identity; its chain with
    identical rows, the same law but not an IIDMeasure, is enumerated and
    agrees with 0 to rounding."""
    Q = IIDMeasure([0.3, 0.7])
    rep = minimal_decoupling_constants(Q, 3, 3, GapSchedule.zero())
    assert rep.method == "product-identity"
    assert rep.constants == (0.0, 0.0, 0.0)
    assert rep.worst_pairs == ()
    forced = minimal_decoupling_constants(Q._chain(), 3, 3, GapSchedule.zero())
    assert forced.method == "enumeration"
    assert max(abs(c) for c in forced.constants) < 1e-12


def test_audit_cap():
    Q = IIDMeasure([0.2, 0.3, 0.5])._chain()
    with pytest.raises(CapExceededError):
        minimal_decoupling_constants(Q, 8, 8, GapSchedule.zero(), cap=100)


def _old_word_of_index(idx: int, k: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % k)
        idx //= k
    return tuple(reversed(out))


@pytest.mark.parametrize("k", [2, 3, 32])
def test_word_of_index_is_the_old_digit_loop(k):
    """The word of a flat index, most significant symbol first, as Python
    ints, is what the old base-k digit loop gave, up to the last index."""
    for n in range(1, 5):
        idxs = sorted({*range(min(k**n, 70)), k**n // 2, k**n - 2, k**n - 1})
        for idx in idxs:
            got = decoupling._word_of_index(idx, k, n)
            assert got == _old_word_of_index(idx, k, n)
            assert all(type(s) is int for s in got)


def test_audit_report_json(worked_chain):
    rep = minimal_decoupling_constants(worked_chain, 2, 2, GapSchedule.zero())
    js = rep.to_json()
    assert js["n_values"] == [1, 2]
    assert js["failed"] is False
    assert js["method"] == "enumeration"
    assert len(js["worst_pairs"]) == 2


# ----------------------------------------------------------- defect values


def test_defect_of_iid_pair_vanishes():
    Q = IIDMeasure([0.2, 0.8])
    assert abs(decoupling_defect(Q, [0, 1], [1, 1], 0)) < 1e-12
    assert abs(decoupling_defect(Q, [0], [1], 2)) < 1e-12


def test_mixture_diagonal_defect_matches_hand_formula(half_half_mixture):
    # Q(0^n) = (0.9^n + 0.1^n) / 2, so the defect at (0^n, 0^n) with no
    # gap is log Q(0^{2n}) - 2 log Q(0^n), computable directly
    for n in (1, 2, 4):
        q = lambda m: 0.5 * (0.9**m + 0.1**m)
        expected = math.log(q(2 * n)) - 2.0 * math.log(q(n))
        got = decoupling_defect(half_half_mixture, [0] * n, [0] * n, 0)
        assert abs(got - expected) < 1e-12


def test_defect_needs_positive_halves():
    Q = IIDMeasure([1.0, 0.0])
    with pytest.raises(ValidationError):
        decoupling_defect(Q, [1], [0], 0)
    with pytest.raises(ConfigError):
        decoupling_defect(Q, [0], [0], -1)


# ------------------------------------------------- failure detection path


class _BrokenMeasure(ShiftMeasure):
    """Deliberately inconsistent tables: mass at level 2 sits on words
    whose level-1 halves have none.  Only the audit entry points are
    implemented: level 1 is [0, -inf], every level n >= 2 is uniform.
    A level state is (values, word lengths)."""

    def __init__(self):
        from gapsub import Alphabet

        self.alphabet = Alphabet(2)

    @property
    def label(self) -> str:
        return "broken"

    def log_marginal(self, word) -> float:
        raise NotImplementedError

    def prefix_logprobs(self, x):
        raise NotImplementedError

    def windows(self, x):
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError

    def _sample_rows(self, n, rngs):
        raise NotImplementedError

    def _level_start(self):
        return np.asarray([0.0, -np.inf]), np.ones(2, dtype=np.int64)

    def _level_extend(self, state, steps: int):
        if steps == 0:
            return state
        lengths = np.repeat(state[1], 2**steps) + steps
        return -lengths * math.log(2.0), lengths

    def _level_totals(self, state) -> np.ndarray:
        return state[0]

    def kernel_bound(self, tau: int) -> float:
        raise NotImplementedError


def test_positivity_failure_is_recorded_and_refused():
    rep = minimal_decoupling_constants(_BrokenMeasure(), 1, 1, GapSchedule.zero())
    assert rep.failed
    assert rep.constants == (np.inf,)
    assert rep.positivity_failures
    pf = rep.positivity_failures[0]
    assert pf.a == (0,) and pf.b == (1,)


@pytest.mark.parametrize("budget", [None, 1, 16], ids=["default", "one", "sixteen"])
@pytest.mark.parametrize("tau", [0, 1])
def test_positivity_failures_keep_their_order_and_cap(monkeypatch, tau, budget):
    """27 failures over n, m <= 3 (15 at n = 1, spread over m = 1..3, then
    4 and 8 where b = (1,)): the first 20 are kept, in (n, m, a, b) order,
    however the first blocks are chunked."""
    if budget is not None:
        monkeypatch.setattr(decoupling, "_JOINT_WORDS", budget)
    Q, gap = _BrokenMeasure(), GapSchedule.constant(tau)
    rep = minimal_decoupling_constants(Q, 3, 3, gap)
    assert len(rep.positivity_failures) == 20
    assert [(p.n, p.m) for p in rep.positivity_failures] == (
        [(1, 1)] * 3 + [(1, 2)] * 4 + [(1, 3)] * 8 + [(2, 1)] * 4 + [(3, 1)]
    )
    assert rep.constants == (np.inf,) * 3
    assert json.dumps(rep.to_json()) == json.dumps(whole_level_audit(Q, 3, 3, gap).to_json())


# ------------------------------------------------- trajectory inequalities


def test_trajectory_check_passes_with_the_bound(worked_chain):
    c = worked_chain.kernel_bound(0)
    x = sample_trajectory(worked_chain, 400, seed=101)
    chk = check_trajectory_subadditivity(
        x, worked_chain, ErrorSchedule.constant(c), GapSchedule.zero()
    )
    assert chk.ok and chk.violation_count == 0
    assert chk.max_excess <= 1e-10


def test_trajectory_check_flags_zero_rho(worked_chain):
    # without the decoupling allowance the split at a sticky transition
    # fails: P(0 -> 0) = 0.9 > pi(0) = 2/3
    x = sample_trajectory(worked_chain, 400, seed=101)
    chk = check_trajectory_subadditivity(
        x, worked_chain, ErrorSchedule.zero(), GapSchedule.zero()
    )
    assert not chk.ok
    assert chk.violation_count > 0
    assert chk.max_excess >= math.log(0.9 / WORKED_PI[0]) - 1e-10
    assert chk.max_excess <= math.log(2.4) + 1e-10
    v = chk.violations[0]
    assert v.excess > chk.tol


def test_trajectory_check_with_gap_schedule(worked_chain):
    c1 = worked_chain.kernel_bound(1)
    x = sample_trajectory(worked_chain, 300, seed=103)
    chk = check_trajectory_subadditivity(
        x, worked_chain, ErrorSchedule.constant(c1), GapSchedule.constant(1)
    )
    assert chk.ok


def test_trajectory_check_slow_family_cap(half_half_mixture):
    """A family without prefix-sum windows is checked on the whole path:
    no symbol cap applies."""
    # log 2 = -log(min weight) is a true decoupling constant for a
    # two-component equal mixture
    x = sample_trajectory(half_half_mixture, 650, seed=107)
    chk = check_trajectory_subadditivity(
        x, half_half_mixture, ErrorSchedule.constant(math.log(2.0)), GapSchedule.zero()
    )
    assert chk.ok and chk.horizon == 650


def test_trajectory_check_hmm_with_the_hidden_kernel_bound():
    A = np.asarray([[0.7, 0.3], [0.4, 0.6]])
    H = HiddenMarkovMeasure(A, [[0.8, 0.2], [0.3, 0.7]])
    # conditioning on the hidden state entering the second block:
    # Q(ab) <= max_ij A(i, j) / pi(j) Q(a) Q(b)
    c = float(np.max(np.log(A) - np.log(stationary_distribution(A))[None, :]))
    assert H.kernel_bound(0) == c
    x = sample_trajectory(H, 2000, seed=131)
    chk = check_trajectory_subadditivity(
        x, H, ErrorSchedule.constant(c), GapSchedule.zero()
    )
    assert chk.ok and chk.horizon == 2000
    assert chk.max_excess <= 1e-10


def _naive_trajectory_check(x, Q, tau, tol=1e-10):
    """Every split (n, m) with n + tau + m <= N, one log_marginal per block."""
    N = x.size
    found, max_excess = [], -math.inf
    for n in range(1, N + 1):
        j = n + tau
        for m in range(1, N - j + 1):
            excess = (
                Q.log_marginal(x[: j + m]) - Q.log_marginal(x[:n]) - Q.log_marginal(x[j : j + m])
            )
            max_excess = max(max_excess, excess)
            if excess > tol:
                found.append((n, m, excess))
    return found, max_excess


@pytest.mark.parametrize("family, N, tau", [
    ("markov", 50, 0), ("markov", 50, 1), ("hmm", 36, 0), ("hmm", 36, 1), ("impossible", 40, 0),
])
def test_trajectory_check_matches_the_naive_double_loop(family, N, tau, worked_chain):
    if family == "hmm":
        # a sticky hidden chain, so that splits fail at gap 1 too
        Q = HiddenMarkovMeasure([[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
    elif family == "impossible":
        Q = MarkovMeasure([[0.5, 0.5, 0.0], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])
    else:
        Q = worked_chain
    x = sample_trajectory(Q, N, seed=137).symbols
    if family == "impossible":
        # the step 0 -> 2 has probability 0, so windows across it are -inf
        # and some pairs have -inf on both sides
        x[20:22] = [0, 2]
    found, max_excess = _naive_trajectory_check(x, Q, tau)
    chk = check_trajectory_subadditivity(
        x, Q, ErrorSchedule.zero(), GapSchedule.constant(tau), max_report=40
    )
    assert len(found) > 40  # the report is cut, the count is not
    assert chk.violation_count == len(found)
    assert [(v.n, v.m) for v in chk.violations] == [(n, m) for n, m, _ in found[:40]]
    for v, (_, _, excess) in zip(chk.violations, found):
        assert v.excess == pytest.approx(excess, abs=1e-12)
    assert chk.max_excess == pytest.approx(max_excess, abs=1e-12)


def test_a_long_gap_is_a_cap_refusal_named_as_a_power(worked_chain):
    """2^20000 has over 4300 digits, more than Python turns into text by default."""
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as got:
        decoupling_defect(worked_chain, [0], [1], 20000)
    assert str(got.value) == "gap enumeration needs 2^20000 words"
    with pytest.raises(CapExceededError, match="needs 16777216 words"):
        decoupling_defect(worked_chain, [0], [1], 24)
    assert time.perf_counter() - start < 1.0


def test_trajectory_check_horizon_validation(worked_chain):
    x = sample_trajectory(worked_chain, 50, seed=109)
    with pytest.raises(ConfigError):
        check_trajectory_subadditivity(
            x, worked_chain, ErrorSchedule.zero(), GapSchedule.zero(), N=51
        )


def test_trajectory_check_refuses_a_horizon_above_the_pairwise_cap():
    from gapsub.fekete import PAIRWISE_CAP

    assert PAIRWISE_CAP == 5000
    Q = IIDMeasure([0.5, 0.5])
    x = sample_trajectory(Q, PAIRWISE_CAP + 1, seed=1)
    with pytest.raises(CapExceededError, match="exceeds cap 5000"):
        check_trajectory_subadditivity(x, Q, ErrorSchedule.zero(), GapSchedule.zero())
    # the cap applies to the horizon checked, not to the path length
    chk = check_trajectory_subadditivity(
        x, Q, ErrorSchedule.zero(), GapSchedule.zero(), N=20
    )
    assert chk.horizon == 20


def test_trajectory_check_json(worked_chain):
    x = sample_trajectory(worked_chain, 100, seed=113)
    chk = check_trajectory_subadditivity(
        x, worked_chain, ErrorSchedule.zero(), GapSchedule.zero()
    )
    js = chk.to_json()
    assert js["horizon"] == 100
    assert js["max_excess"] == chk.max_excess
    assert js["violation_count"] >= len(js["violations"])
