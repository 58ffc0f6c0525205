from __future__ import annotations

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from gapsub import (
    Alphabet,
    CapExceededError,
    ConfigError,
    ErrorSchedule,
    GapSchedule,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    SchemaError,
    ValidationError,
    check_trajectory_subadditivity,
    kingman_series,
    log_sum_exp,
    measure_from_spec,
    stationary_distribution,
    trajectory_context,
    validate_measure,
)
from gapsub import measures

from conftest import WORKED_P, WORKED_PI, random_measure, random_rows


# ----------------------------------------------------------------- alphabet


def test_alphabet_basics():
    a = Alphabet(3)
    assert a.word_count(4) == 81
    with pytest.raises(ConfigError):
        Alphabet(1)


def test_validate_word():
    a = Alphabet(2)
    w = a.validate_word([0, 1, 0])
    assert w.dtype == np.int64
    with pytest.raises(ValidationError):
        a.validate_word([])
    with pytest.raises(ValidationError):
        a.validate_word([0, 2])
    with pytest.raises(ValidationError):
        a.validate_word([[0, 1]])


@pytest.mark.parametrize("word", [[0.5, 1.9, 1.2], [0.0, 1.0], ["0", "1"], [True, False]])
def test_a_word_of_non_integers_is_refused(worked_chain, word):
    """A cast to int64 read [0.5, 1.9, 1.2] as [0, 1, 1] and '1' as 1."""
    with pytest.raises(ValidationError, match="symbols must be integers"):
        worked_chain.prefix_logprobs(word)


def test_paths_of_non_integers_are_refused():
    Q = IIDMeasure([0.5, 0.5])
    with pytest.raises(ValidationError, match="symbols must be integers, not float64"):
        Q.log_increments(np.asarray([[0.0, 1.0], [1.7, 0.0]]))
    with pytest.raises(ValidationError, match="nonempty 2-d"):
        Q.log_increments(np.zeros((3, 0)))
    with pytest.raises(ValidationError, match="nonempty 1-d"):
        Alphabet(2).validate_word([])
    for dtype in (np.int8, np.uint16, np.int32):
        w = Alphabet(2).validate_paths(np.asarray([[0, 1], [1, 1]], dtype=dtype))
        assert w.dtype == np.int64 and w.tolist() == [[0, 1], [1, 1]]


_HMM = {"family": "hmm", "A": [[0.8, 0.2], [0.3, 0.7]], "E": [[0.6, 0.4], [0.1, 0.9]]}
_CHAIN = {"family": "markov", "P": WORKED_P}
_ONE_CHECK_MEASURES = {
    "iid": {"family": "iid", "p": [0.3, 0.7]},
    "markov": _CHAIN,
    "hmm": _HMM,
    "mixture": {"family": "mixture", "components": [_HMM, _CHAIN], "weights": [0.4, 0.6]},
}


@pytest.mark.parametrize("family", list(_ONE_CHECK_MEASURES))
def test_every_evaluation_checks_its_path_once(family, monkeypatch):
    """Each evaluation of an array path runs the symbol check once.  The
    families checked again inside (a Markov or mixture windows, each
    component of a mixture), and so did trajectory_context before
    Q.windows, up to 5 checks per call."""
    Q = measure_from_spec(_ONE_CHECK_MEASURES[family])
    x = np.random.default_rng(3).integers(0, 2, 60)
    rho, sigma = ErrorSchedule.constant(40.0), GapSchedule.zero()
    calls = []
    check = measures.checked_symbols

    def spy(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(measures, "checked_symbols", spy)
    evaluations = {
        "prefix_logprobs": lambda: Q.prefix_logprobs(x),
        "log_increments": lambda: Q.log_increments(x),
        "windows": lambda: Q.windows(x),
        "kingman_series": lambda: kingman_series(x, Q),
        "check_trajectory_subadditivity": lambda: check_trajectory_subadditivity(x, Q, rho, sigma),
        "trajectory_context": lambda: trajectory_context(x, Q, rho, sigma, -0.5, 5, 2, 0.1),
    }
    counts = {}
    for name, evaluate in evaluations.items():
        calls.clear()
        evaluate()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(evaluations, 1)


# ------------------------------------------------------- input validation


def test_bad_matrices_rejected():
    with pytest.raises(ValidationError):
        MarkovMeasure([[0.9, 0.2], [0.2, 0.8]])  # row sums off
    with pytest.raises(ValidationError):
        MarkovMeasure([[1.1, -0.1], [0.5, 0.5]])  # negative entry
    with pytest.raises(ValidationError):
        MarkovMeasure([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])  # not square
    with pytest.raises(ValidationError):
        MarkovMeasure(None)
    with pytest.raises(ValidationError):
        MarkovMeasure([["a", "b"], ["c", "d"]])
    with pytest.raises(ValidationError):
        IIDMeasure([0.5, 0.6])


# ------------------------------------------------------------- stationarity


def test_stationary_distribution_worked_chain():
    pi = stationary_distribution(np.asarray(WORKED_P))
    assert np.abs(pi - np.asarray(WORKED_PI)).max() < 1e-12


def test_stationary_distribution_periodic_chain():
    # period-2 chain still has the unique invariant law (1/2, 1/2)
    pi = stationary_distribution(np.asarray([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(pi - 0.5).max() < 1e-12


def test_stationary_distribution_reducible_rejected():
    with pytest.raises(ValidationError, match="reducible"):
        stationary_distribution(np.eye(2))


def test_stationary_distribution_refuses_a_candidate_that_fails_its_residual():
    with pytest.raises(ValidationError, match="not a stationary law") as got:
        stationary_distribution(np.asarray(WORKED_P), tol=-1.0, field="/A")
    assert got.value.pointer == "/A"


def test_stationary_distribution_checks_raw_input_at_its_pointer():
    with pytest.raises(ValidationError) as got:
        stationary_distribution([[0.5, 0.6], [0.5, 0.5]], field="/A")
    assert got.value.pointer == "/A/0"
    with pytest.raises(ValidationError) as got:
        stationary_distribution([[0.5, 0.5]])
    assert got.value.pointer == "/P"


@pytest.mark.parametrize("build", [
    lambda: MarkovMeasure(WORKED_P),
    lambda: HiddenMarkovMeasure(WORKED_P, [[0.3, 0.7], [0.6, 0.4]]),
], ids=["markov", "hmm"])
def test_each_matrix_is_checked_once(monkeypatch, build):
    """The default start solves for the stationary law on the matrix the
    constructor has already checked, with the same bits as the public solver."""
    seen, check = [], measures._check_stochastic

    def counted(raw, field, *args, **kwargs):
        seen.append(field)
        return check(raw, field, *args, **kwargs)

    monkeypatch.setattr(measures, "_check_stochastic", counted)
    Q = build()
    assert sorted(seen) == sorted(set(seen))
    monkeypatch.undo()
    matrix = Q.P if isinstance(Q, MarkovMeasure) else Q.A
    assert Q.start.tobytes() == stationary_distribution(matrix).tobytes()


# --------------------------------------------------------------------- iid


def test_iid_log_marginal_is_product():
    Q = IIDMeasure([0.2, 0.3, 0.5])
    w = [0, 2, 2, 1]
    expected = math.log(0.2) + 2 * math.log(0.5) + math.log(0.3)
    assert abs(Q.log_marginal(w) - expected) < 1e-12
    assert Q.label == "iid(k=3)"


def test_iid_zero_prob_symbol():
    Q = IIDMeasure([1.0, 0.0])
    assert Q.log_marginal([0, 0]) == 0.0
    assert Q.log_marginal([0, 1]) == -np.inf


def test_iid_level_enumeration_matches_loop():
    Q = IIDMeasure([0.25, 0.75])
    lv = Q.log_marginals_level(3)
    by_hand = [
        Q.log_marginal(np.asarray(w))
        for w in itertools.product(range(Q.alphabet.size), repeat=3)
    ]
    assert np.abs(lv - np.asarray(by_hand)).max() < 1e-12
    assert abs(np.exp(log_sum_exp(lv)) - 1.0) < 1e-12


def test_level_cap():
    Q = IIDMeasure([0.5, 0.5])
    with pytest.raises(CapExceededError):
        Q.log_marginals_level(10, cap=100)
    # 2^(10^6) has over 4300 digits, more than Python turns into text by
    # default; the refusal names it as a power and never builds it
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as got:
        Q.log_marginals_level(10**6)
    assert str(got.value) == "level 1000000 needs 2^1000000 words, cap is 10000000"
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------ markov


def test_markov_log_marginal_by_hand(worked_chain):
    w = [0, 0, 1, 1, 0]
    expected = (
        math.log(2 / 3)
        + math.log(0.9)
        + math.log(0.1)
        + math.log(0.8)
        + math.log(0.2)
    )
    assert abs(worked_chain.log_marginal(w) - expected) < 1e-12
    incs = worked_chain.log_increments(np.asarray(w))
    assert abs(incs.sum() - expected) < 1e-12
    assert worked_chain.stationary_start


@pytest.mark.parametrize("entries", [1, 3, 7, measures._GATHER_ENTRIES])
def test_markov_increments_gather_in_column_blocks(monkeypatch, entries):
    """Any block of columns gives the whole-path gather bit for bit, for
    rows and for one path, with zero transitions and a zero start mass."""
    Q = MarkovMeasure([[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]], start=[0.0, 0.5, 0.5])
    x = np.random.default_rng(3).integers(0, 3, (4, 23))
    monkeypatch.setattr(measures, "_GATHER_ENTRIES", entries)
    for w in (x, x[0], x[:, :1], x[:, :2], x[1:2]):
        want = np.empty(w.shape)
        want[..., 0] = Q.log_start[w[..., 0]]
        want[..., 1:] = Q.log_P.ravel()[w[..., :-1] * 3 + w[..., 1:]]
        assert Q.log_increments(w).tobytes() == want.tobytes()


def test_markov_increments_hold_no_whole_path_temporary(worked_chain):
    """The output is 8 MB at 10^6 symbols; a whole-path index array and
    gathered copy took the traced peak to 24 MB."""
    x = np.random.default_rng(4).integers(0, 2, 10**6)
    tracemalloc.start()
    try:
        worked_chain.log_increments(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_markov_level_enumeration_matches_loop(worked_chain):
    lv = worked_chain.log_marginals_level(4)
    by_hand = [
        worked_chain.log_marginal(np.asarray(w))
        for w in itertools.product(range(worked_chain.alphabet.size), repeat=4)
    ]
    assert np.abs(lv - np.asarray(by_hand)).max() < 1e-12


def test_markov_explicit_start():
    Q = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    assert not Q.stationary_start
    assert "non-invariant" in Q.label
    assert abs(Q.log_marginal([1]) - math.log(0.5)) < 1e-15
    # passing the stationary law explicitly is detected as stationary
    R = MarkovMeasure([[0.5, 0.5], [0.5, 0.5]], start=[0.5, 0.5])
    assert R.stationary_start


def test_markov_forbidden_transition():
    Q = MarkovMeasure([[1.0, 0.0], [0.5, 0.5]], start=[0.5, 0.5])
    assert Q.log_marginal([0, 1]) == -np.inf
    assert Q.log_marginal([1, 0, 0]) == math.log(0.5) + math.log(0.5) + 0.0


# --------------------------------------------------------------------- hmm


def test_hmm_with_identity_emissions_equals_chain(worked_chain):
    H = HiddenMarkovMeasure(WORKED_P, np.eye(2))
    for w in ([0], [0, 1, 1], [1, 0, 0, 1, 0]):
        assert abs(H.log_marginal(w) - worked_chain.log_marginal(w)) < 1e-12


def test_hmm_with_uniform_emissions_is_iid_uniform():
    # whatever the hidden path does, observations are fair coin flips
    H = HiddenMarkovMeasure(WORKED_P, [[0.5, 0.5], [0.5, 0.5]])
    for n in (1, 3, 6):
        w = [0] * n
        assert abs(H.log_marginal(w) + n * math.log(2.0)) < 1e-12
    lv = H.log_marginals_level(3)
    assert np.abs(lv + 3 * math.log(2.0)).max() < 1e-12


def test_hmm_level_matches_loop():
    A = [[0.7, 0.3], [0.4, 0.6]]
    E = [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]]
    H = HiddenMarkovMeasure(A, E)
    lv = H.log_marginals_level(3)
    by_hand = [
        H.log_marginal(np.asarray(w))
        for w in itertools.product(range(H.alphabet.size), repeat=3)
    ]
    assert np.abs(lv - np.asarray(by_hand)).max() < 1e-12


def test_hmm_shape_validation():
    with pytest.raises(ValidationError):
        HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[1.0], [1.0], [1.0]])


def test_hmm_level_cap_counts_hidden_states():
    H = HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]])
    with pytest.raises(CapExceededError):
        H.log_marginals_level(4, cap=20)
    # 16 words times 2 hidden states
    assert H.log_marginals_level(4, cap=32).size == 16
    with pytest.raises(CapExceededError, match="level 4 needs 16 words of 2 floats, cap is 31"):
        H.log_marginals_level(4, cap=31)


def test_mixture_level_cap_counts_every_component():
    """Two 2-state HMMs hold 4 floats per word: level 4 is 64 floats, not 32."""
    H = HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]])
    M = MixtureMeasure([H, H], [0.5, 0.5])
    with pytest.raises(CapExceededError, match="level 4 needs 16 words of 4 floats, cap is 32"):
        M.log_marginals_level(4, cap=32)
    assert sum(s.size for s in M._level_state(4)) == 64
    assert M.log_marginals_level(4, cap=64).size == 16


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["iid", "markov", "hmm", "mixture"]),
    h=st.integers(1, 3),
    k=st.integers(2, 3),
    n=st.integers(1, 5),
    cap=st.integers(0, 1000),
)
def test_level_cap_counts_the_floats_of_a_level_state(seed, family, h, k, n, cap):
    """_guard_level(n, cap) refuses iff k^n * _level_floats > cap, for iid,
    chains, HMMs with h <= 3 and mixtures of the three families."""
    rng = np.random.default_rng(seed)
    try:
        if family == "mixture":
            Q = MixtureMeasure(
                [random_measure(rng, f, h, k, False) for f in ("iid", "markov", "hmm")],
                rng.dirichlet(np.ones(3)).tolist(),
            )
        else:
            Q = random_measure(rng, family, h, k, False)
    except ValidationError:
        assume(False)  # a reducible chain has no unique stationary law
    floats = {"iid": 1, "markov": 1, "hmm": h, "mixture": 2 + h}[family]
    assert Q._level_floats == floats
    try:
        Q._guard_level(n, cap)
    except CapExceededError as exc:
        assert k**n * floats > cap
        of = "" if floats == 1 else f" of {floats} floats"
        assert str(exc) == f"level {n} needs {k**n} words{of}, cap is {cap}"
    else:
        assert k**n * floats <= cap


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["iid", "markov", "hmm", "mixture"]),
    h=st.integers(1, 3),
    k=st.integers(2, 3),
    n=st.integers(1, 40),
)
def test_many_is_the_suffix_rows_column_bit_for_bit(seed, family, h, k, n):
    """many(js, m) and column m - 1 of suffix_rows are one window formula, for
    iid, chains, HMMs with h <= 3 and mixtures of the three.  Zero entries
    and a path drawn uniformly put -inf terms in most windows of a chain."""
    rng = np.random.default_rng(seed)
    try:
        if family == "mixture":
            Q = MixtureMeasure(
                [random_measure(rng, f, h, k, True) for f in ("iid", "markov", "hmm")],
                rng.dirichlet(np.ones(3)).tolist(),
            )
        else:
            Q = random_measure(rng, family, h, k, True)
    except ValidationError:
        assume(False)  # a reducible chain has no unique stationary law
    wl = Q.windows(rng.integers(k, size=n))
    rows = wl.suffix_rows(0, n, n)
    for m in range(1, n + 1):
        js = np.arange(n - m + 1)
        assert wl.many(js, m).tobytes() == rows[js, m - 1].tobytes()


# ----------------------------------------------------------------- mixture


def test_mixture_log_marginal_is_weighted(half_half_mixture):
    w = [0, 0, 1]
    c1, c2 = half_half_mixture.components
    expected = np.logaddexp(
        math.log(0.5) + c1.log_marginal(w), math.log(0.5) + c2.log_marginal(w)
    )
    assert abs(half_half_mixture.log_marginal(w) - expected) < 1e-12
    assert "iid(k=2)" in half_half_mixture.label


def test_mixture_of_identical_components_collapses():
    base = IIDMeasure([0.3, 0.7])
    mix = MixtureMeasure([IIDMeasure([0.3, 0.7]), IIDMeasure([0.3, 0.7])], [0.4, 0.6])
    for w in ([0], [1, 1, 0]):
        assert abs(mix.log_marginal(w) - base.log_marginal(w)) < 1e-12


def test_mixture_validation():
    with pytest.raises(ConfigError):
        MixtureMeasure([IIDMeasure([0.5, 0.5])], [1.0])
    with pytest.raises(ValidationError):
        MixtureMeasure(
            [IIDMeasure([0.5, 0.5]), IIDMeasure([0.3, 0.3, 0.4])], [0.5, 0.5]
        )
    with pytest.raises(ValidationError):
        MixtureMeasure(
            [IIDMeasure([0.5, 0.5]), IIDMeasure([0.4, 0.6])], [1.0, 0.0]
        )


# ------------------------------------------------------------ hidden chain


def test_the_hidden_chain_of_each_family():
    """iid is one state emitting p, a Markov chain A = P with E = I built only
    when read, an HMM its own (A, E), and a mixture its components' records
    with its weights, whose dense form is built only when read."""
    iid = IIDMeasure([0.2, 0.8])._hidden()
    assert (iid.start.tolist(), iid.A.tolist(), iid.E.tolist()) == ([1.0], [[1.0]], [[0.2, 0.8]])
    assert (iid.stationary, iid.field) == (True, "/p")
    start, P = iid.symbol_chain()  # one row, which stands for every row
    assert (start.tolist(), P.tolist()) == ([0.2, 0.8], [[0.2, 0.8]])
    chain = MarkovMeasure(WORKED_P)
    r = chain._hidden()
    assert r.A is chain.P and r.start is chain.start and (r.stationary, r.field) == (True, "/P")
    start, P = r.symbol_chain()
    assert start is chain.start and P is chain.P
    assert "E" not in vars(r) and np.array_equal(r.E, np.eye(2))
    off = MarkovMeasure(WORKED_P, start=[0.5, 0.5])._hidden()
    assert (off.stationary, off.field) == (False, "/start")
    hmm = HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
    r = hmm._hidden()
    assert r.A is hmm.A and r.E is hmm.E and r.field == "/A"
    mix = MixtureMeasure([IIDMeasure([0.5, 0.5]), chain], [0.25, 0.75])
    r = mix._hidden()
    assert [w for w, _ in r.parts] == mix.weights.tolist()
    assert "dense" not in vars(r) and r.start is None and r.symbol_chain() is None
    d = r.dense
    assert d.A.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.9, 0.1], [0.0, 0.2, 0.8]]
    assert d.E.tolist() == [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]
    assert np.abs(d.start - [0.25, 0.75 * WORKED_PI[0], 0.75 * WORKED_PI[1]]).max() < 1e-15


def _forward_level(chain, n: int) -> np.ndarray:
    """log Q_n of every word, base-k and most significant symbol first, by a
    plain log-space forward pass over the chain's one-chain form."""
    d = chain.dense
    with np.errstate(divide="ignore"):
        log_A, log_E, log_start = np.log(d.A), np.log(d.E), np.log(d.start)
    alpha = log_start[None, :] + log_E.T  # (words, hidden states)
    for _ in range(n - 1):
        moved = np.logaddexp.reduce(alpha[:, :, None] + log_A[None], axis=1)
        alpha = (moved[:, None, :] + log_E.T[None]).reshape(-1, len(log_A))
    return np.logaddexp.reduce(alpha, axis=1)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["iid", "markov", "hmm", "mixture"]),
    h=st.integers(1, 3),
    k=st.integers(2, 3),
    zeros=st.booleans(),
)
def test_every_hidden_chain_reproduces_its_measure(seed, family, h, k, zeros):
    """A forward pass over _hidden() gives log_marginals_level(n) for n <= 6:
    chains with zeros, HMMs with h <= 3, and mixtures of all three families."""
    rng = np.random.default_rng(seed)
    try:
        if family == "mixture":
            Q = MixtureMeasure(
                [random_measure(rng, f, h, k, zeros) for f in ("iid", "markov", "hmm")],
                rng.dirichlet(np.ones(3)).tolist(),
            )
        else:
            Q = random_measure(rng, family, h, k, zeros)
    except ValidationError:
        assume(False)  # a reducible chain has no unique stationary law
    for n in range(1, 7):
        got, want = _forward_level(Q._hidden(), n), Q.log_marginals_level(n)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= 1e-12


def test_identity_emissions_and_one_hidden_state_have_their_chains_rates():
    """An HMM with E = I has the rates of its MarkovMeasure, and an HMM with one
    hidden state those of its IIDMeasure, bit for bit, on either side of a
    rate; another HMM, a non-invariant start and a mixture have none."""
    rng = np.random.default_rng(36)
    checked = 0
    for k in (2, 3, 4):
        for zeros in (False, True, True):
            P, p = random_rows(rng, k, k, zeros), random_rows(rng, 1, k, zeros)[0]
            try:
                chain = MarkovMeasure(P)
            except ValidationError:
                continue  # reducible
            others = (MarkovMeasure(random_rows(rng, k, k, False)), IIDMeasure(p), chain)
            for H, M in ((HiddenMarkovMeasure(P, np.eye(k)), chain),
                         (HiddenMarkovMeasure([[1.0]], [p]), IIDMeasure(p))):
                assert M.entropy_rate() is not None
                assert H.entropy_rate() == M.entropy_rate()
                for R in others:
                    assert H.cross_entropy_rate(R) == M.cross_entropy_rate(R)
                    assert R.cross_entropy_rate(H) == R.cross_entropy_rate(M)
                    assert H.kl_rate(R) == M.kl_rate(R) and R.kl_rate(H) == R.kl_rate(M)
                checked += 1
    assert checked >= 8
    start = [0.5, 0.5]
    assert HiddenMarkovMeasure(WORKED_P, np.eye(2), start).entropy_rate() is None
    assert MarkovMeasure(WORKED_P, start).entropy_rate() is None
    assert HiddenMarkovMeasure(WORKED_P, [[0.0, 1.0], [1.0, 0.0]]).entropy_rate() is None
    mix = MixtureMeasure([IIDMeasure([0.5, 0.5]), MarkovMeasure(WORKED_P)], [0.5, 0.5])
    assert mix.entropy_rate() is None and MarkovMeasure(WORKED_P).cross_entropy_rate(mix) is None


def _tiled_cross_entropy(M, R) -> float:
    """sum_i pi(i) sum_j P_ij (-log K_ij) over symbol chains read from the public
    fields, a one-state measure's chain as the k x k tile of its row."""
    def chain(Q):
        if isinstance(Q, MarkovMeasure):
            return Q.start, Q.P
        row = Q.p if isinstance(Q, IIDMeasure) else Q.E[0]
        return row, np.tile(row, (row.size, 1))

    (pi, P), (_, K) = chain(M), chain(R)
    if ((P > 0) & (K == 0)).any():
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.where(P > 0, P * np.log(K), 0.0).sum(axis=1)
    return float(-(pi @ rows))


def test_a_one_row_symbol_chain_keeps_the_tiled_rates():
    """A one-state record's symbol chain is the one row E[0:1], which
    cross_entropy_rate broadcasts; every rate keeps the bits of the k x k tile
    of that row, over random iid, Markov and one-state HMM pairs with zeros."""
    rng = np.random.default_rng(40)
    pairs = 0
    for k in (2, 3, 5, 8):
        for zeros in (False, True):
            ps = [random_rows(rng, 1, k, zeros)[0] for _ in range(2)]
            measures_k = [IIDMeasure(ps[0]), HiddenMarkovMeasure([[1.0]], [ps[1]])]
            for _ in range(4):
                try:
                    measures_k.append(MarkovMeasure(random_rows(rng, k, k, zeros)))
                except ValidationError:
                    pass  # reducible
            for M, R in itertools.product(measures_k, repeat=2):
                got = M.cross_entropy_rate(R)
                assert np.float64(got).tobytes() == np.float64(_tiled_cross_entropy(M, R)).tobytes()
                pairs += 1
    assert pairs >= 100


def test_a_wide_iid_entropy_rate_builds_no_square():
    """The one-row symbol chain keeps the rate's value at k = 4000 with no k x k
    array: a tile of the row peaked at 528 MB."""
    Q = IIDMeasure(np.full(4000, 1 / 4000))
    tracemalloc.start()
    try:
        h = Q.entropy_rate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == 8.294049640102045
    assert peak < 5 * 2**20


# ------------------------------------------------------------- consistency


def test_marginal_consistency_spot_check(worked_chain):
    # summing the next symbol out of Q_3 must recover Q_2
    for ab in ([0, 0], [0, 1], [1, 0], [1, 1]):
        total = np.logaddexp(
            worked_chain.log_marginal(ab + [0]), worked_chain.log_marginal(ab + [1])
        )
        assert abs(total - worked_chain.log_marginal(ab)) < 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: IIDMeasure([0.2, 0.8]),
        lambda: MarkovMeasure(WORKED_P),
        lambda: HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]]),
        lambda: MixtureMeasure(
            [IIDMeasure([0.9, 0.1]), IIDMeasure([0.1, 0.9])], [0.5, 0.5]
        ),
    ],
    ids=["iid", "markov", "hmm", "mixture"],
)
def test_validate_measure_passes_for_all_families(build):
    rep = validate_measure(build(), n_max=4)
    assert rep.ok
    assert rep.levels_checked == 4
    assert max(rep.normalization_error.values()) < 1e-9
    assert max(rep.consistency_error.values()) < 1e-9


def test_validate_measure_flags_non_invariant_start():
    Q = MarkovMeasure(WORKED_P, start=[0.5, 0.5])
    rep = validate_measure(Q, n_max=3)
    assert not rep.ok
    assert any("inconsisten" in p for p in rep.problems)
    js = rep.to_json()
    assert js["ok"] is False and js["problems"]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4)
)
def test_random_iid_levels_normalize(weights):
    p = np.asarray(weights) / np.sum(weights)
    Q = IIDMeasure(p)
    lv = Q.log_marginals_level(3)
    assert abs(np.exp(log_sum_exp(lv)) - 1.0) < 1e-9


# ----------------------------------------------------------------- specs


BAD_ENTRY_BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda bad: IIDMeasure([bad, 0.5]),
        lambda bad: MarkovMeasure([[0.5, 0.5], [bad, 0.5]]),
        lambda bad: MarkovMeasure(WORKED_P, start=[bad, 0.5]),
        lambda bad: HiddenMarkovMeasure([[1.0, 0.0], [0.0, 1.0]], [[bad, 0.5], [0.5, 0.5]]),
        lambda bad: MixtureMeasure([IIDMeasure([0.5, 0.5])] * 2, [bad, 0.5]),
    ],
    ids=["iid-p", "markov-P", "markov-start", "hmm-E", "mixture-weights"],
)


@BAD_ENTRY_BUILDS
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(build, bad):
    with pytest.raises(ValidationError, match="non-finite"):
        build(bad)


@BAD_ENTRY_BUILDS
@pytest.mark.parametrize("bad", [True, "0.5"])
def test_boolean_and_string_entries_rejected(build, bad):
    # np.asarray would read True as 1.0, so the check looks at the raw entry
    with pytest.raises(ValidationError, match="non-numeric"):
        build(bad)


@pytest.mark.parametrize(
    "P, pointer, message",
    [
        ([[0.5, 0.6], [0.5, "x"], [0.5]], "/P/0", "row sums to 1.1"),
        ([[0.5, 0.5], [0.5, -0.5, 1.0], [0.5, True]], "/P/1", "ragged row"),
        ([[0.5, 0.5], [0.5, True], [1.5, -0.5]], "/P/1", "non-numeric entry"),
        ([[0.5, 0.5], [10**400, 0.5], [0.5, "x"]], "/P/1", "non-finite entry"),
        ([[0.5, 0.5], [1.5, -0.5], [math.nan, 0.5]], "/P/1", "negative entry"),
        ([[0.5, 0.5], [0.5, 0.5], [0.5, 0.6]], "/P/2", "row sums to 1.1"),
        ([[0.5, 0.5], [0.5, 0.5], 0.5], "/P/2", "must be a nonempty list"),
        (np.array([[0.5, 0.5], [np.inf, 0.5]]), "/P/1", "non-finite entry"),
        (np.array([[0.5, 0.5], [0.5, 0.6], [-0.5, 1.5]]), "/P/1", "row sums to 1.1"),
        (np.array([[0.5, 0.5], [1.5, -0.5]], dtype=np.float32), "/P/1", "negative entry"),
        (np.array([[True, False], [False, True]]), "/P/0", "non-numeric entry"),
        (np.array([[0.5, 0.5], [True, 0.5]], dtype=object), "/P/1", "non-numeric entry"),
    ],
)
def test_the_first_offending_row_is_refused(P, pointer, message):
    """A later row's fault does not hide an earlier row's; within a row the
    checks run ragged, non-numeric, non-finite, negative, sum."""
    with pytest.raises(ValidationError) as exc:
        measures._check_stochastic(P, "/P", 2)
    assert exc.value.pointer == pointer and exc.value.message.startswith(message)


@pytest.mark.parametrize("p", [math.nan, "x", [], [[0.5, 0.5]]])
def test_a_vector_of_no_numbers_is_refused(p):
    with pytest.raises(ValidationError) as exc:
        measures._check_stochastic(p, "/p", 1)
    assert exc.value.pointer == "/p"


@pytest.mark.parametrize(
    "P",
    [
        [[1, 0], [0.25, 0.75]],
        ((0.5, 0.5), (0.25, 0.75)),
        np.array([[0.5, 0.5], [0.25, 0.75]]),
        [np.array([0.5, 0.5]), [np.float64(0.25), 0.75]],
        np.array([[1, 0], [0, 1]]),
    ],
    ids=["ints", "tuples", "array", "numpy-entries", "int-array"],
)
def test_other_numeric_entries_are_accepted(P):
    got = measures._check_stochastic(P, "/P", 2, square=True)
    assert got.dtype == np.float64 and (got == np.asarray(P, dtype=np.float64)).all()


@pytest.mark.parametrize(
    "P", [np.full((3, 3), 1 / 3), np.eye(3, dtype=np.int8), np.eye(3, dtype=np.uint64)],
    ids=["float", "int8", "uint64"],
)
def test_a_real_array_is_checked_as_one_array(P, monkeypatch):
    """An array of an integer or float dtype once went row by row, several
    times slower than the same rows as lists."""
    monkeypatch.setattr(measures, "_check_row", None)  # called, it would raise
    got = measures._check_stochastic(P, "/P", 2, square=True)
    assert got.dtype == np.float64 and (got == P).all()
    assert (measures._check_stochastic(P[0] / P[0].sum(), "/p", 1) == P[0] / P[0].sum()).all()


def test_float32_entries_build_without_a_warning():
    """Each entry is tested as a Python float: a float32 entry compared with
    the float maximum would cast it to float32, overflow and warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q = MarkovMeasure(np.array([[0.5, 0.5], [0.25, 0.75]], dtype=np.float32))
    assert np.abs(np.exp(Q.log_marginals_level(1)) - [1 / 3, 2 / 3]).max() < 1e-12
    with pytest.raises(ValidationError) as exc:
        MarkovMeasure(np.array([[np.inf, 0.5], [0.25, 0.75]], dtype=np.float32))
    assert (exc.value.pointer, exc.value.message) == ("/P/0", "non-finite entry")


# a spec of each family with all its keys, and its level-1 marginals
MARKOV_FROM_0 = {"family": "markov", "P": WORKED_P, "start": [1.0, 0.0]}
FULL_SPECS = {
    "iid": ({"family": "iid", "p": [0.25, 0.75]}, [0.25, 0.75]),
    "markov": (MARKOV_FROM_0, [1.0, 0.0]),
    "hmm": ({"family": "hmm", "A": WORKED_P, "E": [[0.9, 0.1], [0.3, 0.7]],
             "start": [1.0, 0.0]}, [0.9, 0.1]),
    "mixture": ({"family": "mixture", "components": [{"family": "iid", "p": [0.25, 0.75]},
                                                      MARKOV_FROM_0],
                 "weights": [0.5, 0.5]}, [0.625, 0.375]),
}


@pytest.mark.parametrize("family", sorted(FULL_SPECS))
def test_a_spec_reads_every_key_of_its_family_and_no_other(family):
    spec, level_1 = FULL_SPECS[family]
    got = np.exp(measure_from_spec(spec).log_marginals_level(1))
    assert np.abs(got - level_1).max() < 1e-15
    with pytest.raises(SchemaError) as exc:
        measure_from_spec({**spec, "extra": 1}, "/measure")
    assert (exc.value.pointer, exc.value.message) == ("/measure/extra", "unknown key")


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"family": "markov", "P": [[0.5, 0.5], [0.4, 0.5]]}, "/P/1"),
        ({"family": "markov", "P": [[1.0, 0.0], [0.0, 1.0]]}, "/P"),
        ({"family": "hmm", "A": [[1.0]], "E": [[0.5, 0.5], [0.5, 0.5]]}, "/E"),
        ({"family": "hmm", "A": [[1.0]], "E": [[0.5, 0.5]], "start": [0.5, 0.5]}, "/start"),
        ({"family": "mixture", "weights": [0.5, 0.5], "components": [
            {"family": "iid", "p": [0.5, 0.5]},
            {"family": "mixture", "weights": [1.0, 0.0], "components": [
                {"family": "iid", "p": [0.5, 0.5]}, {"family": "iid", "p": [0.5, 0.5]}]},
        ]}, "/components/1/weights"),
        ({"family": "mixture", "weights": [0.5, 0.5], "components": "x"}, "/components"),
    ],
    ids=["row", "reducible", "emission-rows", "hmm-start", "nested-mixture", "components"],
)
def test_measure_from_spec_points_at_the_field(spec, pointer):
    with pytest.raises(SchemaError) as exc:
        measure_from_spec(spec, "/measure")
    assert exc.value.pointer == "/measure" + pointer


def test_measure_from_spec_errors():
    with pytest.raises(ConfigError):
        measure_from_spec({"family": "gaussian"})
    with pytest.raises(ConfigError):
        measure_from_spec({"p": [0.5, 0.5]})
    with pytest.raises(ConfigError):
        measure_from_spec({"family": "mixture", "weights": [1.0]})
