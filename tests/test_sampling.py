from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from gapsub import (
    ConfigError,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    Trajectory,
    ValidationError,
    kingman_series,
    log_prefixes,
    make_rng,
    sample_paths,
    sample_trajectory,
)
from gapsub.sampling import checked_grid

from conftest import WORKED_P, random_rows
from lse_oracle import log_sum_exp


FAMILIES = {
    "iid": lambda: IIDMeasure([0.2, 0.3, 0.5]),
    "markov": lambda: MarkovMeasure(WORKED_P),
    "hmm": lambda: HiddenMarkovMeasure(
        [[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]]
    ),
    "mixture": lambda: MixtureMeasure(
        [IIDMeasure([0.9, 0.1]), IIDMeasure([0.1, 0.9])], [0.5, 0.5]
    ),
}


# --------------------------------------------------------------------- rng


def test_rng_is_keyed_by_seed_and_stream():
    a = make_rng(7, 0).random(8)
    b = make_rng(7, 0).random(8)
    c = make_rng(7, 1).random(8)
    d = make_rng(8, 0).random(8)
    assert (a == b).all()
    assert (a != c).any()
    assert (a != d).any()


def test_sample_trajectory_reproducible(worked_chain):
    x = sample_trajectory(worked_chain, 200, seed=11)
    y = sample_trajectory(worked_chain, 200, seed=11)
    z = sample_trajectory(worked_chain, 200, seed=11, stream=1)
    assert (x.symbols == y.symbols).all()
    assert (x.symbols != z.symbols).any()
    assert len(x) == 200
    assert x.symbols.min() >= 0 and x.symbols.max() < 2


def test_sample_frequencies_near_the_law():
    Q = IIDMeasure([0.9, 0.1])
    x = sample_trajectory(Q, 20000, seed=3)
    freq = float((x.symbols == 0).mean())
    assert abs(freq - 0.9) < 0.01


def test_markov_sample_transition_frequencies(worked_chain):
    x = sample_trajectory(worked_chain, 20000, seed=5).symbols
    from_zero = x[1:][x[:-1] == 0]
    assert abs(float((from_zero == 0).mean()) - 0.9) < 0.02


def test_zero_probability_symbols_never_drawn():
    Q = IIDMeasure([0.5, 0.0, 0.5])
    x = sample_trajectory(Q, 5000, seed=9)
    assert not (x.symbols == 1).any()


@pytest.mark.parametrize("k", [1, 2, 3, 10, 11, 32])
def test_trajectory_text_is_the_plain_join(k):
    """The text is what joining str of every symbol wrote: one-digit names
    as bytes, two-digit symbols through the name lookup."""
    symbols = np.random.default_rng(k).integers(0, k, 5000)
    x = Trajectory(symbols, alphabet_size=k)
    assert x.text() == " ".join(map(str, x.symbols.tolist())) + "\n"
    if k == 32:
        assert " 31 " in x.text() and " 10 " in x.text()


def test_trajectory_text_of_a_wide_alphabet_path_with_one_digit_symbols():
    symbols = np.random.default_rng(12).integers(0, 10, 5000)
    x = Trajectory(symbols, alphabet_size=12)
    assert x.symbols.max() == 9
    assert x.text() == " ".join(map(str, x.symbols.tolist())) + "\n"
    assert Trajectory(np.array([7]), alphabet_size=12).text() == "7\n"


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        Trajectory(np.asarray([], dtype=np.int64), alphabet_size=2)
    with pytest.raises(ConfigError):
        sample_trajectory(IIDMeasure([0.5, 0.5]), 0, seed=1)
    with pytest.raises(ValidationError, match="nonempty 1-d"):
        Trajectory([], alphabet_size=2)
    with pytest.raises(ValidationError, match=r"symbols must lie in \[0, 2\)"):
        Trajectory([0, 2], alphabet_size=2)


def test_a_trajectory_of_non_integers_is_refused():
    """A cast to int64 made [0.2, 1.7] the symbols [0, 1]."""
    with pytest.raises(ValidationError, match="symbols must be integers, not float64"):
        Trajectory(np.array([0.2, 1.7]), 2)
    assert Trajectory(np.array([0, 1], dtype=np.int32), 2).symbols.dtype == np.int64


def test_a_trajectory_converts_through_asarray(worked_chain):
    """np.asarray reads a path as its symbols, so no caller unwraps one: the
    series of the path is that of its array, bit for bit."""
    x = sample_trajectory(worked_chain, 300, seed=4)
    assert np.asarray(x) is x.symbols
    assert np.array(x) is not x.symbols and np.array_equal(np.array(x), x.symbols)
    assert np.asarray(x, dtype=np.float64).tolist() == x.symbols.astype(np.float64).tolist()
    series = kingman_series(x, worked_chain)
    assert series.values.tobytes() == kingman_series(x.symbols, worked_chain).values.tobytes()


# ------------------------------------------------------------ log prefixes


@pytest.mark.parametrize("family", list(FAMILIES))
def test_log_prefixes_match_per_prefix_evaluation(family):
    Q = FAMILIES[family]()
    x = sample_trajectory(Q, 40, seed=31).symbols
    pre = log_prefixes(Q, x)
    direct = np.asarray([Q.log_marginal(x[: i + 1]) for i in range(x.size)])
    if family in ("iid", "markov"):
        assert (pre == direct).all()
    else:
        assert np.abs(pre - direct).max() < 1e-12


# ------------------------------------------------------------ series values


def test_kingman_series_values_and_meta(worked_chain):
    x = sample_trajectory(worked_chain, 500, seed=37)
    s = kingman_series(x, worked_chain)
    assert s.ns[-1] == 500
    pre = log_prefixes(worked_chain, x.symbols)
    ref = pre[s.ns - 1] / s.ns
    assert np.abs(s.values - ref).max() < 1e-12


def test_kingman_constant_increments_are_bitwise_constant():
    """Uniform iid gives identical increments, so every normalized value
    must be the exact same float, not merely close."""
    Q = IIDMeasure([0.5, 0.5])
    x = sample_trajectory(Q, 4096, seed=41)
    s = kingman_series(x, Q)
    assert np.unique(s.values).size == 1
    assert s.values[0] == -math.log(2.0)


def test_kingman_offset_equals_sliced_path(worked_chain):
    x = sample_trajectory(worked_chain, 300, seed=43)
    grid = np.asarray([10, 50, 200])
    a = kingman_series(x, worked_chain, grid=grid, offset=100)
    b = kingman_series(x.symbols[100:], worked_chain, grid=grid)
    assert (a.values == b.values).all()


def test_kingman_centres_its_increments_in_place():
    """The series is the out-of-place centred sum bit for bit, and at 10^6
    iid symbols the traced peak stays near the 8 MB of increments, where
    a centred copy took it to 17 MB."""
    Q = IIDMeasure([0.2, 0.3, 0.5])
    x = sample_trajectory(Q, 10**6, seed=59).symbols
    grid = np.unique(np.geomspace(1, x.size, 40).astype(np.int64))
    incs = Q.log_increments(x)
    want = incs[0] + np.cumsum(incs - incs[0])[grid - 1] / grid
    tracemalloc.start()
    try:
        got = kingman_series(x, Q, grid=grid).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 12e6


def test_kingman_grid_validation(worked_chain):
    x = sample_trajectory(worked_chain, 100, seed=47)
    with pytest.raises(ConfigError):
        kingman_series(x, worked_chain, grid=np.asarray([5, 5, 10]))
    with pytest.raises(ConfigError):
        kingman_series(x, worked_chain, grid=np.asarray([10, 200]))
    with pytest.raises(ConfigError):
        kingman_series(x, worked_chain, offset=100)
    with pytest.raises(ConfigError):
        kingman_series(x, worked_chain, offset=-1)


def test_a_grid_of_non_integers_is_refused(worked_chain):
    """A cast to int64 made the grid [1.9, 3.5] the ns [1, 3]."""
    x = sample_trajectory(worked_chain, 10, seed=47)
    with pytest.raises(ConfigError, match="grid points must be integers, not float64"):
        kingman_series(x, worked_chain, grid=[1.9, 3.5])
    with pytest.raises(ConfigError, match="grid points must be integers"):
        checked_grid(np.asarray(["1", "2"]), 0, 10)
    with pytest.raises(ConfigError, match="strictly increasing"):
        checked_grid([], 0, 10)
    with pytest.raises(ValidationError, match="symbols must be integers"):
        kingman_series(x.symbols.astype(np.float64), worked_chain, grid=[1, 3])


def test_kingman_neg_inf_is_sticky():
    # Q gives symbol 2 probability zero; once the path hits it, every
    # later normalized value is -inf and none is nan
    P = IIDMeasure([1 / 3, 1 / 3, 1 / 3])
    Q = IIDMeasure([0.5, 0.5, 0.0])
    x = sample_trajectory(P, 400, seed=53)
    first_bad = int(np.flatnonzero(x.symbols == 2)[0])
    s = kingman_series(x, Q)
    hit = s.ns > first_bad
    assert (s.values[hit] == -np.inf).all()
    assert np.isfinite(s.values[~hit]).all()
    assert s.terminal == -np.inf
    assert s.tail_oscillation() == 0.0


# ------------------------------------------------------------ window probs


WINDOW_FAMILIES = {
    **FAMILIES,
    # non-invariant start, and a forbidden step 0 -> 1 that sampled
    # paths (drawn from the uniform chain) cross
    "markov-start-zero-step": lambda: MarkovMeasure(
        [[1.0, 0.0], [0.5, 0.5]], start=[0.2, 0.8]
    ),
}


@pytest.mark.parametrize("family", list(WINDOW_FAMILIES))
def test_window_matches_marginal_of_the_window(family):
    Q = WINDOW_FAMILIES[family]()
    P = MarkovMeasure([[0.5, 0.5], [0.5, 0.5]]) if family.endswith("zero-step") else Q
    x = sample_trajectory(P, 50, seed=59).symbols
    wl = Q.windows(x)
    for j in range(0, 45, 7):
        ms = (1, 2, 5, x.size - j)
        suf = wl.suffix(j, x.size - j)
        for m in ms:
            direct = Q.log_marginal(x[j : j + m])
            for got in (wl.many([j], m)[0], suf[m - 1]):
                assert got == direct or abs(got - direct) < 1e-10
    if family.endswith("zero-step"):
        assert (wl.suffix(0, x.size) == -np.inf).any()


def _forward_loop(H, x):
    """Reference: the log-space forward recursion, one symbol at a time."""
    out = np.empty(x.size)
    alpha = H.log_start + H.log_E[:, x[0]]
    out[0] = log_sum_exp(alpha)
    for i in range(1, x.size):
        alpha = log_sum_exp(alpha[:, None] + H.log_A, axis=0) + H.log_E[:, x[i]]
        out[i] = log_sum_exp(alpha)
    return out


@pytest.mark.parametrize("hidden", [1, 2, 3, 9])
def test_hmm_batched_forward_matches_the_loop_bitwise(hidden):
    rng = np.random.default_rng(hidden)
    A = rng.dirichlet(np.ones(hidden), size=hidden)
    E = rng.dirichlet(np.ones(3), size=hidden)
    E[:, 2] = 0.0  # symbol 2 is impossible: prefixes through it are -inf
    E /= E.sum(axis=1, keepdims=True)
    H = HiddenMarkovMeasure(A, E, start=rng.dirichlet(np.ones(hidden)))
    x = sample_trajectory(IIDMeasure([0.45, 0.45, 0.1]), 90, seed=hidden).symbols
    assert (H.prefix_logprobs(x) == _forward_loop(H, x)).all()
    wl = H.windows(x)
    for j in (0, 13, 89):
        assert (wl.suffix(j, x.size - j) == _forward_loop(H, x[j:])).all()
    js = np.arange(0, 60, 7)
    assert wl.many(js, 30).tolist() == [_forward_loop(H, x[j : j + 30])[-1] for j in js]


def test_hmm_suffix_is_bitwise_the_prefixes_of_the_suffix():
    H = FAMILIES["hmm"]()
    x = sample_trajectory(H, 120, seed=71).symbols
    wl = H.windows(x)
    for j in (0, 1, 37, 119):
        assert (wl.suffix(j, x.size - j) == H.prefix_logprobs(x[j:])).all()
    js = np.asarray([0, 5, 60])
    assert wl.many(js, 40).tolist() == [H.prefix_logprobs(x[j : j + 40])[-1] for j in js]


def test_window_many_and_suffix_agree_with_single(worked_chain):
    x = sample_trajectory(worked_chain, 80, seed=61).symbols
    wl = worked_chain.windows(x)
    js = np.asarray([0, 3, 11, 40])
    got = wl.many(js, 7)
    assert got.tolist() == [wl.many([j], 7)[0] for j in js]
    suf = wl.suffix(5, 20)
    for m in range(1, 21):
        assert abs(suf[m - 1] - wl.many([5], m)[0]) < 1e-12


def test_window_zero_probability_step():
    Q = MarkovMeasure([[1.0, 0.0], [0.5, 0.5]], start=[0.5, 0.5])
    x = np.asarray([0, 1, 0, 0], dtype=np.int64)  # 0 -> 1 is forbidden
    wl = Q.windows(x)
    assert wl.many([0], 2)[0] == -np.inf
    assert wl.many([0], 4)[0] == -np.inf
    assert np.isfinite(wl.many([1], 3)[0])  # window [1, 0, 0] avoids the bad step
    assert wl.suffix(0, 4).tolist() == [
        math.log(0.5),
        -np.inf,
        -np.inf,
        -np.inf,
    ]


def test_window_bounds_checked(worked_chain):
    x = sample_trajectory(worked_chain, 20, seed=67).symbols
    wl = worked_chain.windows(x)
    with pytest.raises(ConfigError):
        wl.many([15], 6)[0]
    with pytest.raises(ConfigError):
        wl.many(np.asarray([-1]), 2)
    with pytest.raises(ConfigError):
        wl.suffix(18, 5)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("js", [[1.7], ["2"], [True]], ids=["float", "string", "bool"])
def test_window_offsets_of_a_non_integer_dtype_are_refused(family, js):
    """A cast would read the offset 1.7 as 1, '2' as 2 and True as 1."""
    Q = FAMILIES[family]()
    wl = Q.windows(sample_trajectory(Q, 20, seed=3).symbols)
    with pytest.raises(ConfigError, match="offsets must be integers"):
        wl.many(js, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), zeros=st.booleans(),
       started=st.booleans(), n=st.integers(1, 300))
def test_equal_records_draw_equal_paths(seed, k, zeros, started, n):
    """Measures with equal hidden-chain records draw equal paths on every
    stream, bit for bit: iid(p), the one-state HMM emitting p and
    MarkovMeasure([p] * k); MarkovMeasure(P[, start]) and
    HiddenMarkovMeasure(P, I[, start]); and mixtures of such twins."""
    rng = np.random.default_rng(seed)
    p, P = random_rows(rng, 1, k, zeros)[0], random_rows(rng, k, k, zeros)
    start = random_rows(rng, 1, k, zeros)[0] if started else None
    try:
        chain = MarkovMeasure(P, start)
    except ValidationError:
        assume(False)  # a reducible chain has no unique stationary law
    iids = [IIDMeasure(p), HiddenMarkovMeasure([[1.0]], [p]), MarkovMeasure([p] * k)]
    chains = [chain, HiddenMarkovMeasure(P, np.eye(k), start)]
    weights = rng.dirichlet(np.ones(2)).tolist()
    mixtures = [MixtureMeasure(pair, weights) for pair in zip(iids, [*chains, chains[1]])]
    streams = [0, 1, 2, 7, 31]
    for twins in (iids, chains, mixtures):
        paths = [sample_paths(Q, n, seed, streams) for Q in twins]
        for other in paths[1:]:
            assert other.dtype == np.int64 and np.array_equal(other, paths[0])


def test_iid_rows_draw_over_their_own_uniforms():
    """A one-row symbol chain draws each row over its own uniforms' buffer, so
    ten rows of 10^5 symbols peak near the paths' own 7.6 MB; drawing the whole
    array at once held three arrays of that size."""
    Q = IIDMeasure([0.2, 0.3, 0.5])
    tracemalloc.start()
    try:
        x = sample_paths(Q, 10**5, 3, range(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes
    assert np.array_equal(x[4], sample_trajectory(Q, 10**5, 3, stream=4).symbols)
