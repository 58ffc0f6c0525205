"""The block-composed chain sampler against the per-symbol loop it replaced.

_loop_path is the loop that drew every Markov path and every hidden
chain before: one bucket lookup per symbol, each in the row of the
previous symbol.  The sampler must give the same symbols bit for bit,
from the same uniforms drawn by the same generator calls in the same
order, so every seeded trajectory keeps its bytes.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from gapsub import (
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    make_rng,
    sample_paths,
    sample_trajectory,
)
from gapsub import measures
from gapsub.measures import _chain_path

KS = [1, 2, 3, 5, 16, 32, 130, 300]  # 300 needs 16-bit map tables
NS = [1, 2, 3, 4, 17, 1000, 10**5]


def _bucket(cum: np.ndarray, u: float) -> int:
    return int(min(np.searchsorted(cum, u, side="right"), cum.size - 1))


def _loop_path(cum_start: np.ndarray, cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    x = np.empty(u.size, dtype=np.int64)
    x[0] = _bucket(cum_start, u[0])
    prev = int(x[0])
    for i in range(1, u.size):
        prev = _bucket(cum_rows[prev], u[i])
        x[i] = prev
    return x


def _loop_iid(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(p)
    return np.asarray([_bucket(cum, u) for u in rng.random(n)], dtype=np.int64)


def _loop_markov(Q: MarkovMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    return _loop_path(np.cumsum(Q.start), np.cumsum(Q.P, axis=1), rng.random(n))


def _loop_hmm(Q: HiddenMarkovMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """One hidden state draws the iid law of its emission row."""
    if Q.hidden_size == 1:
        return _loop_iid(Q.E[0], n, rng)
    z = _loop_path(np.cumsum(Q.start), np.cumsum(Q.A, axis=1), rng.random(n))
    u_emit = rng.random(n)
    idx = (np.cumsum(Q.E, axis=1)[z] <= u_emit[:, None]).sum(axis=1)
    return np.minimum(idx, Q.alphabet.size - 1).astype(np.int64)


def _kernel(rng: np.random.Generator, k: int, zero: bool) -> np.ndarray:
    P = rng.dirichlet(np.ones(k), size=k)
    if zero and k > 1:
        # a zero-probability transition: two equal edges in row 0
        P[0, k // 2] = 0.0
        P[0] /= P[0].sum()
    return P


def _edge_uniforms(rng: np.random.Generator, cum_rows: np.ndarray, n: int) -> np.ndarray:
    """n uniforms, up to half of them on a bucket edge or one float beside it."""
    u = rng.random(n)
    edges = np.unique(cum_rows[cum_rows < 1.0])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0]])
    m = min(near.size, n // 2)
    if m:
        u[rng.choice(n, size=m, replace=False)] = rng.choice(near, size=m, replace=False)
    return u


@pytest.mark.parametrize("zero", [False, True], ids=["positive", "zero-transition"])
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("k", KS)
def test_chain_path_matches_the_loop(k, n, zero):
    rng = np.random.default_rng([k, n, zero])
    cum_rows = np.cumsum(_kernel(rng, k, zero), axis=1)
    cum_start = np.cumsum(rng.dirichlet(np.ones(k)))  # not the invariant law
    u = _edge_uniforms(rng, cum_rows, n)
    assert np.array_equal(_chain_path(cum_start, cum_rows, u), _loop_path(cum_start, cum_rows, u))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_chain_path_carries_the_state_across_chunks(k, monkeypatch):
    """With the smallest chunks (4k steps), each chunk starts where the last one ended."""
    monkeypatch.setattr(measures, "_MAP_TABLE_ENTRIES", 1)
    rng = np.random.default_rng([k, 4])
    cum_rows = np.cumsum(_kernel(rng, k, zero=True), axis=1)
    cum_start = np.cumsum(rng.dirichlet(np.ones(k)))
    for n in (2, 4 * k, 4 * k + 1, 4 * k + 2, 8 * k + 1, 1000):
        u = _edge_uniforms(rng, cum_rows, n)
        got = _chain_path(cum_start, cum_rows, u)
        assert np.array_equal(got, _loop_path(cum_start, cum_rows, u))


@pytest.mark.parametrize("k,n", [(32, 50_000), (300, 20_000)])
def test_chain_path_flat_indices_pass_the_table_dtype(k, n):
    """state * width + step exceeds what the 8- or 16-bit table entries hold."""
    rng = np.random.default_rng([k, n])
    cum_rows = np.cumsum(_kernel(rng, k, zero=False), axis=1)
    u = rng.random(n)
    assert (k - 1) * (n - 1) > np.iinfo(np.min_scalar_type(k - 1)).max
    assert np.array_equal(_chain_path(cum_rows[0], cum_rows, u), _loop_path(cum_rows[0], cum_rows, u))


def test_chain_path_clips_a_row_that_sums_under_one():
    # the last edge lands a hair under 1; a uniform above it takes the last symbol
    cum_rows = np.asarray([[0.5, 1.0 - 2**-53], [0.25, 1.0 - 2**-52]])
    u = np.asarray([0.7, 1.0 - 2**-53, 1.0 - 2**-53, 0.1, 1.0 - 2**-53, 0.5, 0.25])
    got = _chain_path(cum_rows[0], cum_rows, u)
    assert np.array_equal(got, _loop_path(cum_rows[0], cum_rows, u))
    assert got.tolist() == [1, 1, 1, 0, 1, 1, 1]


@pytest.mark.parametrize("k", [2, 3, 5, 16, 32, 130])
@pytest.mark.parametrize("start", ["stationary", "non-invariant"])
def test_markov_sample_matches_the_loop(k, start):
    rng = np.random.default_rng([k, start == "stationary"])
    P = _kernel(rng, k, zero=True)
    Q = MarkovMeasure(P, start=None if start == "stationary" else rng.dirichlet(np.ones(k)))
    for n in (1, 2, 17, 3000):
        got = Q._sample_rows(n, [make_rng(k, n)])[0]
        assert np.array_equal(got, _loop_markov(Q, n, make_rng(k, n)))


@pytest.mark.parametrize("hidden", [1, 2, 3, 9])
def test_hmm_sample_matches_the_loop(hidden):
    rng = np.random.default_rng(hidden)
    A = _kernel(rng, hidden, zero=True)
    E = rng.dirichlet(np.ones(3), size=hidden)
    for start in (None, rng.dirichlet(np.ones(hidden))):
        Q = HiddenMarkovMeasure(A, E, start=start)
        for n in (1, 2, 17, 3000):
            got = Q._sample_rows(n, [make_rng(hidden, n)])[0]
            assert np.array_equal(got, _loop_hmm(Q, n, make_rng(hidden, n)))


def test_mixture_trajectory_matches_the_loop():
    """The component draw, then the component's uniforms, in that order."""
    rng = np.random.default_rng(5)
    chain = MarkovMeasure(_kernel(rng, 3, zero=True))
    hmm = HiddenMarkovMeasure(_kernel(rng, 2, zero=False), rng.dirichlet(np.ones(3), size=2))
    Q = MixtureMeasure([chain, hmm], [0.5, 0.5])
    loops = [_loop_markov, _loop_hmm]
    picked = set()
    for stream in range(8):
        got = sample_trajectory(Q, 2000, seed=31, stream=stream).symbols
        draws = make_rng(31, stream)
        j = _bucket(np.cumsum(Q.weights), draws.random())
        picked.add(j)
        assert np.array_equal(got, loops[j](Q.components[j], 2000, draws))
    assert picked == {0, 1}


def _near_permutation(rng: np.random.Generator, k: int, eps: float = 1e-9) -> np.ndarray:
    """Each state moves to its image under a random permutation, bar eps spread evenly."""
    P = np.full((k, k), eps / (k - 1))
    P[np.arange(k), rng.permutation(k)] = 1.0 - eps
    return P


def _rows_kernel(rng: np.random.Generator, k: int, shape: str) -> np.ndarray:
    if shape == "near-permutation":
        return _near_permutation(rng, k)
    P = _kernel(rng, k, zero=True)
    if k > 2:
        P[-1] = 0.0  # a row that is all zeros but one
        P[-1, 1] = 1.0
    return P


@pytest.mark.parametrize("shape", ["zeros", "near-permutation"])
@pytest.mark.parametrize("k", [2, 3, 8, 9, 32, 130])
@pytest.mark.parametrize("rows", [1, 2, 7])
def test_chain_path_rows_match_the_loop(rows, k, shape):
    """Each row of a (rows, n) draw is the loop's path of that row's uniforms."""
    rng = np.random.default_rng([rows, k, shape == "zeros"])
    cum_rows = np.cumsum(_rows_kernel(rng, k, shape), axis=1)
    cum_start = np.cumsum(rng.dirichlet(np.ones(k)))
    for n in (1, 2, 997, 3000):
        u = np.stack([_edge_uniforms(rng, cum_rows, n) for _ in range(rows)])
        got = _chain_path(cum_start, cum_rows, u)
        assert got.shape == (rows, n) and got.dtype == np.int64
        for r in range(rows):
            assert np.array_equal(got[r], _loop_path(cum_start, cum_rows, u[r]))


@pytest.mark.parametrize("per_pass", [None, 2, 7], ids=["floor", "passes-of-2", "one-pass"])
@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("k", [2, 3, 9])
def test_chain_path_rows_carry_their_states_across_chunks(rows, k, per_pass, monkeypatch):
    """Each row's chunk starts where its last one ended.

    With no budget each row draws alone in the smallest chunks (4k steps);
    otherwise the budget sets per_pass rows to a pass and 256-step chunks.
    """
    entries = 1 if per_pass is None else per_pass * 16 * k * 16
    monkeypatch.setattr(measures, "_MAP_TABLE_ENTRIES", entries)
    rng = np.random.default_rng([rows, k, 4])
    cum_rows = np.cumsum(_kernel(rng, k, zero=True), axis=1)
    cum_start = np.cumsum(rng.dirichlet(np.ones(k)))
    for n in (2, 4 * k + 1, 8 * k + 2, 997):
        u = np.stack([_edge_uniforms(rng, cum_rows, n) for _ in range(rows)])
        got = _chain_path(cum_start, cum_rows, u)
        for r in range(rows):
            assert np.array_equal(got[r], _loop_path(cum_start, cum_rows, u[r]))
        # drawn over the uniforms' own buffer, chunk after chunk
        buffer = u.copy()
        drawn = _chain_path(cum_start, cum_rows, buffer, out=buffer.view(np.int64))
        assert np.array_equal(drawn, got)


@pytest.mark.parametrize("k", [2, 5, 9])
def test_chain_path_fills_the_table_alike_by_comparisons_and_by_sorting(k, monkeypatch):
    rng = np.random.default_rng([k, 7])
    cum_rows = np.cumsum(_kernel(rng, k, zero=True), axis=1)
    u = np.stack([_edge_uniforms(rng, cum_rows, 3000) for _ in range(3)])
    paths = []
    for states in (0, 16):  # every k sorted, then every k compared
        monkeypatch.setattr(measures, "_COMPARE_STATES", states)
        paths.append(_chain_path(cum_rows[0], cum_rows, u))
    assert np.array_equal(paths[0], paths[1])
    assert np.array_equal(paths[0][2], _loop_path(cum_rows[0], cum_rows, u[2]))


@pytest.mark.parametrize("k", [3, 32])
def test_chain_path_passes_of_many_short_rows_stay_in_the_budget(k, monkeypatch):
    """3000 rows draw in passes whose tables and counts stay within the budget's bytes.

    One pass of all rows would hold (3000, 32, 32) sort-fill counts, about
    25 MB at k = 32, four times over.
    """
    entries = 1 << 16
    monkeypatch.setattr(measures, "_MAP_TABLE_ENTRIES", entries)
    rng = np.random.default_rng([k, 3000])
    cum_rows = np.cumsum(_kernel(rng, k, zero=True), axis=1)
    u = np.stack([_edge_uniforms(rng, cum_rows, 40) for _ in range(3000)])
    x = np.empty(u.shape, dtype=np.int64)
    tracemalloc.start()
    try:
        _chain_path(cum_rows[1], cum_rows, u, out=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * entries
    for r in range(0, 3000, 7):
        assert np.array_equal(x[r], _loop_path(cum_rows[1], cum_rows, u[r]))
    assert np.array_equal(x, _chain_path(cum_rows[1], cum_rows, u))


def _rows_measures() -> list:
    """(name, measure) of every family, an HMM with 1, 2, 3 and 9 hidden states."""
    rng = np.random.default_rng(21)
    chain = MarkovMeasure(_kernel(rng, 3, zero=True))
    out = [
        ("iid", IIDMeasure([0.2, 0.5, 0.3])),
        ("markov", chain),
        ("markov-non-invariant",
         MarkovMeasure(_kernel(rng, 3, zero=True), start=[0.1, 0.6, 0.3])),
    ]
    for hidden in (1, 2, 3, 9):
        A = _kernel(rng, hidden, zero=True)
        out.append((f"hmm{hidden}", HiddenMarkovMeasure(A, rng.dirichlet(np.ones(3), size=hidden))))
    hmm = HiddenMarkovMeasure(_kernel(rng, 2, zero=False), rng.dirichlet(np.ones(3), size=2))
    return out + [("mixture", MixtureMeasure([chain, hmm], [0.5, 0.5]))]


@pytest.mark.parametrize("Q", [Q for _, Q in _rows_measures()],
                         ids=[name for name, _ in _rows_measures()])
def test_sample_rows_stack_the_one_stream_draws(Q):
    streams = range(3, 10)
    for n in (1, 2, 997):
        got = Q._sample_rows(n, [make_rng(17, t) for t in streams])
        want = np.stack([Q._sample_rows(n, [make_rng(17, t)])[0] for t in streams])
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_sample_paths_rows_are_the_trajectories():
    chain = MarkovMeasure([[0.9, 0.1], [0.2, 0.8]])
    Q = MixtureMeasure([chain, IIDMeasure([0.5, 0.5])], [0.3, 0.7])
    paths = sample_paths(Q, 400, 5, [0, 2, 4, 6, 8, 10])
    for row, stream in zip(paths, (0, 2, 4, 6, 8, 10)):
        assert np.array_equal(row, sample_trajectory(Q, 400, 5, stream).symbols)
