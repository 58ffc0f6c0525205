"""The chunked HMM forward recursion against the per-step oracle, bit for bit.

HiddenMarkovMeasure._forward runs each step's log-sum-exp on buffers
allocated once (logspace.log_sum_exp_into) and takes the totals over
hidden states once per chunk of steps.  hmm_oracle.forward is the
recursion as it stood before: one call of the old log_sum_exp per step
and one total per step.  The prefix table, windows.many and
the windows.suffix block table must match it bit for bit, for every
chunk size, including -inf prefixes and rows that stop at the path end.

One row with at most _ROW_STEP_HIDDEN hidden states steps in a loop
compiled once per hidden-state count instead (measures._row_kernel, run by
HiddenMarkovMeasure._forward_row).  It must match the oracle and the rows
path bit for bit, on drawn HMMs with zeros in A, E and the start, and the
numpy property it rests on is pinned here too.
"""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapsub import (
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    sample_trajectory,
)
from gapsub import measures

import hmm_oracle

HIDDEN = [1, 2, 3, 8, 9, 16]
K = 4  # symbol K - 1 is emitted by no state
BUDGETS = {"default": None, "one": 1, "prime": 61}


def _hmm(hidden: int, invariant: bool) -> HiddenMarkovMeasure:
    rng = np.random.default_rng([hidden, invariant])
    A = rng.dirichlet(np.ones(hidden), size=hidden)
    E = rng.dirichlet(np.ones(K), size=hidden)
    if hidden > 1:
        A[0, 0] = A[-1, 0] = 0.0
        E[0, 0] = 0.0
    E[:, K - 1] = 0.0
    A /= A.sum(axis=1, keepdims=True)
    E /= E.sum(axis=1, keepdims=True)
    start = None if invariant else rng.dirichlet(np.ones(hidden))
    return HiddenMarkovMeasure(A, E, start=start)


def _path(n: int, seed: int) -> np.ndarray:
    """Symbols 0..K-2 at random and the unemitted one at 3n/4."""
    x = sample_trajectory(IIDMeasure(np.ones(K - 1) / (K - 1)), n, seed=seed).symbols
    x[3 * n // 4] = K - 1
    return x


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.fixture(params=list(BUDGETS), ids=list(BUDGETS))
def budget(request, monkeypatch):
    """The chunk budget at its default, at 1 and at a prime."""
    if BUDGETS[request.param] is not None:
        monkeypatch.setattr(measures, "_FORWARD_ENTRIES", BUDGETS[request.param])


@pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "given-start"])
@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.usefixtures("budget")
def test_prefix_table_matches_the_oracle(hidden, invariant):
    H = _hmm(hidden, invariant)
    x = _path(300, seed=hidden)
    want = hmm_oracle.prefix_logprobs(H, x)
    assert np.isfinite(want).any() and (want == -np.inf).any()
    _same_bits(H.prefix_logprobs(x), want)


@pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "given-start"])
@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.usefixtures("budget")
def test_many_matches_the_oracle(hidden, invariant):
    H = _hmm(hidden, invariant)
    x = _path(200, seed=hidden + 1)
    js = np.random.default_rng(hidden).integers(0, 200 - 40, size=23)
    want = hmm_oracle.forward(H, x, js, 40)
    assert np.isfinite(want).any() and (want == -np.inf).any()
    _same_bits(H.windows(x).many(js, 40), want)


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.usefixtures("budget")
def test_suffix_block_table_matches_the_oracle(hidden, rows):
    """Rows stop at the path end one step apart, inside chunks and at their edges."""
    H = _hmm(hidden, invariant=False)
    x = _path(120, seed=hidden + 2)
    for j in (0, 50, 120 - rows):
        js = np.arange(j, j + rows)
        want = hmm_oracle.forward(H, x, js, x.size - j, table=True)
        assert np.isnan(want).sum() == rows * (rows - 1) // 2
        _same_bits(H._forward(x, js, x.size - j, table=True), want)


@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.usefixtures("budget")
def test_suffix_windows_match_the_oracle(hidden, monkeypatch):
    """windows.suffix serves later offsets from blocks of 5 rows."""
    H = _hmm(hidden, invariant=False)
    x = _path(90, seed=hidden + 3)
    monkeypatch.setattr(measures, "_TABLE_ENTRIES", 5 * x.size)
    wl = H.windows(x)
    for j in range(0, x.size, 4):
        want = hmm_oracle.forward(H, x, np.asarray([j]), x.size - j, table=True)[0]
        _same_bits(wl.suffix(j, x.size - j), want)


@pytest.mark.parametrize("hidden", [9, 16])
def test_a_batch_of_many_is_each_batch_of_one(hidden):
    """With 8 or more hidden states the totals sum pairwise; the order must not move."""
    H = _hmm(hidden, invariant=True)
    x = _path(150, seed=hidden + 4)
    wl = H.windows(x)
    js = np.arange(0, 150 - 30, 3)
    got = wl.many(js, 30)
    assert np.isfinite(got).sum() > 10
    _same_bits(got, np.concatenate([wl.many([j], 30) for j in js]))
    table = wl.suffix(7, 30)
    _same_bits(table, H.prefix_logprobs(x[7:37]))


@pytest.mark.parametrize(
    "Q",
    [
        IIDMeasure([0.5, 0.5]),
        MarkovMeasure([[0.9, 0.1], [0.2, 0.8]]),
        HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.8, 0.2], [0.3, 0.7]]),
        MixtureMeasure(
            [IIDMeasure([0.9, 0.1]), HiddenMarkovMeasure([[1.0]], [[0.5, 0.5]])], [0.5, 0.5]
        ),
    ],
    ids=["iid", "markov", "hmm", "mixture"],
)
def test_many_of_no_offsets_is_empty(Q):
    x = sample_trajectory(Q, 20, seed=5).symbols
    for m in (1, 20, 40):
        got = Q.windows(x).many([], m)
        assert got.shape == (0,) and got.dtype == np.float64


# -------------------------------------------------- the one-row step


def _rows_prefixes(H: HiddenMarkovMeasure, x: np.ndarray) -> np.ndarray:
    """x's prefix table from the rows path, as the first of two rows."""
    return H.prefix_logprobs(np.stack([x, x]))[0]


@pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "given-start"])
@pytest.mark.parametrize("hidden", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.usefixtures("budget")
def test_one_row_step_matches_the_rows_path(hidden, invariant, monkeypatch):
    """Paths of 1, chunk - 1, chunk and chunk + 1 symbols, prefixes going -inf.

    With _TABLE_ENTRIES at 1, windows.suffix fills blocks of one row.
    """
    monkeypatch.setattr(measures, "_TABLE_ENTRIES", 1)
    H = _hmm(hidden, invariant)
    chunk = max(1, measures._FORWARD_ENTRIES // hidden)
    for n in sorted({1, max(1, chunk - 1), chunk, chunk + 1}):
        x = _path(n, seed=n)
        got = H.prefix_logprobs(x)
        assert got[-1] == -np.inf and (n < 4 or np.isfinite(got[0]))
        _same_bits(got, _rows_prefixes(H, x))
        if n < 3:
            continue
        wl = H.windows(x)
        both = wl.many([0, 1], n - 1)
        _same_bits(wl.many([0], n - 1), both[:1])
        _same_bits(wl.many([1], n - 1), both[1:])
        _same_bits(wl.suffix(2, n - 2), _rows_prefixes(H, x[2:]))


def _zero_pattern_hmm(rng, h: int, invariant: bool) -> HiddenMarkovMeasure:
    """Irreducible A and E with zero entries; symbol K - 1 is emitted by no state.

    The cycle i -> i + 1 keeps A irreducible whatever else is zero, and
    each row of E keeps one of the symbols 0 .. K - 2.
    """
    A = rng.dirichlet(np.ones(h), size=h)
    A[rng.random((h, h)) < 0.4] = 0.0
    A[np.arange(h), (np.arange(h) + 1) % h] += 0.5
    E = rng.dirichlet(np.ones(K), size=h)
    E[rng.random((h, K)) < 0.4] = 0.0
    E[np.arange(h), rng.integers(K - 1, size=h)] += 0.5
    E[:, K - 1] = 0.0
    start = None
    if not invariant:
        start = rng.dirichlet(np.ones(h))
        start[rng.random(h) < 0.3] = 0.0
        start[rng.integers(h)] += 0.5
        start /= start.sum()
    A /= A.sum(axis=1, keepdims=True)
    E /= E.sum(axis=1, keepdims=True)
    return HiddenMarkovMeasure(A, E, start=start)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.integers(1, measures._ROW_STEP_HIDDEN),
    invariant=st.booleans(),
    budget=st.sampled_from(list(BUDGETS)),
    extra=st.sampled_from([None, -1, 0, 1]),
    offset=st.integers(0, 3),
    table=st.booleans(),
    dead=st.booleans(),
)
def test_one_row_kernel_matches_the_oracle(
    seed, hidden, invariant, budget, extra, offset, table, dead
):
    """Windows of 1, chunk - 1, chunk and chunk + 1 symbols from an offset;
    with dead, a symbol that no state emits sends the later prefixes to -inf.
    The kernel is compiled once per hidden-state count."""
    rng = np.random.default_rng(seed)
    H = _zero_pattern_hmm(rng, hidden, invariant)
    with pytest.MonkeyPatch.context() as patch:
        if BUDGETS[budget] is not None:
            patch.setattr(measures, "_FORWARD_ENTRIES", BUDGETS[budget])
        chunk = max(1, measures._FORWARD_ENTRIES // hidden)
        m = 1 if extra is None else max(1, chunk + extra)
        x = rng.integers(0, K - 1, size=offset + m)
        if dead:
            x[offset + rng.integers(m)] = K - 1
        got = H._forward_row(x, offset, m, table)
    _same_bits(got, hmm_oracle.forward(H, x, np.asarray([offset]), m, table=table))
    assert measures._row_kernel(hidden) is measures._row_kernel(hidden)


def test_one_row_step_sums_each_column_left_to_right():
    """A column whose terms after exp are about (1, 1e-16, 1e-16).

    Added left to right they give 1; a compensated sum (math.fsum, or the
    builtin sum from Python 3.12) gives the next float up.
    """
    A = [[0.98, 0.01, 0.01], [1e-16, 0.5, 0.5 - 1e-16], [1e-16, 0.5, 0.5 - 1e-16]]
    H = HiddenMarkovMeasure(A, [[0.6, 0.4]] * 3, start=[1 / 3] * 3)
    x = sample_trajectory(IIDMeasure([0.5, 0.5]), 64, seed=3).symbols
    col = H.log_start + H.log_E[:, x[0]] + H.log_A[:, 0]  # the first step's column 0
    e = np.exp(col - col.max())
    assert (e[0] + e[1]) + e[2] == 1.0 != math.fsum(e)
    _same_bits(H.prefix_logprobs(x), _rows_prefixes(H, x))
    _same_bits(H.windows(x).many([0], 64), H.windows(x).many([0, 0], 64)[:1])


def test_numpy_exp_and_log_ignore_an_entrys_place():
    """In place on buffers of 1 to 9 floats, np.exp and np.log give the bits
    they give on the same entries of one array of 10^5 values.

    The one-row step calls them on tiny buffers, the rows path on larger
    arrays; numpy's vector loops must not round by position.
    """
    rng = np.random.default_rng(14)
    tiny, top = sys.float_info.min, sys.float_info.max
    for ufunc, values, edges in (
        (np.exp, rng.uniform(-750.0, 0.0, 10**5),
         [-np.inf, 0.0, -5e-324, -tiny, -1e-300, -708.4, -745.13, -745.2,
          709.78, 709.782712893384, 709.79]),
        (np.log, np.exp(rng.uniform(-745.0, 709.0, 10**5)),
         [0.0, 5e-324, tiny, 1e-300, 1.0, 1.0 + 2**-52, 3.0, top, np.inf]),
    ):
        values[rng.choice(values.size, 40 * len(edges), replace=False)] = np.repeat(edges, 40)
        with np.errstate(all="ignore"):
            want = ufunc(values)
            for size in range(1, 10):
                buf = np.empty(size)
                view = memoryview(buf)
                got = np.empty_like(values)
                for lo in range(0, values.size - size + 1, size):
                    view[:] = memoryview(values[lo : lo + size])
                    ufunc(buf, out=buf)
                    got[lo : lo + size] = buf
                stop = values.size - values.size % size
                assert got[:stop].tobytes() == want[:stop].tobytes(), (ufunc.__name__, size)
