"""The chunked HMM forward recursion against the per-step oracle, bit for bit.

HiddenMarkovMeasure._forward runs each step's log-sum-exp on buffers
allocated once (logspace.log_sum_exp_into) and takes the totals over
hidden states once per chunk of steps.  hmm_oracle.forward is the
recursion as it stood before: one call of the old log_sum_exp per step
and one total per step.  The prefix table, windows.many and
the windows.suffix block table must match it bit for bit, for every
chunk size, including -inf prefixes and rows that stop at the path end.
"""
from __future__ import annotations

import numpy as np
import pytest

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
