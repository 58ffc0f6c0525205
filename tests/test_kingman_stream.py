"""kingman_rows streams increments in column blocks, bit for bit the one-path oracle.

The increments of a (paths, n) group arrive from Q._increment_blocks in
blocks of at most measures._GATHER_ENTRIES floats; iid and Markov gather
them block by block, and any other family gives one whole block.  Each
row's values must equal mean_oracle's evaluation of that row alone, at
any budget, any row count, with -inf increments on block edges, and the
stream must hold no temporary the size of the paths.
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
    sample_paths,
)
from gapsub import measures
from gapsub.sampling import kingman_rows

import mean_oracle

# every family gives probability zero to symbol 3 (no start, no step and no
# hidden state reaches it), so writing 3 at column c puts a row's first -inf
# increment at c; the chain also forbids the step 0 -> 0
CHAIN = MarkovMeasure(
    [[0.0, 0.6, 0.4, 0.0], [0.5, 0.2, 0.3, 0.0], [0.3, 0.3, 0.4, 0.0], [0.2, 0.3, 0.5, 0.0]],
    start=[0.3, 0.3, 0.4, 0.0],
)
HMM = HiddenMarkovMeasure([[0.7, 0.3], [0.4, 0.6]], [[0.5, 0.3, 0.2, 0.0], [0.1, 0.2, 0.7, 0.0]])
FAMILIES = {
    "iid": IIDMeasure([0.3, 0.3, 0.4, 0.0]),
    "markov": CHAIN,
    "hmm": HMM,
    "mixture": MixtureMeasure([CHAIN, HMM], [0.4, 0.6]),
}
BUDGETS = [1, 3, 7, pytest.param(measures._GATHER_ENTRIES, id="default")]
N = 30


def _width(budget: int, rows: int) -> int:
    return max(1, budget // rows)


def _kills(width: int) -> list:
    """Columns of a row's first -inf: none, the first increment, the first
    and the last column of the second block, and the last column read."""
    return [c for c in (None, 0, width, 2 * width - 1, N - 1) if c is None or c < N]


def _paths(rows: int, width: int, shift: int) -> np.ndarray:
    """rows chain paths; row r gets its first -inf at _kills[(r + shift) % ...]."""
    x = sample_paths(CHAIN, N, 7, range(rows))
    kills = _kills(width)
    for r in range(rows):
        c = kills[(r + shift) % len(kills)]
        if c is not None:
            x[r, c] = 3
    return x


def _grids(width: int) -> list:
    edges = [1, width, width + 1, 2 * width, 2 * width + 1, N - 2]
    return [np.arange(1, N + 1), np.unique([n for n in edges if 1 <= n <= N - 2])]


def _oracle(Q, paths: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.stack([
        mean_oracle.normalized_on_grid(mean_oracle.increments(Q, x[: grid[-1]]), grid)
        for x in paths
    ])


@pytest.mark.parametrize("rows", [1, 3, 20])
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_streamed_rows_are_each_path_alone(monkeypatch, family, budget, rows):
    Q = FAMILIES[family]
    monkeypatch.setattr(measures, "_GATHER_ENTRIES", budget)
    width = _width(budget, rows)
    heads = set()
    for shift in range(len(_kills(width))):
        paths = _paths(rows, width, shift)
        for grid in _grids(width):
            want = _oracle(Q, paths, grid)
            assert kingman_rows(paths, Q, grid).tobytes() == want.tobytes()
            heads.update(np.isfinite(want).sum(axis=1).tolist())
    assert 0 in heads and len(heads) >= 3  # a row -inf from n = 1, and later heads


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("family", ["iid", "markov"])
def test_increments_are_their_blocks_concatenated(monkeypatch, family, budget):
    """log_increments is the blocks laid side by side, with or without out,
    and every block but the last is width columns."""
    Q = FAMILIES[family]
    monkeypatch.setattr(measures, "_GATHER_ENTRIES", budget)
    for rows in (1, 3, 20):
        width = _width(budget, rows)
        paths = _paths(rows, width, 1)
        want = np.stack([mean_oracle.increments(Q, x) for x in paths])
        assert Q.log_increments(paths).tobytes() == want.tobytes()
        assert Q.log_increments(paths[0]).tobytes() == want[0].tobytes()
        blocks = [(lo, b.copy()) for lo, b in Q._increment_blocks(paths, width)]
        assert [lo for lo, _ in blocks] == list(range(0, N, width))
        assert np.concatenate([b for _, b in blocks], axis=1).tobytes() == want.tobytes()
        out = np.empty(paths.shape)
        for lo, b in Q._increment_blocks(paths, width, out):
            assert np.shares_memory(b, out)
        assert out.tobytes() == want.tobytes()


def test_whole_families_give_one_block():
    paths = _paths(3, 4, 0)
    for Q in (FAMILIES["hmm"], FAMILIES["mixture"]):
        (lo, block), = Q._increment_blocks(paths, 4)
        assert lo == 0 and block.tobytes() == Q.log_increments(paths).tobytes()


@pytest.mark.parametrize("Q, shape", [
    pytest.param(FAMILIES["markov"], (20, 10**5), id="markov-20-rows"),
    pytest.param(IIDMeasure([0.2, 0.3, 0.5]), (1, 10**6), id="iid-one-path"),
])
def test_the_stream_holds_no_path_sized_temporary(Q, shape):
    """Beyond its input, kingman_rows traces under 1 MB; the whole-path
    increments were 16 MB and 8 MB here."""
    paths = sample_paths(Q, shape[1], 3, range(shape[0]))
    grid = np.unique(np.geomspace(1, shape[1], 60).astype(np.int64))
    tracemalloc.start()
    try:
        kingman_rows(paths, Q, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
