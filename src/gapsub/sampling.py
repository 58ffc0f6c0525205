"""Seeded trajectory sampling and normalized log-marginal series.

Sampling runs on a counter-based generator (Philox) keyed by the pair
(seed, stream), so trials and workers draw from disjoint streams without
coordination and every draw is reproducible from the two integers.

The series builders normalize running log-marginals by window length
using a centered accumulation: with increments d_i and pivot d_1,

    v_n = d_1 + (sum_{i <= n} (d_i - d_1)) / n.

When all increments are equal this evaluates every v_n to the identical
float, so an exactly memoryless log-marginal yields a bitwise-constant
series instead of one that wobbles in the last ulp.
"""
from __future__ import annotations

import bisect
import dataclasses

import numpy as np

from .errors import ConfigError
from . import measures
from .measures import ShiftMeasure, checked_symbols, integer_array
from .schedules import ConvergenceSeries, geometric_grid


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream); distinct pairs are independent."""
    if seed < 0 or stream < 0:
        raise ConfigError("seed and stream must be >= 0")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A finite path of symbols in {0, ..., alphabet_size - 1}, checked by checked_symbols."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        object.__setattr__(self, "symbols", checked_symbols(self.symbols, self.alphabet_size))

    def __len__(self) -> int:
        return int(self.symbols.size)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.symbols, dtype=dtype, copy=copy)

    def text(self) -> str:
        """The symbols on one line, separated by spaces.

        Names of one digit are written as bytes: each digit, then a space,
        with a newline in place of the last space.
        """
        if self.symbols.max() <= 9:
            line = np.full(2 * self.symbols.size, ord(" "), dtype=np.uint8)
            np.add(self.symbols, ord("0"), out=line[::2], casting="unsafe")
            line[-1] = ord("\n")
            return line.tobytes().decode("ascii")
        names = np.array([str(s) for s in range(int(self.symbols.max()) + 1)], dtype=object)
        return " ".join(names[self.symbols].tolist()) + "\n"


def sample_paths(Q: ShiftMeasure, N: int, seed: int, streams) -> np.ndarray:
    """A (len(streams), N) int64 array: row i is x_1..x_N drawn on (seed, streams[i]).

    Each row is bit for bit the path that its stream draws alone; the rows
    draw together, so a chain's maps compose for every row in one pass.
    """
    if N < 1:
        raise ConfigError("trajectory length must be >= 1")
    return Q._sample_rows(N, [make_rng(seed, stream) for stream in streams])


def sample_trajectory(
    Q: ShiftMeasure, N: int, seed: int, stream: int = 0
) -> Trajectory:
    """Draw x_1..x_N from Q, deterministically in (seed, stream): one row of sample_paths."""
    return Trajectory(sample_paths(Q, N, seed, [stream])[0], alphabet_size=Q.alphabet.size)


def log_prefixes(Q: ShiftMeasure, symbols: np.ndarray) -> np.ndarray:
    """Array [log Q_1(x_1), log Q_2(x_1 x_2), ..., log Q_m(x_1..x_m)]."""
    return Q.prefix_logprobs(symbols)


def checked_grid(grid, offset: int, size: int) -> np.ndarray:
    """grid as an int64 array, checked to fit a path of size symbols.

    It must ascend strictly from 1, and offset + grid[-1] <= size.
    """
    grid = np.asarray(grid)
    if grid.size == 0:
        raise ConfigError("grid must be strictly increasing and >= 1")
    grid = integer_array(grid, ConfigError, "grid points")
    if grid[0] < 1 or (np.diff(grid) <= 0).any():
        raise ConfigError("grid must be strictly increasing and >= 1")
    if offset + int(grid[-1]) > size:
        raise ConfigError(f"grid needs {offset + int(grid[-1])} symbols, trajectory has {size}")
    return grid


def kingman_rows(paths: np.ndarray, Q: ShiftMeasure, grid: np.ndarray) -> np.ndarray:
    """(1/n) log Q_n(x_1..x_n) for each row x of paths at each n of grid.

    Returns a (paths, grid) array.  grid is a checked_grid; each row's
    first grid[-1] symbols are read.  A row's values are bit for bit its
    values evaluated alone: the per-symbol increments are exact or sum in
    one order, and the normalization runs along each row on its own,
    with the centered pivot of the module docstring.  Once an increment
    is -inf every later normalized value is -inf (log marginals only
    decrease), so the centered sum counts on the finite head only.

    The increments stream in column blocks of at most _GATHER_ENTRIES
    floats (Q._increment_blocks; a family that evaluates whole gives one
    block).  Each block is centered and summed in place, and each row
    carries its running sum into the next block's first column, which is
    the same add as the next step of the whole-row sum.
    """
    w = Q.alphabet.validate_paths(paths[:, : grid[-1]])
    rows, n = w.shape
    values = np.empty((rows, grid.size))
    finite_len = np.full(rows, n)
    ends, a = grid.tolist(), 0
    with np.errstate(invalid="ignore"):  # -inf - -inf, past a row's finite head
        for lo, block in Q._increment_blocks(w, max(1, measures._GATHER_ENTRIES // rows)):
            neg = ~np.isfinite(block)
            if neg.any():  # a row's finite head ends at its first non-finite increment
                first = np.where(neg.any(axis=1), lo + neg.argmax(axis=1), n)
                np.minimum(finite_len, first, out=finite_len)
            if lo == 0:
                pivot = block[:, :1].copy()
            np.subtract(block, pivot, out=block)
            if lo:
                block[:, 0] += carry
            np.cumsum(block, axis=1, out=block)
            hi = lo + block.shape[1]
            b = bisect.bisect_right(ends, hi, a)
            if b > a:
                at = grid[a:b]
                values[:, a:b] = pivot + block[:, at - 1 - lo] / at
            a = b
            carry = block[:, -1].copy()
    return np.where(grid <= finite_len[:, None], values, -np.inf)


def kingman_series(
    x: Trajectory | np.ndarray,
    Q: ShiftMeasure,
    grid: np.ndarray | None = None,
    offset: int = 0,
) -> ConvergenceSeries:
    """Series n -> (1/n) log Q_n(x_{offset+1} .. x_{offset+n}) on a grid.

    The default grid is geometric with ratio 1.2, ending at the largest
    n the trajectory supports.  Requires offset + max(grid) <= len(x).
    It is the one-row case of kingman_rows.
    """
    symbols = np.asarray(x)  # checked by Q
    if offset < 0:
        raise ConfigError("offset must be >= 0")
    avail = symbols.size - offset
    if avail < 1:
        raise ConfigError("offset leaves no symbols to evaluate")
    grid = checked_grid(geometric_grid(avail) if grid is None else grid, offset, symbols.size)
    values = kingman_rows(symbols[None, offset:], Q, grid)[0]
    return ConvergenceSeries(grid, values)
