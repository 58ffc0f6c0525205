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

import dataclasses

import numpy as np

from .errors import ConfigError, ValidationError
from .measures import ShiftMeasure
from .schedules import ConvergenceSeries, geometric_grid


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream); distinct pairs are independent."""
    if seed < 0 or stream < 0:
        raise ConfigError("seed and stream must be >= 0")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A finite symbol path on the alphabet {0, ..., alphabet_size - 1}."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.int64)
        object.__setattr__(self, "symbols", sym)
        if sym.ndim != 1 or sym.size == 0:
            raise ValidationError("trajectory needs a nonempty 1-d symbol array")
        if sym.min() < 0 or sym.max() >= self.alphabet_size:
            raise ValidationError("trajectory symbols out of alphabet range")

    def __len__(self) -> int:
        return int(self.symbols.size)

    def text(self) -> str:
        """The symbols on one line, separated by spaces."""
        names = np.array([str(s) for s in range(int(self.symbols.max()) + 1)], dtype=object)
        return " ".join(names[self.symbols].tolist()) + "\n"


def sample_trajectory(
    Q: ShiftMeasure, N: int, seed: int, stream: int = 0
) -> Trajectory:
    """Draw x_1..x_N from Q, deterministically in (seed, stream)."""
    if N < 1:
        raise ConfigError("trajectory length must be >= 1")
    rng = make_rng(seed, stream)
    return Trajectory(Q._sample(N, rng), alphabet_size=Q.alphabet.size)


def log_prefixes(Q: ShiftMeasure, symbols: np.ndarray) -> np.ndarray:
    """Array [log Q_1(x_1), log Q_2(x_1 x_2), ..., log Q_m(x_1..x_m)]."""
    return Q.prefix_logprobs(symbols)


def checked_grid(grid, offset: int, size: int) -> np.ndarray:
    """grid as an int64 array, checked to fit a path of size symbols.

    It must ascend strictly from 1, and offset + grid[-1] <= size.
    """
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size == 0 or grid[0] < 1 or (np.diff(grid) <= 0).any():
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
    """
    incs = Q.log_increments(paths[:, : grid[-1]])
    neg = ~np.isfinite(incs)
    finite_len = np.where(neg.any(axis=1), neg.argmax(axis=1), incs.shape[1])
    pivot = incs[:, :1]
    with np.errstate(invalid="ignore"):  # -inf - -inf, past a row's finite head
        centered = incs - pivot
        np.cumsum(centered, axis=1, out=centered)
        values = pivot + centered[:, grid - 1] / grid
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
    symbols = x.symbols if isinstance(x, Trajectory) else np.asarray(x, dtype=np.int64)
    if offset < 0:
        raise ConfigError("offset must be >= 0")
    avail = symbols.size - offset
    if avail < 1:
        raise ConfigError("offset leaves no symbols to evaluate")
    grid = checked_grid(geometric_grid(avail) if grid is None else grid, offset, symbols.size)
    values = kingman_rows(symbols[None, offset:], Q, grid)[0]
    return ConvergenceSeries(grid, values)
