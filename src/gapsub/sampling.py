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
    """A finite symbol path together with how it was produced."""

    symbols: np.ndarray
    alphabet_size: int
    measure_label: str = ""
    seed: int | None = None
    stream: int = 0

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
        return " ".join(map(str, self.symbols.tolist())) + "\n"

    def to_text(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())

    @classmethod
    def from_text(cls, path, alphabet_size: int, label: str = "") -> "Trajectory":
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read().split()
        return cls(
            np.asarray(data, dtype=np.int64),
            alphabet_size=alphabet_size,
            measure_label=label,
        )


def sample_trajectory(
    Q: ShiftMeasure, N: int, seed: int, stream: int = 0
) -> Trajectory:
    """Draw x_1..x_N from Q, deterministically in (seed, stream)."""
    if N < 1:
        raise ConfigError("trajectory length must be >= 1")
    rng = make_rng(seed, stream)
    symbols = Q._sample(N, rng)
    return Trajectory(
        symbols,
        alphabet_size=Q.alphabet.size,
        measure_label=Q.label,
        seed=int(seed),
        stream=int(stream),
    )


def log_prefixes(Q: ShiftMeasure, symbols: np.ndarray) -> np.ndarray:
    """Array [log Q_1(x_1), log Q_2(x_1 x_2), ..., log Q_m(x_1..x_m)]."""
    return Q.prefix_logprobs(symbols)


def _normalized_on_grid(incs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Centered-pivot evaluation of (1/n) sum_{i <= n} incs_i on the grid.

    Once an increment is -inf every later normalized value is -inf (log
    marginals only decrease), so the centered sum runs on the finite
    head only.
    """
    neg = ~np.isfinite(incs)
    finite_len = int(np.argmax(neg)) if neg.any() else incs.size
    out = np.full(grid.size, -np.inf)
    if finite_len == 0:
        return out
    incs = incs[:finite_len]
    pivot = float(incs[0])
    centered = np.cumsum(incs - pivot)
    head = grid <= finite_len
    g = grid[head]
    out[head] = pivot + centered[g - 1] / g
    return out


def kingman_series(
    x: Trajectory | np.ndarray,
    Q: ShiftMeasure,
    grid: np.ndarray | None = None,
    offset: int = 0,
) -> ConvergenceSeries:
    """Series n -> (1/n) log Q_n(x_{offset+1} .. x_{offset+n}) on a grid.

    The default grid is geometric with ratio 1.2, ending at the largest
    n the trajectory supports.  Requires offset + max(grid) <= len(x).
    """
    symbols = x.symbols if isinstance(x, Trajectory) else np.asarray(x, dtype=np.int64)
    if offset < 0:
        raise ConfigError("offset must be >= 0")
    avail = symbols.size - offset
    if avail < 1:
        raise ConfigError("offset leaves no symbols to evaluate")
    if grid is None:
        grid = geometric_grid(avail)
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size == 0 or grid[0] < 1 or (np.diff(grid) <= 0).any():
        raise ConfigError("grid must be strictly increasing and >= 1")
    horizon = int(grid[-1])
    if offset + horizon > symbols.size:
        raise ConfigError(
            f"grid needs {offset + horizon} symbols, trajectory has {symbols.size}"
        )
    values = _normalized_on_grid(Q.log_increments(symbols[offset : offset + horizon]), grid)
    return ConvergenceSeries(grid, values)
