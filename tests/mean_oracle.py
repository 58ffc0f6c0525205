"""Test-only oracle: estimate mean as it stood before its trials became rows.

mean_convergence_series draws trial t on stream (seed, t) and evaluates it
alone, one path at a time: the per-symbol increments of Q along the path
(iid and Markov exact terms, HMM and mixture differences of prefixes from
hmm_oracle and lse_oracle), then the centered-pivot normalization on the
grid with its -inf head rule.  The batched estimator must reproduce its
rows, and every file `estimate mean` writes from them, bit for bit.
"""
from __future__ import annotations

import numpy as np

from gapsub import (
    ConvergenceSeries,
    EntropyEstimate,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MeanSeriesResult,
    MixtureMeasure,
    geometric_grid,
    sample_trajectory,
)
from gapsub.estimators import _resolve_decoupling

import hmm_oracle
from lse_oracle import log_sum_exp


def prefixes(Q, x: np.ndarray) -> np.ndarray:
    """log Q_n(x_1..x_n) for every n, one path."""
    if isinstance(Q, HiddenMarkovMeasure):
        return hmm_oracle.prefix_logprobs(Q, x)
    if isinstance(Q, MixtureMeasure):
        return log_sum_exp(
            np.stack([lw + prefixes(c, x) for lw, c in zip(Q.log_weights, Q.components)]),
            axis=0,
        )
    return np.cumsum(increments(Q, x))


def increments(Q, x: np.ndarray) -> np.ndarray:
    """Per-symbol increments of prefixes(Q, x)."""
    if isinstance(Q, IIDMeasure):
        return Q.log_p[x]
    if isinstance(Q, MarkovMeasure):
        out = np.empty(x.size)
        out[0] = Q.log_start[x[0]]
        if x.size > 1:
            out[1:] = Q.log_P[x[:-1], x[1:]]
        return out
    with np.errstate(invalid="ignore"):
        return np.diff(prefixes(Q, x), prepend=0.0)


def normalized_on_grid(incs: np.ndarray, grid: np.ndarray) -> np.ndarray:
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


def trial_rows(P, Q, N: int, trials: int, seed: int, grid: np.ndarray) -> np.ndarray:
    """Row t: (1/n) log Q_n along trial t's path, at each n of grid."""
    rows = np.empty((trials, grid.size))
    for t in range(trials):
        x = sample_trajectory(P, N, seed, t).symbols
        rows[t] = normalized_on_grid(increments(Q, x[: grid[-1]]), grid)
    return rows


def mean_convergence_series(
    P, Q, N, trials, seed, grid=None, assume_decoupled=False
) -> MeanSeriesResult:
    certificate = _resolve_decoupling(P, Q, assume_decoupled)
    grid = np.asarray(geometric_grid(N) if grid is None else grid, dtype=np.int64)
    rows = trial_rows(P, Q, N, trials, seed, grid)
    with np.errstate(invalid="ignore"):
        se = rows.std(axis=0, ddof=1) / np.sqrt(trials)
    estimate = EntropyEstimate(
        "mean-cross", ConvergenceSeries(grid, rows.mean(axis=0)), P.label, Q.label,
        int(seed), certificate, trials=int(trials),
        terminal_se=float(se[-1]) if np.isfinite(se[-1]) else None,
    )
    return MeanSeriesResult(estimate=estimate, se=se, trial_terminals=rows[:, -1].copy())
