"""Entropy-rate estimation from sampled trajectories and level enumeration.

Trajectory estimators watch the normalized log-marginal series
(1/n) log Q_n(x_1..x_n) along x drawn from P.  When Q upper-decouples,
that series converges almost surely; its limit is minus the cross
entropy rate of P against Q (minus the entropy rate when Q = P).  The
estimators store the raw signed series and report both conventions:

    point_estimate: terminal raw value, in [-inf, inf)
    rate:           -point_estimate, in (-inf, +inf]

so a relative entropy of +inf (P-typical words that Q forbids) appears
as a -inf raw terminal plus an explicit infinite flag, and the stored
series never has to hold +inf.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, DecouplingFailure, ValidationError
from .measures import _TABLE_ENTRIES, ShiftMeasure
from .sampling import checked_grid, kingman_rows, kingman_series, sample_paths, sample_trajectory
from .schedules import ConvergenceSeries, geometric_grid


@dataclasses.dataclass(frozen=True)
class EntropyEstimate:
    """Outcome of a trajectory estimator; see the module docstring for signs."""

    kind: str
    series: ConvergenceSeries
    p_label: str
    q_label: str
    seed: int | None
    certificate: dict  # {source, constant, tau}: see _resolve_decoupling
    trials: int = 1
    terminal_se: float | None = None

    @property
    def point_estimate(self) -> float:
        return self.series.terminal

    @property
    def rate(self) -> float:
        return -self.point_estimate

    @property
    def infinite(self) -> bool:
        return self.point_estimate == -np.inf

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "certificate": self.certificate,
            "point_estimate": self.point_estimate,
            "rate": self.rate,
            "infinite": self.infinite,
            "p": self.p_label,
            "q": self.q_label,
            "seed": self.seed,
            "trials": self.trials,
            "terminal_se": self.terminal_se,
        }


def _resolve_decoupling(P: ShiftMeasure, Q: ShiftMeasure, assume_decoupled: bool) -> dict:
    """The certificate that Q is upper-decoupling: {source, constant, tau}.

    Unless assumed, it is Q's kernel bound at gap 0, source "kernel";
    raises DecouplingFailure when Q has none.  An assumption carries no
    number, so its constant and tau are null.  The alphabets of P and Q
    are compared after the certificate is found.
    """
    if assume_decoupled:
        certificate = {"source": "assumed", "constant": None, "tau": None}
    else:
        try:
            certificate = {"source": "kernel", "constant": Q.kernel_bound(0), "tau": 0}
        except ValidationError as exc:
            raise DecouplingFailure(
                f"no decoupling certificate for {Q.label} ({exc.message}); pass "
                "--assume-decoupled (library: assume_decoupled=True)"
            ) from exc
    if P.alphabet.size != Q.alphabet.size:
        raise ConfigError("measures must share one alphabet")
    return certificate


def _path_estimate(kind, P, Q, N, seed, grid, offset, stream, assume_decoupled):
    """The one-path estimate of kind "cross" or "relative"; see the public estimators.

    (1/n) log Q_n along x ~ P drawn on stream (seed, stream), less (1/n)
    log P_n for "relative"; x has N + offset symbols and evaluation
    starts after the first offset.
    """
    certificate = _resolve_decoupling(P, Q, assume_decoupled)
    x = sample_trajectory(P, N + offset, seed, stream)
    series = kingman_series(x, Q, grid=grid, offset=offset)
    if kind == "relative":
        own = kingman_series(x, P, grid=series.ns, offset=offset)
        series = ConvergenceSeries(series.ns, series.values - own.values)
    return EntropyEstimate(kind, series, P.label, Q.label, int(seed), certificate)


def cross_entropy_estimate(
    P: ShiftMeasure,
    Q: ShiftMeasure,
    N: int,
    seed: int,
    grid: np.ndarray | None = None,
    offset: int = 0,
    stream: int = 0,
    assume_decoupled: bool = False,
) -> EntropyEstimate:
    """Single-trajectory cross entropy rate of P against Q.

    Samples x ~ P and follows (1/n) log Q_n along it.  Refuses to run
    without a decoupling certificate for Q, since the almost-sure limit
    is only guaranteed under upper decoupling.
    """
    return _path_estimate("cross", P, Q, N, seed, grid, offset, stream, assume_decoupled)


def relative_entropy_estimate(
    P: ShiftMeasure,
    Q: ShiftMeasure,
    N: int,
    seed: int,
    grid: np.ndarray | None = None,
    offset: int = 0,
    stream: int = 0,
    assume_decoupled: bool = False,
) -> EntropyEstimate:
    """Single-trajectory relative entropy rate of P against Q.

    The stored raw series is (1/n)[log Q_n - log P_n] along x ~ P, so
    the conventional divergence is its negated limit; rate = +inf (with
    the infinite flag) signals that x entered words Q forbids.  The
    P-side series is always finite because sampling never leaves the
    support of P.
    """
    return _path_estimate("relative", P, Q, N, seed, grid, offset, stream, assume_decoupled)


@dataclasses.dataclass(frozen=True)
class MeanSeriesResult:
    """Monte-Carlo mean of per-trial normalized series.

    estimate holds the mean series, se its standard error at each n.
    trial_terminals keeps every trial's final value: for non-ergodic
    samplers (mixtures) these cluster at per-component limits and the
    mean is the only thing that approaches the weighted average.
    """

    estimate: EntropyEstimate
    se: np.ndarray
    trial_terminals: np.ndarray

    def to_json(self) -> dict:
        return {
            "trials": self.estimate.trials,
            "seed": self.estimate.seed,
            "terminal_mean": self.estimate.point_estimate,
            "terminal_se": self.estimate.terminal_se,
            "rate": self.estimate.rate,
            "certificate": self.estimate.certificate,
        }


def mean_convergence_series(
    P: ShiftMeasure,
    Q: ShiftMeasure,
    N: int,
    trials: int,
    seed: int,
    grid: np.ndarray | None = None,
    assume_decoupled: bool = False,
) -> MeanSeriesResult:
    """Average the normalized log Q_n series over independent trials.

    Trial t runs on the generator stream (seed, t), so the whole result
    is reproducible from (seed, trials, N) alone.  The mean at each grid
    point estimates the expected-value convergence of the functional,
    which for a mixture differs from every single path's limit.

    Trials run in groups of at most _TABLE_ENTRIES drawn symbols.  A group
    is one sample_paths draw on the streams of its trials: its rows are
    bit for bit the trials drawn one by one, each still on its own stream
    (seed, t), and an HMM still draws each trial's emission uniforms after
    its hidden ones.  Each trial draws all N symbols (so a shorter draw
    would be another path), which is why N, not grid[-1], sizes a group;
    it keeps the grid[-1] that the grid reads, and the kept paths are
    evaluated as the rows of kingman_rows.
    """
    certificate = _resolve_decoupling(P, Q, assume_decoupled)
    if trials < 2:
        raise ConfigError("mean mode needs at least 2 trials")
    grid = checked_grid(geometric_grid(N) if grid is None else grid, 0, N)
    horizon = int(grid[-1])
    group = max(1, _TABLE_ENTRIES // N)
    rows = np.empty((trials, grid.size), dtype=np.float64)
    for lo in range(0, trials, group):
        hi = min(lo + group, trials)
        paths = sample_paths(P, N, seed, range(lo, hi))[:, :horizon]
        rows[lo:hi] = kingman_rows(paths, Q, grid)  # Q checks the paths it reads
    with np.errstate(invalid="ignore"):
        se = rows.std(axis=0, ddof=1) / np.sqrt(trials)
    estimate = EntropyEstimate(
        "mean-cross", ConvergenceSeries(grid, rows.mean(axis=0)), P.label, Q.label,
        int(seed), certificate, trials=int(trials),
        terminal_se=float(se[-1]) if np.isfinite(se[-1]) else None,
    )
    return MeanSeriesResult(estimate=estimate, se=se, trial_terminals=rows[:, -1].copy())
