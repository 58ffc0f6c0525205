"""Entropy-rate estimation from sampled trajectories and closed forms.

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

from .decoupling import DecouplingReport, TheoremData
from .errors import CapExceededError, ConfigError, DecouplingFailure, ValidationError
from .measures import IIDMeasure, MarkovMeasure, ShiftMeasure
from .sampling import kingman_series, sample_trajectory
from .schedules import ConvergenceSeries, geometric_grid


@dataclasses.dataclass(frozen=True)
class EntropyEstimate:
    """Outcome of a trajectory estimator; see the module docstring for signs."""

    kind: str
    point_estimate: float
    rate: float
    infinite: bool
    series: ConvergenceSeries
    p_label: str
    q_label: str
    seed: int | None
    certificate: dict  # {source, constant, tau}: see _resolve_decoupling
    trials: int = 1
    terminal_se: float | None = None

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


def as_markov(Q: ShiftMeasure) -> MarkovMeasure:
    """View an iid measure as the Markov chain with identical rows."""
    if isinstance(Q, MarkovMeasure):
        return Q
    if isinstance(Q, IIDMeasure):
        k = Q.alphabet.size
        return MarkovMeasure(np.tile(Q.p, (k, 1)))
    raise ConfigError(f"no Markov view for family {Q.family!r}")


def _plogp_rows(P: np.ndarray, logP: np.ndarray) -> np.ndarray:
    # 0 log 0 = 0 by continuity
    with np.errstate(invalid="ignore"):
        return np.where(P > 0, P * logP, 0.0)


def closed_form_entropy_rate(Q: MarkovMeasure | IIDMeasure) -> float:
    """h = -sum_i pi_i sum_j P_ij log P_ij, in nats."""
    Q = as_markov(Q)
    if not Q.stationary_start:
        raise ConfigError("entropy rate is defined for the stationary chain")
    rows = _plogp_rows(Q.P, Q.log_P).sum(axis=1)
    return float(-(Q.start @ rows))


def closed_form_cross_entropy_rate(
    P: MarkovMeasure | IIDMeasure, Q: MarkovMeasure | IIDMeasure
) -> float:
    """sum_i pi_P(i) sum_j P_ij (-log Q_ij); +inf when Q forbids a P-step."""
    P = as_markov(P)
    Q = as_markov(Q)
    if not P.stationary_start:
        raise ConfigError("cross entropy rate is defined for the stationary chain")
    if P.alphabet.size != Q.alphabet.size:
        raise ConfigError("measures must share one alphabet")
    mass_on_forbidden = P.P[(P.P > 0) & (Q.P == 0)]
    if mass_on_forbidden.size:
        return float("inf")
    rows = _plogp_rows(P.P, Q.log_P).sum(axis=1)
    return float(-(P.start @ rows))


def closed_form_kl_rate(
    P: MarkovMeasure | IIDMeasure, Q: MarkovMeasure | IIDMeasure
) -> float:
    """Relative entropy rate sum_i pi_P(i) sum_j P_ij log(P_ij / Q_ij).

    Computed as cross entropy rate minus entropy rate; +inf exactly when
    some P_ij > 0 sits on Q_ij = 0.
    """
    cross = closed_form_cross_entropy_rate(P, Q)
    if cross == float("inf"):
        return cross
    return float(cross - closed_form_entropy_rate(as_markov(P)))


def marginal_entropy(Q: ShiftMeasure, n: int, cap: int = 10**7) -> float:
    """H(Q_n) = -sum_w Q_n(w) log Q_n(w) by enumeration."""
    lv = Q.log_marginals_level(n, cap=cap)
    finite = lv[np.isfinite(lv)]
    return float(-(np.exp(finite) @ finite))


def brute_force_kl_level(
    P: ShiftMeasure, Q: ShiftMeasure, n: int, cap: int = 10**7
) -> float:
    """Exact D(P_n || Q_n) = sum_w P_n(w) log(P_n(w)/Q_n(w)) by enumeration.

    +inf when some word has P-mass but no Q-mass.  Useful as a slow
    cross-check of n times the rate estimates at small n.
    """
    if P.alphabet.size != Q.alphabet.size:
        raise ConfigError("measures must share one alphabet")
    lp = P.log_marginals_level(n, cap=cap)
    lq = Q.log_marginals_level(n, cap=cap)
    support = np.isfinite(lp)
    if (~np.isfinite(lq) & support).any():
        return float("inf")
    p = np.exp(lp[support])
    return float(p @ (lp[support] - lq[support]))


def _resolve_decoupling(
    Q: ShiftMeasure,
    evidence: DecouplingReport | TheoremData | None,
    assume_decoupled: bool,
) -> dict:
    """The certificate that Q is upper-decoupling: {source, constant, tau}.

    Without evidence or assumption it is Q's kernel bound at gap 0, source
    "kernel"; raises DecouplingFailure when Q has none.  constant and tau
    are null for the other sources, which carry no one number.
    """
    if assume_decoupled:
        source = "assumed"
    elif isinstance(evidence, TheoremData):
        source = evidence.source
    elif isinstance(evidence, DecouplingReport):
        if evidence.failed:
            raise DecouplingFailure(
                f"audit of {evidence.measure_label} failed; the series need not converge",
                witnesses=[dataclasses.astuple(p) for p in evidence.positivity_failures],
            )
        source = "audit"
    else:
        try:
            return {"source": "kernel", "constant": Q.kernel_bound(0), "tau": 0}
        except ValidationError as exc:
            raise DecouplingFailure(
                f"no decoupling certificate for {Q.label} ({exc}); pass an audit "
                "report or assume_decoupled=True"
            ) from exc
    return {"source": source, "constant": None, "tau": None}


def cross_entropy_estimate(
    P: ShiftMeasure,
    Q: ShiftMeasure,
    N: int,
    seed: int,
    grid: np.ndarray | None = None,
    offset: int = 0,
    stream: int = 0,
    decoupling: DecouplingReport | TheoremData | None = None,
    assume_decoupled: bool = False,
) -> EntropyEstimate:
    """Single-trajectory cross entropy rate of P against Q.

    Samples x ~ P and follows (1/n) log Q_n along it.  Refuses to run
    without a decoupling certificate for Q, since the almost-sure limit
    is only guaranteed under upper decoupling.
    """
    certificate = _resolve_decoupling(Q, decoupling, assume_decoupled)
    if P.alphabet.size != Q.alphabet.size:
        raise ConfigError("measures must share one alphabet")
    x = sample_trajectory(P, N + offset, seed, stream)
    series = kingman_series(x, Q, grid=grid, offset=offset, label="cross-entropy-raw")
    point = series.terminal
    return EntropyEstimate(
        kind="cross",
        point_estimate=point,
        rate=-point,
        infinite=(point == -np.inf),
        series=series,
        p_label=P.label,
        q_label=Q.label,
        seed=int(seed),
        certificate=certificate,
    )


def relative_entropy_estimate(
    P: ShiftMeasure,
    Q: ShiftMeasure,
    N: int,
    seed: int,
    grid: np.ndarray | None = None,
    offset: int = 0,
    stream: int = 0,
    decoupling: DecouplingReport | TheoremData | None = None,
    assume_decoupled: bool = False,
) -> EntropyEstimate:
    """Single-trajectory relative entropy rate of P against Q.

    The stored raw series is (1/n)[log Q_n - log P_n] along x ~ P, so
    the conventional divergence is its negated limit; rate = +inf (with
    the infinite flag) signals that x entered words Q forbids.  The
    P-side series is always finite because sampling never leaves the
    support of P.
    """
    certificate = _resolve_decoupling(Q, decoupling, assume_decoupled)
    if P.alphabet.size != Q.alphabet.size:
        raise ConfigError("measures must share one alphabet")
    x = sample_trajectory(P, N + offset, seed, stream)
    series_q = kingman_series(x, Q, grid=grid, offset=offset)
    series_p = kingman_series(x, P, grid=series_q.ns, offset=offset)
    raw = series_q.values - series_p.values
    series = ConvergenceSeries(
        series_q.ns,
        raw,
        label="relative-entropy-raw",
        meta={
            "p": P.label,
            "q": Q.label,
            "seed": int(seed),
            "offset": int(offset),
            "sign": "raw = (1/n)(log Q_n - log P_n); divergence = -raw",
        },
    )
    point = series.terminal
    return EntropyEstimate(
        kind="relative",
        point_estimate=point,
        rate=-point,
        infinite=(point == -np.inf),
        series=series,
        p_label=P.label,
        q_label=Q.label,
        seed=int(seed),
        certificate=certificate,
    )


@dataclasses.dataclass(frozen=True)
class MeanSeriesResult:
    """Monte-Carlo mean of per-trial normalized series.

    trial_terminals keeps every trial's final value: for non-ergodic
    samplers (mixtures) these cluster at per-component limits and the
    mean is the only thing that approaches the weighted average.
    """

    series: ConvergenceSeries
    se: np.ndarray
    trial_terminals: np.ndarray
    trials: int
    seed: int
    estimate: EntropyEstimate

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
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
    decoupling: DecouplingReport | TheoremData | None = None,
    assume_decoupled: bool = False,
) -> MeanSeriesResult:
    """Average the normalized log Q_n series over independent trials.

    Trial t runs on the generator stream (seed, t), so the whole result
    is reproducible from (seed, trials, N) alone.  The mean at each grid
    point estimates the expected-value convergence of the functional,
    which for a mixture differs from every single path's limit.
    """
    certificate = _resolve_decoupling(Q, decoupling, assume_decoupled)
    if P.alphabet.size != Q.alphabet.size:
        raise ConfigError("measures must share one alphabet")
    if trials < 2:
        raise ConfigError("mean mode needs at least 2 trials")
    if grid is None:
        grid = geometric_grid(N)
    grid = np.asarray(grid, dtype=np.int64)
    rows = np.empty((trials, grid.size), dtype=np.float64)
    for t in range(trials):
        x = sample_trajectory(P, N, seed, stream=t)
        rows[t] = kingman_series(x, Q, grid=grid).values
    means = rows.mean(axis=0)
    with np.errstate(invalid="ignore"):
        se = rows.std(axis=0, ddof=1) / np.sqrt(trials)
    series = ConvergenceSeries(
        grid,
        means,
        label="mean-normalized-log-marginal",
        meta={
            "p": P.label,
            "q": Q.label,
            "seed": int(seed),
            "trials": int(trials),
        },
    )
    point = series.terminal
    estimate = EntropyEstimate(
        kind="mean-cross",
        point_estimate=point,
        rate=-point,
        infinite=(point == -np.inf),
        series=series,
        p_label=P.label,
        q_label=Q.label,
        seed=int(seed),
        certificate=certificate,
        trials=int(trials),
        terminal_se=float(se[-1]) if np.isfinite(se[-1]) else None,
    )
    return MeanSeriesResult(
        series=series,
        se=se,
        trial_terminals=rows[:, -1].copy(),
        trials=int(trials),
        seed=int(seed),
        estimate=estimate,
    )
