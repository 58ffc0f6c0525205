"""Upper-decoupling audits for shift measures.

A measure Q upper-decouples with gap schedule tau and constants c_n when
for all words a (length n) and b (length m),

    Q(a * b) <= exp(c_n) Q(a) Q(b),

where a * b ranges over all joints of a and b separated by tau_n free
symbols (the gap block is summed out).  The audit computes the smallest
such constants exactly by enumeration; ShiftMeasure.kernel_bound bounds
them in closed form through the (tau+1)-step kernel of the hidden chain.

These constants are exactly what the limit theory consumes: along a
sampled trajectory the functional f_n = log Q_n becomes gapped almost
subadditive with error rho_n = max(c_n, 0) and gap sigma_n = tau_n.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CapExceededError, ConfigError, DecouplingFailure, ScheduleRangeError
from .fekete import PAIRWISE_CAP, SubadditivityCheck, split_scan
from .logspace import log_sum_exp_into
from .measures import IIDMeasure, ShiftMeasure, _words_over_cap
# log_prefixes is re-exported: the benchmark's tracer wraps it here by name
from .sampling import Trajectory, log_prefixes  # noqa: F401
from .schedules import ErrorSchedule, GapSchedule, index_blocks


def _word_of_index(idx: int, k: int, n: int) -> tuple[int, ...]:
    return tuple(int(s) for s in np.unravel_index(idx, (k,) * n))


@dataclasses.dataclass(frozen=True)
class PositivityFailure:
    """A joint word with positive mass whose halves have none."""

    n: int
    m: int
    a: tuple[int, ...]
    b: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class WorstPair:
    n: int
    m: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    defect: float


@dataclasses.dataclass(frozen=True)
class DecouplingReport:
    measure_label: str
    n_values: tuple[int, ...]
    constants: tuple[float, ...]
    tau: GapSchedule
    m_max: int
    worst_pairs: tuple[WorstPair, ...]
    positivity_failures: tuple[PositivityFailure, ...]
    method: str = "enumeration"

    @property
    def failed(self) -> bool:
        return bool(self.positivity_failures) or any(
            not np.isfinite(c) for c in self.constants
        )

    def constant(self, n: int) -> float:
        return float(self.constants[self.n_values.index(n)])

    def to_json(self) -> dict:
        return {
            "measure": self.measure_label,
            "tau": self.tau.to_json(),
            "m_max": self.m_max,
            "n_values": list(self.n_values),
            "constants": list(self.constants),
            "failed": self.failed,
            "method": self.method,
            "worst_pairs": [dataclasses.asdict(w) for w in self.worst_pairs],
            "positivity_failures": [
                dataclasses.asdict(p) for p in self.positivity_failures
            ],
        }


# joint words held at a time per m: first-block rows per chunk are
# max(1, _JOINT_WORDS // k**(tau + m_max))
_JOINT_WORDS = 1 << 16
_FAILURES_KEPT = 20  # positivity failures a report lists


def _longest_joint_head(tau: GapSchedule, n_max: int) -> int:
    """max of n + tau_n over n = 1 .. n_max, one numpy pass per index block.

    A block whose schedule values raise is replayed n by n, so the error
    names the first n that fails, as tau.value(n) in a loop would.
    """
    worst = 0
    for ns in index_blocks(n_max):
        try:
            ts = tau.values(ns)
        except ScheduleRangeError:
            for n in ns.tolist():
                tau.value(n)
            raise
        worst = max(worst, int((ns + ts).max()))
    return worst


def _joint_chunks(Q: ShiftMeasure, state, words: int, tau: int, m_max: int):
    """(lo, m, J): J[i, b] = log Q(a * b) for the first-block word a = lo + i.

    state is the level-n state of all `words` first blocks.  Each chunk of
    rows extends by tau symbols, then by one more for each m, so the joint
    level n + tau + m is never built whole; the gap block is summed out.

    The gap sum runs on a gap-major copy, (gap, a, b), so numpy's inner
    loops run over the whole chunk.  The gap axis was never innermost (k^m
    second blocks follow it), so numpy summed it left to right before too.
    """
    k = Q.alphabet.size
    rows = max(1, _JOINT_WORDS // k ** (tau + m_max))
    for lo in range(0, words, rows):
        hi = min(lo + rows, words)
        ext = Q._level_extend(Q._level_rows(state, lo, hi), tau)
        for m in range(1, m_max + 1):
            ext = Q._level_extend(ext, 1)
            full = Q._level_totals(ext)
            if tau == 0:
                yield lo, m, full.reshape(hi - lo, k**m)
            else:
                terms = full.reshape(hi - lo, k**tau, k**m).transpose(1, 0, 2).copy()
                lse = np.empty(terms.shape[1:])
                with np.errstate(divide="ignore"):
                    log_sum_exp_into(terms, np.empty(terms.shape[1:]), lse)
                yield lo, m, lse


def minimal_decoupling_constants(
    Q: ShiftMeasure,
    n_max: int,
    m_max: int,
    tau: GapSchedule,
    cap: int = 10**7,
) -> DecouplingReport:
    """Exact smallest c_n over all word pairs up to the given lengths.

    c_n = max over m <= m_max and words (a, b) of
    log Q(a * b) - log Q(a) - log Q(b), skipping pairs where both sides
    vanish.  A pair with Q(a * b) > 0 but Q(a) Q(b) = 0 admits no finite
    constant; it is recorded and the report flags failure.

    The joint levels stream from the level-n state in chunks of first-block
    words; the worst pair is the first in (m, a, b) order, and the first 20
    positivity failures in (n, m, a, b) order are listed.

    For a product measure Q(a * b) = Q(a) Q(b) is an identity, so the
    minimal constant is 0 with no float association noise; an iid input
    gets that exact value, with no enumeration.
    """
    if n_max < 1 or m_max < 1:
        raise ConfigError("n_max and m_max must be >= 1")
    k = Q.alphabet.size
    # the longest joint level is found before any per-n work, so a cap
    # refusal costs numpy passes over n, not a Python loop
    worst_len = _longest_joint_head(tau, n_max) + m_max
    if isinstance(Q, IIDMeasure):
        return DecouplingReport(
            measure_label=Q.label,
            n_values=tuple(range(1, n_max + 1)),
            constants=tuple(0.0 for _ in range(n_max)),
            tau=tau,
            m_max=m_max,
            worst_pairs=(),
            positivity_failures=(),
            method="product-identity",
        )
    words = _words_over_cap(k, worst_len, cap)
    if words:
        raise CapExceededError(
            f"audit needs {words} words at length {worst_len}, cap is {cap}"
        )
    taus = [tau.value(n) for n in range(1, n_max + 1)]
    # every level the audit touches passes the family's level cap before
    # any is computed; a refusal names the first one over it in the order
    # n, then m and n + tau + m for each m
    for n, t in zip(range(1, n_max + 1), taus):
        Q._guard_level(n, cap)
        for m in range(1, m_max + 1):
            Q._guard_level(m, cap)
            Q._guard_level(n + t + m, cap)
    B = [None] + [Q.log_marginals_level(m, cap=cap) for m in range(1, m_max + 1)]
    constants: list[float] = []
    worst: list[WorstPair] = []
    failures: list[PositivityFailure] = []
    for n, t in zip(range(1, n_max + 1), taus):
        state = Q._level_state(n)
        A = Q._level_totals(state)
        # per m: the largest defect, its first (a, b), the first failures
        best = [-np.inf] * (m_max + 1)
        best_at: list[tuple[int, int] | None] = [None] * (m_max + 1)
        failed: list[list[tuple[int, int]]] = [[] for _ in range(m_max + 1)]
        had_positivity_failure = False
        for lo, m, J in _joint_chunks(Q, state, A.size, t, m_max):
            a = A[lo:lo + J.shape[0], None]
            with np.errstate(invalid="ignore"):
                D = J - a - B[m][None, :]
            finite = np.isfinite(D)
            # a positivity failure has D = +inf, so only a chunk with a
            # non-finite D can hold one
            if not finite.all():
                pos_fail = np.isfinite(J) & ~np.isfinite(a + B[m][None, :])
                if pos_fail.any():
                    had_positivity_failure = True
                    ai, bi = np.nonzero(pos_fail)
                    room = _FAILURES_KEPT - len(failed[m])
                    failed[m] += [(lo + int(i), int(j)) for i, j in zip(ai[:room], bi[:room])]
                D = np.where(finite, D, -np.inf)
            if finite.any():
                ai, bi = np.unravel_index(int(np.argmax(D)), D.shape)
                cand = float(D[ai, bi])
                if cand > best[m]:
                    best[m] = cand
                    best_at[m] = (lo + int(ai), int(bi))
        top, top_at = -np.inf, None
        for m in range(1, m_max + 1):
            for ai, bi in failed[m][: _FAILURES_KEPT - len(failures)]:
                failures.append(
                    PositivityFailure(
                        n=n, m=m, a=_word_of_index(ai, k, n), b=_word_of_index(bi, k, m)
                    )
                )
            if best_at[m] is not None and best[m] > top:
                top, top_at = best[m], (*best_at[m], m)
        constants.append(float("inf") if had_positivity_failure else float(top))
        if top_at is not None:
            ai, bi, m = top_at
            worst.append(
                WorstPair(
                    n=n,
                    m=m,
                    a=_word_of_index(ai, k, n),
                    b=_word_of_index(bi, k, m),
                    defect=float(top),
                )
            )
    return DecouplingReport(
        measure_label=Q.label,
        n_values=tuple(range(1, n_max + 1)),
        constants=tuple(constants),
        tau=tau,
        m_max=m_max,
        worst_pairs=tuple(worst),
        positivity_failures=tuple(failures),
    )


@dataclasses.dataclass(frozen=True)
class TheoremData:
    """Error and gap schedules ready for the limit machinery."""

    rho: ErrorSchedule
    sigma: GapSchedule
    source: str


def decoupling_to_theorem_data(
    source: DecouplingReport | float,
    tau: GapSchedule | int | None = None,
) -> TheoremData:
    """Package audited or bounded constants as (rho, sigma) schedules.

    rho_n = max(c_n, 0): the subadditivity defect must be nonnegative
    even when the audited constant is negative.  From a report the rho
    table covers exactly the audited n range; from a scalar bound both
    schedules are constant.  A failed report is refused.
    """
    if isinstance(source, DecouplingReport):
        if source.failed:
            raise DecouplingFailure(
                "cannot build theorem schedules from a failed audit",
                witnesses=[dataclasses.astuple(p) for p in source.positivity_failures],
            )
        rho = ErrorSchedule.from_table([max(c, 0.0) for c in source.constants])
        return TheoremData(rho=rho, sigma=source.tau, source="audit")
    c = float(source)
    if not np.isfinite(c):
        raise DecouplingFailure("cannot build theorem schedules from an infinite constant")
    if tau is None:
        raise ConfigError("a scalar constant needs an explicit gap")
    sigma = tau if isinstance(tau, GapSchedule) else GapSchedule.constant(int(tau))
    return TheoremData(
        rho=ErrorSchedule.constant(max(c, 0.0)), sigma=sigma, source="bound"
    )


@dataclasses.dataclass(frozen=True)
class TrajectoryCheck(SubadditivityCheck):
    """A split check along one path, with the largest excess over all pairs."""

    max_excess: float


def check_trajectory_subadditivity(
    x: Trajectory | np.ndarray,
    Q: ShiftMeasure,
    rho: ErrorSchedule,
    sigma: GapSchedule,
    N: int | None = None,
    tol: float = 1e-10,
    max_report: int = 200,
) -> TrajectoryCheck:
    """Test f_{n+sigma_n+m}(x) <= f_n(x) + rho_n + f_m(shifted x) pairwise.

    f_n = log Q_n along the given path; the second block is evaluated
    after shifting by n + sigma_n.  All pairs with n + sigma_n + m <= N
    are covered by fekete.split_scan, each block through Q.windows, in
    O(N^2) arithmetic; a horizon above fekete.PAIRWISE_CAP is refused.

    tol is an absolute slack for float cancellation: exact ties like a
    deterministic transition evaluate to excess 0 up to rounding.
    """
    symbols = x.symbols if isinstance(x, Trajectory) else np.asarray(x, dtype=np.int64)
    if N is None:
        N = symbols.size
    if N > symbols.size:
        raise ConfigError(f"horizon {N} exceeds trajectory length {symbols.size}")
    if N > PAIRWISE_CAP:
        raise CapExceededError(f"pairwise check at N = {N} exceeds cap {PAIRWISE_CAP}")
    wl = Q.windows(symbols[:N])
    ns = np.arange(1, N + 1, dtype=np.int64)
    found, total, max_excess = split_scan(
        wl.suffix(0, N), wl.suffix, sigma.values(ns), rho.values(ns), tol, max_report
    )
    return TrajectoryCheck(
        ok=(total == 0),
        violations=found,
        violation_count=total,
        horizon=int(N),
        tol=tol,
        max_excess=max_excess,
    )
