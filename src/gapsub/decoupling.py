"""Upper-decoupling audits for shift measures.

A measure Q upper-decouples with gap schedule tau and constants c_n when
for all words a (length n) and b (length m),

    Q(a * b) <= exp(c_n) Q(a) Q(b),

where a * b ranges over all joints of a and b separated by tau_n free
symbols (the gap block is summed out).  The audit computes the smallest
such constants exactly by enumeration, walking each joint level once and
reading every split (n, m) of that length from it;
ShiftMeasure.kernel_bound bounds them in closed form through the
(tau+1)-step kernel of the hidden chain.

These constants are exactly what the limit theory consumes: along a
sampled trajectory the functional f_n = log Q_n becomes gapped almost
subadditive with error rho_n = max(c_n, 0) and gap sigma_n = tau_n.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CapExceededError, ConfigError, check_tol
from .fekete import SubadditivityCheck, check_pairwise_horizon, split_scan
from .logspace import log_sum_exp_into
from .measures import WORD_CAP, ShiftMeasure
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


# floats a piece of the joint walk holds once extended: a node is cut into
# pieces of at most this many before it extends, unless one word of the
# coarsest level the cut may use needs more on its own
_JOINT_WORDS = 1 << 15
_FAILURES_KEPT = 20  # positivity failures a report lists


def _longest_joint_head(tau: GapSchedule, n_max: int) -> int:
    """max of n + tau_n over n = 1 .. n_max, one numpy pass per index block.

    An error names the first n that fails, as tau.value(n) in a loop would.
    """
    return max(int((ns + tau.values(ns)).max()) for ns in index_blocks(n_max))


@dataclasses.dataclass
class _Split:
    """The running scan of one split (n, m) with gap tau = tau_n.

    best is the largest defect so far and best_at the flat (a, b) indices
    of its first occurrence; failed lists the first positivity failures.
    """

    n: int
    tau: int
    m: int
    best: float = -np.inf
    best_at: tuple[int, int] | None = None
    failed: list[tuple[int, int]] = dataclasses.field(default_factory=list)

    def scan(self, full: np.ndarray, lo: int, tables: list, k: int) -> None:
        """Read the split off full = log Q of the joint words lo, lo + 1, ...

        The words are whole blocks of k^(tau + m): every extension of the
        first-block words from lo // k^(tau + m) on.  The gap sum runs on a
        gap-major copy, (gap, a, b), so numpy's inner loops run over the
        node; the gap axis is never innermost (k^m second blocks follow
        it), so numpy sums it left to right, wherever the node is cut.
        """
        width = k ** (self.tau + self.m)
        rows, a0 = full.size // width, lo // width
        if self.tau == 0:
            J = full.reshape(rows, k**self.m)
        else:
            terms = full.reshape(rows, k**self.tau, k**self.m).transpose(1, 0, 2).copy()
            J = log_sum_exp_into(terms, np.empty(terms.shape[1:]), np.empty(terms.shape[1:]))
        a, b = tables[self.n][a0:a0 + rows, None], tables[self.m][None, :]
        D = J - a - b
        at = int(np.argmax(D))
        top = D.flat[at]
        if not np.isfinite(top):
            # argmax stops at the first nan, so a finite maximum means no nan
            # and no +inf; a positivity failure has D = +inf
            finite = np.isfinite(D)
            pos_fail = np.isfinite(J) & ~np.isfinite(a + b)
            if pos_fail.any():
                ai, bi = np.nonzero(pos_fail)
                room = _FAILURES_KEPT - len(self.failed)
                self.failed += [(a0 + int(i), int(j)) for i, j in zip(ai[:room], bi[:room])]
            if not finite.any():
                return
            at = int(np.argmax(np.where(finite, D, -np.inf)))
            top = D.flat[at]
        if top > self.best:
            self.best = float(top)
            self.best_at = (a0 + at // b.size, at % b.size)


def _walk_joint_levels(Q: ShiftMeasure, splits: dict[int, list[_Split]], tables: list) -> None:
    """Scan every split in one depth-first walk over the joint levels.

    splits maps each joint level n + tau_n + m to its splits.  A node holds
    a contiguous range of words of its level: every extension of some
    words of a shorter level p.  It takes its totals once, if any split
    sits at its level, and each of those splits reads them.  It then
    extends by one symbol, in pieces cut at whole words of level
    min(p, level - 1), where p is the least first-block length of any
    split at the next level or deeper; so each split's gap and second
    blocks lie whole inside a node even where n + tau_n is not monotone,
    and every cut falls at a multiple of k, never inside a group of k
    words (Q._level_extend relies on it).  A piece holds at most
    _JOINT_WORDS floats once extended (Q._level_floats per word), or one
    word of that level if that alone is more.  Pieces are visited in
    ascending order, so each split sees its first-block words in order.
    """
    k = Q.alphabet.size
    deepest = max(splits)
    least = [0] * (deepest + 1)  # least[l]: least n of a split at level l or deeper
    run = deepest
    for level in range(deepest, 0, -1):
        run = min([run] + [s.n for s in splits.get(level, ())])
        least[level] = run
    floats = k * Q._level_floats

    def visit(state, level: int, lo: int, rows: int) -> None:
        if level in splits:
            full = Q._level_totals(state)
            for split in splits[level]:
                split.scan(full, lo, tables, k)
            del full  # not held while the children are walked
        if level == deepest:
            return
        word = k ** max(level - least[level + 1], 1)  # rows per word of level min(p, level - 1)
        step = max(1, _JOINT_WORDS // (word * floats)) * word
        for a in range(0, rows, step):
            b = min(a + step, rows)
            child = Q._level_extend(Q._level_rows(state, a, b), 1)
            visit(child, level + 1, (lo + a) * k, (b - a) * k)

    visit(Q._level_start(), 1, 0, k)


def minimal_decoupling_constants(
    Q: ShiftMeasure,
    n_max: int,
    m_max: int,
    tau: GapSchedule,
    cap: int = WORD_CAP,
) -> DecouplingReport:
    """Exact smallest c_n over all word pairs up to the given lengths.

    c_n = max over m <= m_max and words (a, b) of
    log Q(a * b) - log Q(a) - log Q(b), skipping pairs where both sides
    vanish.  A pair with Q(a * b) > 0 but Q(a) Q(b) = 0 admits no finite
    constant; it is recorded and the report flags failure.

    A joint word of length L is the same word for every split (n, m) with
    n + tau_n + m = L, so each joint level is walked once, depth first
    from level 1, in pieces of at most _JOINT_WORDS floats, and every
    split reads its defects from the node (_walk_joint_levels).  The worst
    pair is the first in (m, a, b) order, and the first 20 positivity
    failures in (n, m, a, b) order are listed.

    cap bounds the floats of a level state, as for log_marginals_level.
    Every table and joint level is at most max_n (n + tau_n) + m_max
    long, so that deepest level is checked once, before any table.

    For a product record (HiddenChain.product) Q(a * b) = Q(a) Q(b) is an
    identity, so its constants are exactly 0, with no enumeration.
    """
    if n_max < 1 or m_max < 1:
        raise ConfigError("n_max and m_max must be >= 1")
    k = Q.alphabet.size
    # the longest joint level is found before any per-n work, so a cap
    # refusal costs numpy passes over n, not a Python loop
    worst_len = _longest_joint_head(tau, n_max) + m_max
    if Q._hidden().product:
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
    # the level budget of the deepest level covers every shorter one
    need = Q._level_need(worst_len, cap)
    if need:
        raise CapExceededError(f"audit needs {need} at length {worst_len}, cap is {cap}")
    taus = tau.values(np.arange(1, n_max + 1, dtype=np.int64)).tolist()
    # tables[l] is log Q over level l, both A_n and B_m
    tables = [None] + [Q.log_marginals_level(l, cap=cap) for l in range(1, max(n_max, m_max) + 1)]
    by_n = [[_Split(n, t, m) for m in range(1, m_max + 1)] for n, t in zip(range(1, n_max + 1), taus)]
    splits: dict[int, list[_Split]] = {}
    for split in (s for row in by_n for s in row):
        splits.setdefault(split.n + split.tau + split.m, []).append(split)
    with np.errstate(divide="ignore", invalid="ignore"):
        _walk_joint_levels(Q, splits, tables)
    constants: list[float] = []
    worst: list[WorstPair] = []
    failures: list[PositivityFailure] = []
    for n, row in enumerate(by_n, 1):
        top = None
        for split in row:
            for ai, bi in split.failed[: _FAILURES_KEPT - len(failures)]:
                failures.append(
                    PositivityFailure(
                        n=n, m=split.m, a=_word_of_index(ai, k, n), b=_word_of_index(bi, k, split.m)
                    )
                )
            if split.best_at is not None and (top is None or split.best > top.best):
                top = split
        if any(split.failed for split in row):
            constants.append(float("inf"))
        else:
            constants.append(-np.inf if top is None else top.best)
        if top is not None:
            ai, bi = top.best_at
            worst.append(
                WorstPair(
                    n=n,
                    m=top.m,
                    a=_word_of_index(ai, k, n),
                    b=_word_of_index(bi, k, top.m),
                    defect=top.best,
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


def check_trajectory_subadditivity(
    x: Trajectory | np.ndarray,
    Q: ShiftMeasure,
    rho: ErrorSchedule,
    sigma: GapSchedule,
    N: int | None = None,
    tol: float = 1e-10,
    max_report: int = 200,
) -> SubadditivityCheck:
    """Test f_{n+sigma_n+m}(x) <= f_n(x) + rho_n + f_m(shifted x) pairwise.

    f_n = log Q_n along the given path; the second block is evaluated
    after shifting by n + sigma_n.  All pairs with n + sigma_n + m <= N
    are covered by fekete.split_scan, each block through Q.windows, in
    O(N^2) arithmetic.  N defaults to the path's length; fekete's
    check_pairwise_horizon refuses it below 1 or above fekete.PAIRWISE_CAP
    before the path is read.

    tol is an absolute slack for float cancellation: exact ties like a
    deterministic transition evaluate to excess 0 up to rounding.  It must
    be finite and >= 0, and is checked first.
    """
    check_tol(tol)
    symbols = np.asarray(x)  # checked by Q.windows
    N = symbols.size if N is None else N
    check_pairwise_horizon(N)
    if N > symbols.size:
        raise ConfigError(f"horizon {N} exceeds trajectory length {symbols.size}")
    wl = Q.windows(symbols[:N])
    ns = np.arange(1, N + 1, dtype=np.int64)
    found, total, top = split_scan(
        wl.suffix(0, N), wl.suffix_rows, sigma.values(ns), rho.values(ns), tol, max_report
    )
    return SubadditivityCheck(ok=total == 0, violations=found, violation_count=total,
                              horizon=int(N), tol=tol, max_excess=top)
