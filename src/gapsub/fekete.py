"""Gapped subadditivity checks and limit identification for real sequences.

A sequence F_1, F_2, ... with values in [-inf, inf) is gapped subadditive
for a gap schedule sigma and error schedule rho when

    F_{n + sigma_n + m} <= F_n + rho_n + F_m        for all n, m >= 1.

Under that inequality (with sublinear schedules) F_n / n converges to
inf_n (F_n + rho_n) / (n + sigma_n), which the functions here locate and
cross-check at finite horizons.  F is a RealSequence, the third kind of
schedules._Schedule next to the gap and error schedules, so all three
functions of n are built from JSON, checked and evaluated by one base.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CapExceededError, ConfigError, GapLiftError, ScheduleRangeError, check_tol, pointed
)
from .schedules import ConvergenceSeries, ErrorSchedule, GapSchedule, index_blocks, linear_grid
from .schedules import _Schedule, evaluate

PAIRWISE_CAP = 5000  # largest horizon of a pairwise check, which compares O(N^2) pairs
_SCAN_FLOATS = 2**16  # most excess entries one block of the split scan holds
_BELOW_INF = "lie in [-inf, inf)"  # the range of F_n and of F_n + rho_n


def _check_horizon(N: int) -> None:
    if N < 1:
        raise ConfigError("sequence horizon must be >= 1")


def check_pairwise_horizon(N: int, cap: int = PAIRWISE_CAP) -> None:
    """The one budget of a split check, which compares O(N^2) pairs: its
    horizon N must lie in 1 .. cap.  Every front end asks it before it
    draws or evaluates anything."""
    if N > cap:
        raise CapExceededError(f"pairwise check at N = {N} exceeds cap {cap}")
    _check_horizon(N)


@dataclasses.dataclass(frozen=True)
class RealSequence(_Schedule):
    """Lazy 1-indexed sequence n -> F_n with values in [-inf, inf), the third schedule kind.

    Its rule is its name: "table" or one of the closed forms below, each
    with its params in reading order (a sequence param has no range).
    values(ns) evaluates it at the indices ns through schedules.evaluate,
    which refuses nan and +inf at the smallest n that gives one; nothing
    but a table's array is kept.
    """

    _kind = float
    _noun = "sequence"
    _names = "sequence {!r}"
    _least = -np.inf
    _most = float(np.finfo(np.float64).max)
    _range = _BELOW_INF
    _field = "name"
    _rules = {
        "linear": (lambda ns, a: a * ns.astype(np.float64), (("slope", float, 1.0),)),
        "affine_sqrt": (lambda ns, a, b: a * ns + b * np.sqrt(ns.astype(np.float64)),
                        (("slope", float, 1.0), ("sqrt_coeff", float, 1.0))),
        "sqrt": (lambda ns, s: s * np.sqrt(ns.astype(np.float64)), (("scale", float, 1.0),)),
        "neg_nlogn": (lambda ns, s: -s * ns * np.log(ns.astype(np.float64)),
                      (("scale", float, 1.0),)),
        "square": (lambda ns, s: s * ns.astype(np.float64) ** 2, (("scale", float, 1.0),)),
        "log": (lambda ns, s: s * np.log1p(ns.astype(np.float64)), (("scale", float, 1.0),)),
        "neg_inf_from": (lambda ns, start, a: np.where(
            ns >= start, -np.inf, a * ns.astype(np.float64)),
            (("start", int, 2), ("slope", float, 0.0))),
    }


def _plus_error(F: RealSequence, rho: ErrorSchedule, Fv: np.ndarray, rv: np.ndarray,
                ns: np.ndarray) -> np.ndarray:
    """Fv + rv, the values of F_n + rho_n at ns, refused at the first n where they
    overflow, at rho's pointer: F_n alone is in range, and rho_n only adds to it."""
    with pointed(rho.pointer, ScheduleRangeError):
        return evaluate(lambda _: Fv + rv, ns, f"F_n + rho_n of sequence {F.rule!r}",
                        f"F_n + rho_n must {_BELOW_INF}")


@dataclasses.dataclass(frozen=True)
class Violation:
    n: int
    m: int
    excess: float


@dataclasses.dataclass(frozen=True)
class SubadditivityCheck:
    ok: bool
    violations: tuple[Violation, ...]
    violation_count: int
    horizon: int
    tol: float
    max_excess: float  # the largest defined excess over all pairs, -inf if none

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _scan_blocks(sig: np.ndarray, N: int) -> list[tuple[int, int, int]]:
    """(n, rows, width) of each block of the split scan, in row order.

    A block is the consecutive rows n .. n + rows - 1 of one run of equal
    sigma, so its offsets j = n + sigma_n step by 1 and its row widths
    N - j by -1; width is its first row's.  rows <= (width + 1) // 2, so
    every row has a pair and at most a quarter of a block's entries lie past
    its rows' ends, and rows * width <= _SCAN_FLOATS unless one row is wider.
    """
    bounds = [0, *(np.flatnonzero(np.diff(sig)) + 1).tolist(), N] if N else []
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n, width = lo + 1, N - lo - 1 - int(sig[lo])
        left = min(hi - lo, width)  # the rows of the run that have a pair
        while left > 0:
            rows = min(left, (width + 1) // 2, max(1, _SCAN_FLOATS // width))
            blocks.append((n, rows, width))
            n, width, left = n + rows, width - rows, left - rows
    return blocks


def _row_top(excess: np.ndarray) -> float:
    """The largest defined excess of a row: nan entries skipped, -inf if none is left."""
    top = float(np.maximum.reduce(excess))
    if math.isnan(top):
        defined = excess[~np.isnan(excess)]
        top = float(defined.max()) if defined.size else -np.inf
    return top


def split_scan(
    pre: np.ndarray,
    shifted: Callable[[int, int, int], np.ndarray],
    sig: np.ndarray,
    rh: np.ndarray,
    tol: float,
    max_report: int,
) -> tuple[tuple[Violation, ...], int, float]:
    """Test pre_{n+sigma_n+m} <= pre_n + rho_n + (shifted by n + sigma_n)_m pairwise.

    pre holds the prefix values [F_1, ..., F_N].  shifted(j, rows, width)
    is a (rows, width) array, or one row to broadcast, whose row r holds
    [F_1, ..., F_width] of the orbit shifted by j + r; entries past the end
    of the orbit may hold anything.  On a one-point system every shift is
    pre itself.  sig and rh hold sigma_n and rho_n for n = 1 .. N.  Every
    pair with n + sigma_n + m <= N is covered.

    Infinite values follow the extended-real reading: a finite left side
    against a -inf right side is a violation, -inf against anything is
    not, and two -inf sides cancel to "no violation"; pre + rh must not
    overflow.  Returns the first max_report violations in (n, m) order,
    their total count and the largest defined excess (-inf when no pair
    has one).

    The rows run in blocks of equal sigma (_scan_blocks), so a block's
    left sides form a Hankel view of pre and its shifted sides are
    suffixes at consecutive offsets.  Each entry is the row-by-row
    (pre_j - (pre_n + rho_n)) - shifted, the same two subtractions; the
    entries past a row's end are set to -inf.  Only a row whose max
    exceeds tol or is nan is searched for violations.  There a nan entry
    with a finite left side is a violation with excess +inf: its first
    subtraction overflowed to -inf, and its shifted side is -inf, since no
    side is nan or +inf.  A +inf entry whose left and shifted sides are
    finite may be an overflow of the first subtraction alone, so it is
    taken again as pre_j - ((pre_n + rho_n) + shifted), and the row's max
    with it.  The subtractions run under np.errstate.  The row
    maxima fold in row order; the sign of a zero maximum depends on the
    order of its reduction, so a zero is taken again from its row alone.
    """
    N = pre.size
    blocks = _scan_blocks(sig, N)
    found: list[Violation] = []
    total = 0
    max_excess = -np.inf
    if not blocks:
        return (), 0, float(max_excess)
    buf = np.empty(max(rows * width for _, rows, width in blocks))
    most = max(rows for _, rows, _ in blocks)
    # corner[r, c] of a block of most rows: column width - most + 1 + c lies past row r's end
    corner = np.add.outer(np.arange(most), np.arange(most - 1)) >= most - 1
    lefts = sliding_window_view(np.concatenate((pre, np.zeros(N - 1))), N)  # [j, i] = pre_{j+i+1}
    with np.errstate(over="ignore", invalid="ignore"):
        base = pre + rh
        for n, rows, width in blocks:
            j = n + int(sig[n - 1])
            excess = buf[: rows * width].reshape(rows, width)
            np.subtract(lefts[j : j + rows, :width], base[n - 1 : n - 1 + rows, None], out=excess)
            sides = np.broadcast_to(shifted(j, rows, width), (rows, width))
            np.subtract(excess, sides, out=excess)
            if rows > 1:
                np.copyto(excess[:, width - rows + 1 :], -np.inf,
                          where=corner[most - rows :, : rows - 1])
            tops = np.maximum.reduce(excess, axis=1)
            hits = np.flatnonzero(~(tops <= tol))  # violations, or pairs with -inf on both sides
            tops = tops.tolist()
            for r in hits.tolist():
                row, left = excess[r, : width - r], lefts[j + r, : width - r]
                if math.isnan(tops[r]):
                    row[np.isnan(row) & np.isfinite(left)] = np.inf
                over = np.flatnonzero(row == np.inf)
                over = over[np.isfinite(left[over]) & np.isfinite(sides[r, over])]
                row[over] = left[over] - (base[n - 1 + r] + sides[r, over])
                if math.isnan(tops[r]) or over.size:
                    tops[r] = _row_top(row)
                bad = np.flatnonzero(row > tol)
                total += bad.size
                for i in bad[: max_report - len(found)]:
                    found.append(Violation(n=n + r, m=int(i) + 1, excess=float(row[i])))
            top = max(tops)
            if top > max_excess:
                max_excess = top
                if top == 0:  # the sign of a zero follows its row's own reduction
                    r = tops.index(top)
                    max_excess = _row_top(excess[r, : width - r])
    return tuple(found), total, float(max_excess)


def check_gapped_subadditivity(
    F: RealSequence,
    sigma: GapSchedule,
    rho: ErrorSchedule,
    N: int,
    tol: float = 1e-12,
    cap: int = PAIRWISE_CAP,
    max_report: int = 200,
) -> SubadditivityCheck:
    """Exhaustively test F_{n+sigma_n+m} <= F_n + rho_n + F_m + tol.

    The one-point case of the split scan: every shift of the orbit is F
    itself.  The cost is O(N^2) values; the cap guards against accidental
    huge horizons; raise it explicitly if the quadratic cost is intended.
    F, sigma, rho and then F + rho are checked in that order, each at its
    first n that fails, before any pair is compared; tol first of all.
    """
    check_tol(tol)
    check_pairwise_horizon(N, cap)
    ns = np.arange(1, N + 1, dtype=np.int64)
    Fv = F.values(ns)
    sig, rh = sigma.values(ns), rho.values(ns)
    _plus_error(F, rho, Fv, rh, ns)
    found, total, top = split_scan(Fv, lambda j, rows, m: Fv[None, :m], sig, rh, tol, max_report)
    return SubadditivityCheck(ok=total == 0, violations=found, violation_count=total,
                              horizon=N, tol=tol, max_excess=top)


@dataclasses.dataclass(frozen=True)
class FeketeReport:
    """Finite-horizon summary of the limit identification.

    infimum is min over n <= horizon of (F_n + rho_n) / (n + sigma_n);
    argmin_n the smallest index attaining it; limit_proxy is F_N / N; gap
    their absolute difference (0 when both are -inf).
    """

    infimum: float
    argmin_n: int
    limit_proxy: float
    gap: float
    horizon: int

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def fekete_infimum(
    F: RealSequence, sigma: GapSchedule, rho: ErrorSchedule, N: int
) -> FeketeReport:
    """Locate inf_n (F_n + rho_n) / (n + sigma_n) over n <= N.

    The indices are walked in blocks (schedules.index_blocks), so memory
    stays bounded at any N.  Each block's ratios are formed elementwise
    as a whole-array pass would form them, and the running minimum keeps
    np.argmin's rule across blocks: the first index attaining it wins.
    No ratio is nan, since F < +inf, rho is finite and F + rho is refused
    where it overflows.  F_N comes from the last block.

    The errors are those of the whole pass, which checks F_1 .. F_N, then
    sigma_1 .. sigma_N, then rho_1 .. rho_N, then F_n + rho_n: a block
    evaluates its terms straight through, and the first error sends the
    walk to _raise_whole_pass_error.
    """
    _check_horizon(N)
    arg, inf_val = 0, math.inf
    try:
        for ns in index_blocks(N):
            Fv = F.values(ns)
            gaps = ns + sigma.values(ns)
            # the int64 sums cast to float64 as they are divided
            ratios = _plus_error(F, rho, Fv, rho.values(ns), ns) / gaps
            i = int(np.argmin(ratios))
            if arg == 0 or ratios[i] < inf_val:
                arg, inf_val = int(ns[i]), float(ratios[i])
    except Exception as fault:
        _raise_whole_pass_error(F, sigma, rho, N, fault)
    proxy = float(Fv[-1] / N)
    if inf_val == -np.inf and proxy == -np.inf:
        gap = 0.0
    else:
        gap = abs(proxy - inf_val)
    return FeketeReport(
        infimum=inf_val, argmin_n=arg, limit_proxy=proxy, gap=float(gap), horizon=N
    )


def _raise_whole_pass_error(
    F: RealSequence, sigma: GapSchedule, rho: ErrorSchedule, N: int, fault: Exception
) -> None:
    """Raise the error of one pass over n = 1 .. N: each stage (F, sigma, rho,
    then F_n + rho_n) runs over every block before the next, so its first
    error names the first n that fails; fault, a blocked walk's first error,
    if no stage fails."""
    stages = (F.values, sigma.values, rho.values,
              lambda ns: _plus_error(F, rho, F.values(ns), rho.values(ns), ns))
    for stage in stages:
        for ns in index_blocks(N):
            stage(ns)
    raise fault


@dataclasses.dataclass(frozen=True)
class LimitEstimate:
    report: FeketeReport
    series: ConvergenceSeries


def fekete_limit_estimate(
    F: RealSequence,
    sigma: GapSchedule,
    rho: ErrorSchedule,
    N: int,
    stride: int | None = None,
) -> LimitEstimate:
    """F_n / n on a stride grid next to the finite-horizon infimum.

    For a gapped subadditive F with sublinear schedules the series tail
    and the infimum bracket the same limit, so their gap at N is the
    honest convergence diagnostic.  The series evaluates F only at its
    grid points, and the infimum one index block at a time, so no array
    of length N is built.
    """
    if stride is None:
        stride = max(1, N // 200)
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    report = fekete_infimum(F, sigma, rho, N)
    grid = linear_grid(N, stride)
    return LimitEstimate(report=report, series=ConvergenceSeries(grid, F.values(grid) / grid))


def gap_lift(
    F: RealSequence, sigma: GapSchedule, probe_N: int = 200, tol: float = 1e-12
) -> ErrorSchedule:
    """The error schedule that lifts a plainly subadditive F to the gaps sigma.

    It is rho_n = max(F_{sigma_n}, 0) (zero when sigma_n = 0), which
    makes the gapped inequality follow from two applications of plain
    subadditivity.  Plain subadditivity itself is only probed up to
    probe_N; a probe violation raises GapLiftError instead of lifting.
    """
    probe = check_gapped_subadditivity(
        F, GapSchedule.zero(), ErrorSchedule.zero(), probe_N, tol=tol
    )
    if not probe.ok:
        first = probe.violations[0]
        raise GapLiftError(
            f"{F.rule!r} is not plainly subadditive up to {probe_N}: "
            f"first violation at (n, m) = ({first.n}, {first.m}), excess {first.excess:.3g} "
            f"({probe.violation_count} total)"
        )

    def rho_fn(ns: np.ndarray) -> np.ndarray:
        sv = sigma.values(ns)
        out = np.zeros(ns.shape, dtype=np.float64)
        mask = sv >= 1
        if mask.any():  # F at the gaps alone, so a gap of 2**62 builds no prefix
            out[mask] = np.maximum(F.values(sv[mask]), 0.0)
        return out

    return ErrorSchedule.from_function(rho_fn)
