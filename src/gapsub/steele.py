"""Interval decomposition of an orbit segment, Steele style, with gaps.

Given a window functional f (think log-marginals along one path), a
candidate limit value, a block scale r and depth K, offsets split into
"bad" ones, where every normalized block value up to depth K overshoots
the limit by more than eps, and "good" ones, where some depth works.
Walking the segment [1, n-1] greedily from the left tiles it by

    good intervals: length k r + sigma_{k r}, k the smallest depth
                    whose normalized value is within eps of the limit;
    bad intervals:  length r + sigma_r.

The tiling gives a sandwich on the good mass and an upper representation
of f at the full horizon by block values plus a boundary tail; both are
re-verified here exactly (the cover counts in integers) or to float
tolerance (the representation).  The Birkhoff average of the bad-offset
functional is the knob that shrinks as K grows, which is what makes the
construction useful.
"""
from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .errors import ConfigError, ValidationError
from .measures import ShiftMeasure
from .sampling import Trajectory
from .schedules import ErrorSchedule, GapSchedule


@dataclasses.dataclass(frozen=True)
class ProofContext:
    """Everything the decomposition needs about one path.

    f(js, n) evaluates the functional on the length-n windows at the
    offsets js, an int64 array, and returns one value per offset; rho(js,
    n) returns the error allowance for splitting at those offsets, in the
    same shape.  limit_value is the candidate limit; horizon bounds j + n
    over all evaluations.

    sigma_1 = 0 is required by default: the walk must be free to advance
    one base block without leaving an uncovered gap at depth one.  When
    the functional is known to decrease under extension-by-one (log
    marginals do), that requirement can be waived with
    assume_shift_monotone=True.

    The context is frozen: the depth table it keeps (see _depth_table) is
    a function of its fields alone.
    """

    f: Callable[[np.ndarray, int], np.ndarray]
    limit_value: float
    sigma: GapSchedule
    r: int
    K: int
    eps: float
    horizon: int
    rho: Callable[[np.ndarray, int], np.ndarray]
    assume_shift_monotone: bool = False

    def __post_init__(self):
        if self.r < 1 or self.K < 1:
            raise ConfigError("block scale r and depth K must be >= 1")
        if not self.eps > 0:
            raise ConfigError("eps must be positive")
        if self.limit_value == np.inf or np.isnan(self.limit_value):
            raise ConfigError("limit value must lie in [-inf, inf)")
        if self.sigma.value(1) != 0 and not self.assume_shift_monotone:
            raise ValidationError(
                "sigma_1 must be 0 unless the functional is extension-monotone "
                "(set assume_shift_monotone=True to waive)"
            )

    @property
    def threshold(self) -> float:
        """Bad-set cutoff: max(limit, -1/eps) + eps."""
        return max(self.limit_value, -1.0 / self.eps) + self.eps

    @property
    def sigma_bar(self) -> int:
        """max sigma_{k r} over depths k <= K."""
        return int(self.sigma.values(np.arange(1, self.K + 1, dtype=np.int64) * self.r).max())

    def block_length(self, k: int) -> int:
        return k * self.r + self.sigma.value(k * self.r)

    def eval_f(self, js, n: int) -> np.ndarray:
        """f at the offsets js and length n; every window must lie in the horizon."""
        js = np.asarray(js, dtype=np.int64)
        outside = (js < 0) | (js + n > self.horizon) | (n < 1)
        if outside.any():
            raise ConfigError(
                f"evaluation f({int(js[outside][0])}, {n}) exceeds the context "
                f"horizon {self.horizon}"
            )
        return np.asarray(self.f(js, n), dtype=np.float64)

    def eval_rho(self, js, n: int) -> np.ndarray:
        """rho at the offsets js and length n; every value must be finite and >= 0."""
        v = np.asarray(self.rho(np.asarray(js, dtype=np.int64), n), dtype=np.float64)
        if not (np.isfinite(v) & (v >= 0)).all():
            raise ValidationError("rho values must be finite and >= 0")
        return v


def first_depths(ctx: ProofContext, js) -> np.ndarray:
    """Smallest admissible depth at each offset in js, 0 for a bad offset.

    Depth k admits at offset j when the normalized block value
    (f + rho)(j, k r) / (k r + sigma_{k r}) is within the threshold; an
    offset is bad when no depth k <= K admits.  Each depth evaluates only
    the offsets no smaller depth has admitted.
    """
    js = np.asarray(js, dtype=np.int64)
    depths = np.zeros(js.shape, dtype=np.int64)
    pending = np.arange(js.size)
    thr = ctx.threshold
    for k in range(1, ctx.K + 1):
        if not pending.size:
            break
        n = k * ctx.r
        at = js[pending]
        vals = (ctx.eval_f(at, n) + ctx.eval_rho(at, n)) / (n + ctx.sigma.value(n))
        admits = vals <= thr
        depths[pending[admits]] = k
        pending = pending[~admits]
    return depths


def _depth_table(ctx: ProofContext, count: int) -> np.ndarray:
    """first_depths at the offsets 0 .. count-1, kept on ctx for later callers.

    The walk, the cover count and the Birkhoff average all read this one
    table.  It is derived from the context alone, so no decomposition can
    move it; a request longer than the kept table rebuilds it.
    """
    table = ctx.__dict__.get("_depths")
    if table is None or table.size < count:
        table = first_depths(ctx, np.arange(count))
        object.__setattr__(ctx, "_depths", table)
    return table[:count]


def bad_indicator(ctx: ProofContext, count: int) -> np.ndarray:
    """Membership for offsets 0 .. count-1 as a bool array."""
    if count < 1:
        raise ConfigError("need at least one offset")
    return _depth_table(ctx, count) == 0


def birkhoff_bad_average(ctx: ProofContext, count: int) -> float:
    """Average over offsets j < count of 1_bad(j) (1 + f(j, r)_+ + rho(j, r)).

    This dominates the per-length loss the bad intervals can cause in
    the upper representation; it shrinks as the depth K grows because
    deeper inspection clears more offsets.
    """
    js = np.flatnonzero(bad_indicator(ctx, count))
    if not js.size:
        return 0.0
    terms = 1.0 + np.maximum(ctx.eval_f(js, ctx.r), 0.0) + ctx.eval_rho(js, ctx.r)
    return float(terms.sum() / count)


@dataclasses.dataclass(frozen=True)
class Interval:
    """One tile [lo, hi] (1-indexed, inclusive); offset = lo - 1."""

    index: int
    lo: int
    hi: int
    kind: str
    k: int | None

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    @property
    def offset(self) -> int:
        return self.lo - 1


@dataclasses.dataclass(frozen=True)
class SteeleDecomposition:
    """Greedy tiling of [1, n-1] plus the uncovered boundary tail."""

    n: int
    intervals: tuple[Interval, ...]
    covered: int  # M: last index covered by a tile
    r: int
    K: int
    eps: float
    sigma_bar: int

    @property
    def good_intervals(self) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.intervals if iv.kind == "good")

    @property
    def bad_intervals(self) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.intervals if iv.kind == "bad")

    @property
    def good_mass(self) -> int:
        return sum(iv.length for iv in self.good_intervals)

    @property
    def bad_mass(self) -> int:
        return sum(iv.length for iv in self.bad_intervals)

    @property
    def good_coverage(self) -> float:
        return self.good_mass / self.n

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "K": self.K,
            "eps": self.eps,
            "sigma_bar": self.sigma_bar,
            "covered": self.covered,
            "good_mass": self.good_mass,
            "bad_mass": self.bad_mass,
            "good_coverage": self.good_coverage,
            "intervals": [
                {"index": iv.index, "lo": iv.lo, "hi": iv.hi, "kind": iv.kind, "k": iv.k}
                for iv in self.intervals
            ],
        }


def steele_decompose(ctx: ProofContext, n: int) -> SteeleDecomposition:
    """Tile [1, n-1] greedily from the left.

    At the current boundary offset m: a bad offset contributes a bad
    tile of length r + sigma_r; a good offset contributes a good tile of
    length k r + sigma_{k r} for the smallest admissible depth k.  The
    walk stops when the next tile would poke past n - 1; that tile is
    not emitted, leaving the tail (covered, n] to the boundary term.

    Needs horizon >= n + K r so membership stays evaluable at every
    reachable offset.  n smaller than the first tile yields the
    degenerate decomposition with no tiles and covered = 0.  The walk
    reads the depths from the context's depth table of offsets 0 .. n.
    """
    if n < 1:
        raise ConfigError("horizon n must be >= 1")
    if ctx.horizon < n + ctx.K * ctx.r:
        raise ConfigError(
            f"context horizon {ctx.horizon} cannot provision n + K r = {n + ctx.K * ctx.r}"
        )
    depths = _depth_table(ctx, n + 1).tolist()
    # tile length by depth; a bad offset (depth 0) lays a depth-one tile
    lengths = [ctx.block_length(k or 1) for k in range(ctx.K + 1)]
    intervals: list[Interval] = []
    m = 0
    while m < n - 1:
        k = depths[m]
        length = lengths[k]
        if m + length > n - 1:
            break
        intervals.append(
            Interval(
                index=len(intervals) + 1,
                lo=m + 1,
                hi=m + length,
                kind="good" if k else "bad",
                k=k or None,
            )
        )
        m += length
    return SteeleDecomposition(
        n=int(n),
        intervals=tuple(intervals),
        covered=m,
        r=ctx.r,
        K=ctx.K,
        eps=ctx.eps,
        sigma_bar=ctx.sigma_bar,
    )


@dataclasses.dataclass(frozen=True)
class CoverBounds:
    ok: bool
    upper_ok: bool
    lower_ok: bool
    upper_slack: int
    lower_slack: int
    bad_offset_count: int

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def verify_cover_bounds(d: SteeleDecomposition, ctx: ProofContext) -> CoverBounds:
    """Check the integer sandwich on the good mass.

    Upper: the good tiles sit disjointly inside [1, n-1], so their mass
    is at most n - 1; the slack is the distance from a full tiling.
    Lower: every bad tile spends r + sigma_r on a bad offset and at most
    one partial tile of length at most K r + sigma_bar is lost at the
    boundary, so

        good_mass >= n - (r + sigma_r) B - K r - sigma_bar,

    with B the number of bad offsets among 0 .. n (inclusive, matching
    the Birkhoff count the limit argument divides by).  Both sides are
    integers; no tolerance is involved.
    """
    n = d.n
    sg = d.good_mass
    upper_slack = (n - 1) - sg
    B = int(bad_indicator(ctx, n + 1).sum())
    r_len = ctx.r + ctx.sigma.value(ctx.r)
    lower = n - r_len * B - ctx.K * ctx.r - d.sigma_bar
    lower_slack = sg - lower
    return CoverBounds(
        ok=(upper_slack >= 0 and lower_slack >= 0),
        upper_ok=(upper_slack >= 0),
        lower_ok=(lower_slack >= 0),
        upper_slack=int(upper_slack),
        lower_slack=int(lower_slack),
        bad_offset_count=B,
    )


@dataclasses.dataclass(frozen=True)
class UpperRepresentation:
    ok: bool
    lhs: float
    rhs: float
    residual: float
    tol: float

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def verify_ub_rep(
    d: SteeleDecomposition, ctx: ProofContext, tol_scale: float = 1e-8
) -> UpperRepresentation:
    """Check f(0, n) against the tile-sum upper bound.

    rhs sums f + rho over the good tiles at their depth-k lengths and
    the bad tiles at the base length, each evaluated at the tile's left
    offset, plus the positive part of the boundary tail.  Gapped almost
    subadditivity makes rhs an upper bound for f(0, n) in exact
    arithmetic; the check allows residual >= -tol with
    tol = tol_scale * n for float cancellation.

    A -inf lhs is trivially dominated and verifies regardless of rhs.
    f and rho are evaluated once per base length, over all its tiles; the
    terms are then added one tile at a time in tile order.
    """
    n = d.n
    bases = [(iv.k * ctx.r) if iv.kind == "good" else ctx.r for iv in d.intervals]
    groups: dict[int, list[int]] = {}
    for i, base in enumerate(bases):
        groups.setdefault(base, []).append(i)
    terms = [0.0] * len(bases)
    for base, tiles in groups.items():
        at = [d.intervals[i].offset for i in tiles]
        vals = ctx.eval_f(at, base) + ctx.eval_rho(at, base)
        for i, v in zip(tiles, vals.tolist()):
            terms[i] = v
    rhs = 0.0
    for v in terms:  # a plain loop: sum() may compensate, which changes the bits
        rhs += v
    tail = n - d.covered
    if tail >= 1:
        rhs += max(float(ctx.eval_f([d.covered], tail)[0]), 0.0)
    lhs = float(ctx.eval_f([0], n)[0])
    tol = tol_scale * n
    if lhs == -np.inf:
        return UpperRepresentation(ok=True, lhs=lhs, rhs=rhs, residual=np.inf, tol=tol)
    residual = rhs - lhs
    return UpperRepresentation(
        ok=bool(residual >= -tol), lhs=lhs, rhs=rhs, residual=float(residual), tol=tol
    )


@dataclasses.dataclass(frozen=True)
class DepthAudit:
    ok: bool
    first_failure: tuple[int, str] | None

    def to_json(self) -> dict:
        return {"ok": self.ok, "first_failure": self.first_failure}


def verify_depths(d: SteeleDecomposition, ctx: ProofContext) -> DepthAudit:
    """Re-derive every tile's classification and depth from scratch.

    Good tiles must fail the threshold at all depths below their k and
    pass at k, so a declared depth outside 1 .. K fails; bad tiles must
    fail at every depth up to K.
    """
    found = first_depths(ctx, [iv.offset for iv in d.intervals])
    for iv, k in zip(d.intervals, found.tolist()):
        j = iv.offset
        if iv.kind != "good":
            failure = f"bad tile admits depth {k} at offset {j}" if k else None
        elif k and k < iv.k:
            failure = f"depth {k} already admits at offset {j}"
        else:
            failure = f"declared depth {iv.k} fails at offset {j}" if k != iv.k else None
        if failure:
            return DepthAudit(ok=False, first_failure=(iv.index, failure))
    return DepthAudit(ok=True, first_failure=None)


def trajectory_context(
    x: Trajectory | np.ndarray,
    Q: ShiftMeasure,
    rho: ErrorSchedule,
    sigma: GapSchedule,
    limit_value: float,
    r: int,
    K: int,
    eps: float,
) -> ProofContext:
    """ProofContext for f = per-window log-marginals of Q along x.

    f is Q.windows(x).many.  A position-dependent rho is asked offset by
    offset; any other is one value per length.  Log-marginals decrease
    under extension, so the sigma_1 = 0 requirement is waived.
    """
    symbols = x.symbols if isinstance(x, Trajectory) else np.asarray(x, dtype=np.int64)
    if rho.position_dependent:

        def rho_fn(js: np.ndarray, n: int) -> np.ndarray:
            return np.asarray([float(rho.hook(symbols, int(j), n)) for j in js])

    else:

        def rho_fn(js: np.ndarray, n: int) -> np.ndarray:
            return np.full(js.shape, rho.value(n))

    return ProofContext(
        f=Q.windows(symbols).many,
        limit_value=float(limit_value),
        sigma=sigma,
        r=int(r),
        K=int(K),
        eps=float(eps),
        horizon=int(symbols.size),
        rho=rho_fn,
        assume_shift_monotone=True,
    )
