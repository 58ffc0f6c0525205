"""Test-only oracle: the Steele checks as per-offset scalar loops.

A scalar context holds f(j, n) and rho(j, n) for one offset at a time.
depth_value, bad_set_member, the walk and the depth audit each apply the
depth rule offset by offset and depth by depth, the way the checks did
before one batch rule served them all.  The batch checks must reproduce
every decision, tile and verification value bit for bit.

per_tile_decompose is the batch walk as it stood before the depth table:
one first_depths call per tile start.  The table walk must lay the same
tiles.
"""
from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from gapsub import ErrorSchedule, GapSchedule, ShiftMeasure, ValidationError
from gapsub.steele import (
    CoverBounds,
    DepthAudit,
    Interval,
    ProofContext,
    SteeleDecomposition,
    UpperRepresentation,
    first_depths,
)


@dataclasses.dataclass
class ScalarContext:
    f: Callable[[int, int], float]
    rho: Callable[[int, int], float]
    limit_value: float
    sigma: GapSchedule
    r: int
    K: int
    eps: float
    horizon: int

    @property
    def threshold(self) -> float:
        return max(self.limit_value, -1.0 / self.eps) + self.eps

    def eval_f(self, j: int, n: int) -> float:
        assert 0 <= j and n >= 1 and j + n <= self.horizon
        return float(self.f(j, n))

    def eval_rho(self, j: int, n: int) -> float:
        v = float(self.rho(j, n))
        if v < 0 or not np.isfinite(v):
            raise ValidationError("rho values must be finite and >= 0")
        return v

    def batch(self) -> ProofContext:
        """The same context with f and rho asked offset by offset."""

        def each(fn):
            return lambda js, n: np.asarray([float(fn(int(j), n)) for j in js])

        return ProofContext(
            f=each(self.f), rho=each(self.rho), limit_value=self.limit_value,
            sigma=self.sigma, r=self.r, K=self.K, eps=self.eps, horizon=self.horizon,
        )


def scalar_trajectory_context(
    x: np.ndarray, Q: ShiftMeasure, rho: ErrorSchedule, sigma: GapSchedule,
    limit_value: float, r: int, K: int, eps: float,
) -> ScalarContext:
    wl = Q.windows(x)
    return ScalarContext(
        f=lambda j, n: wl.many([j], n)[0], rho=lambda j, n: rho.value(n),
        limit_value=float(limit_value),
        sigma=sigma, r=int(r), K=int(K), eps=float(eps), horizon=int(x.size),
    )


def depth_value(ctx: ScalarContext, j: int, k: int) -> float:
    n = k * ctx.r
    return (ctx.eval_f(j, n) + ctx.eval_rho(j, n)) / (n + ctx.sigma.value(n))


def first_depth(ctx: ScalarContext, j: int) -> int:
    for k in range(1, ctx.K + 1):
        if depth_value(ctx, j, k) <= ctx.threshold:
            return k
    return 0


def bad_set_member(ctx: ScalarContext, j: int) -> bool:
    thr = ctx.threshold
    for k in range(1, ctx.K + 1):
        if depth_value(ctx, j, k) <= thr:
            return False
    return True


def bad_indicator(ctx: ScalarContext, count: int) -> np.ndarray:
    return np.fromiter((bad_set_member(ctx, j) for j in range(count)), dtype=bool, count=count)


def birkhoff_bad_average(ctx: ScalarContext, count: int) -> float:
    js = np.flatnonzero(bad_indicator(ctx, count))
    if not js.size:
        return 0.0
    f_r = np.asarray([ctx.eval_f(int(j), ctx.r) for j in js])
    rho_r = np.asarray([ctx.eval_rho(int(j), ctx.r) for j in js])
    return float((1.0 + np.maximum(f_r, 0.0) + rho_r).sum() / count)


def steele_decompose(ctx: ScalarContext, n: int) -> SteeleDecomposition:
    thr = ctx.threshold
    intervals: list[Interval] = []
    m = 0
    while m < n - 1:
        chosen_k = None
        for k in range(1, ctx.K + 1):
            if depth_value(ctx, m, k) <= thr:
                chosen_k = k
                break
        base = chosen_k * ctx.r if chosen_k is not None else ctx.r
        length = base + ctx.sigma.value(base)
        if m + length > n - 1:
            break
        intervals.append(Interval(
            index=len(intervals) + 1, lo=m + 1, hi=m + length,
            kind="bad" if chosen_k is None else "good", k=chosen_k,
        ))
        m += length
    return SteeleDecomposition(
        n=int(n), intervals=tuple(intervals), covered=m, r=ctx.r, K=ctx.K, eps=ctx.eps,
        sigma_bar=max(ctx.sigma.value(k * ctx.r) for k in range(1, ctx.K + 1)),
    )


def per_tile_decompose(ctx: ProofContext, n: int) -> SteeleDecomposition:
    intervals: list[Interval] = []
    m = 0
    while m < n - 1:
        k = int(first_depths(ctx, [m])[0])
        base = (k or 1) * ctx.r
        length = base + ctx.sigma.value(base)
        if m + length > n - 1:
            break
        intervals.append(Interval(
            index=len(intervals) + 1, lo=m + 1, hi=m + length,
            kind="good" if k else "bad", k=k or None,
        ))
        m += length
    return SteeleDecomposition(
        n=int(n), intervals=tuple(intervals), covered=m, r=ctx.r, K=ctx.K, eps=ctx.eps,
        sigma_bar=ctx.sigma_bar,
    )


def verify_cover_bounds(d: SteeleDecomposition, ctx: ScalarContext) -> CoverBounds:
    sg = d.good_mass
    upper_slack = (d.n - 1) - sg
    B = int(bad_indicator(ctx, d.n + 1).sum())
    lower = d.n - (ctx.r + ctx.sigma.value(ctx.r)) * B - ctx.K * ctx.r - d.sigma_bar
    lower_slack = sg - lower
    return CoverBounds(
        ok=(upper_slack >= 0 and lower_slack >= 0), upper_ok=(upper_slack >= 0),
        lower_ok=(lower_slack >= 0), upper_slack=int(upper_slack),
        lower_slack=int(lower_slack), bad_offset_count=B,
    )


def verify_ub_rep(d: SteeleDecomposition, ctx: ScalarContext) -> UpperRepresentation:
    rhs = 0.0
    for iv in d.intervals:
        base = (iv.k * ctx.r) if iv.kind == "good" else ctx.r
        rhs += ctx.eval_f(iv.offset, base) + ctx.eval_rho(iv.offset, base)
    tail = d.n - d.covered
    if tail >= 1:
        rhs += max(ctx.eval_f(d.covered, tail), 0.0)
    lhs = ctx.eval_f(0, d.n)
    tol = 1e-8 * d.n
    if lhs == -np.inf:
        return UpperRepresentation(ok=True, lhs=lhs, rhs=rhs, residual=np.inf, tol=tol)
    residual = rhs - lhs
    return UpperRepresentation(
        ok=bool(residual >= -tol), lhs=lhs, rhs=rhs, residual=float(residual), tol=tol
    )


def verify_depths(d: SteeleDecomposition, ctx: ScalarContext) -> DepthAudit:
    thr = ctx.threshold
    for iv in d.intervals:
        j = iv.offset
        if iv.kind == "good":
            for k in range(1, iv.k):
                if depth_value(ctx, j, k) <= thr:
                    return DepthAudit(False, (iv.index, f"depth {k} already admits at offset {j}"))
            if depth_value(ctx, j, iv.k) > thr:
                return DepthAudit(False, (iv.index, f"declared depth {iv.k} fails at offset {j}"))
        else:
            for k in range(1, ctx.K + 1):
                if depth_value(ctx, j, k) <= thr:
                    return DepthAudit(False, (iv.index, f"bad tile admits depth {k} at offset {j}"))
    return DepthAudit(ok=True, first_failure=None)


def verification(d: SteeleDecomposition, ctx, module) -> dict:
    """The checks of `steele run` on d, through the given module's functions."""
    return {
        "cover": module.verify_cover_bounds(d, ctx).to_json(),
        "ub_rep": module.verify_ub_rep(d, ctx).to_json(),
        "depths": module.verify_depths(d, ctx).to_json(),
        "bad_birkhoff_average": module.birkhoff_bad_average(ctx, d.n),
    }
