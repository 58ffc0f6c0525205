"""Gapped subadditivity checks and limit identification for real sequences.

A sequence F_1, F_2, ... with values in [-inf, inf) is gapped subadditive
for a gap schedule sigma and error schedule rho when

    F_{n + sigma_n + m} <= F_n + rho_n + F_m        for all n, m >= 1.

Under that inequality (with sublinear schedules) F_n / n converges to
inf_n (F_n + rho_n) / (n + sigma_n), which the functions here locate and
cross-check at finite horizons.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    ConfigError,
    GapLiftError,
    ValidationError,
    param,
    schema_errors,
)
from .schedules import ConvergenceSeries, ErrorSchedule, GapSchedule, linear_grid

PAIRWISE_CAP = 5000  # largest horizon of a pairwise check, which compares O(N^2) pairs


class RealSequence:
    """Lazy 1-indexed sequence with values in [-inf, inf).

    Wraps a callable evaluated on int64 index arrays.  The longest prefix
    evaluated so far is cached: a horizon within it is a slice, and a
    longer one evaluates F_1 .. F_N afresh.  +inf and nan are rejected.
    """

    def __init__(self, fn: Callable, name: str = "custom"):
        self._fn = fn
        self.name = name
        self._cache = np.empty(0, dtype=np.float64)

    def values(self, N: int) -> np.ndarray:
        """Array [F_1, ..., F_N]; entry i holds F_{i+1}."""
        if N < 1:
            raise ConfigError("sequence horizon must be >= 1")
        if self._cache.size < N:
            ns = np.arange(1, N + 1, dtype=np.int64)
            vals = np.asarray(self._fn(ns), dtype=np.float64)
            if vals.shape != ns.shape:
                raise ValidationError(f"sequence {self.name!r} returned a wrong shape")
            if np.isnan(vals).any():
                raise ValidationError(f"sequence {self.name!r} produced nan")
            if (vals == np.inf).any():
                raise ValidationError(f"sequence {self.name!r} produced +inf")
            self._cache = vals
        return self._cache[:N]

    def __call__(self, n: int) -> float:
        return float(self.values(n)[n - 1])


def _builtin(name: str, params: dict) -> Callable[[np.ndarray], np.ndarray]:
    def coeff(key: str, default: float = 1.0) -> float:
        return param(params, key, float, default, "/params")

    if name == "linear":
        a = coeff("slope")
        return lambda ns: a * ns.astype(np.float64)
    if name == "affine_sqrt":
        a = coeff("slope")
        b = coeff("sqrt_coeff")
        return lambda ns: a * ns + b * np.sqrt(ns.astype(np.float64))
    if name == "sqrt":
        s = coeff("scale")
        return lambda ns: s * np.sqrt(ns.astype(np.float64))
    if name == "neg_nlogn":
        s = coeff("scale")
        return lambda ns: -s * ns * np.log(ns.astype(np.float64))
    if name == "square":
        s = coeff("scale")
        return lambda ns: s * ns.astype(np.float64) ** 2
    if name == "log":
        s = coeff("scale")
        return lambda ns: s * np.log1p(ns.astype(np.float64))
    if name == "neg_inf_from":
        start = param(params, "start", int, 2, "/params")
        a = coeff("slope", 0.0)
        return lambda ns: np.where(ns >= start, -np.inf, a * ns.astype(np.float64))
    raise ConfigError(f"unknown sequence {name!r}", "/name")


def _table(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    vals = params.get("values")
    if not isinstance(vals, list) or not vals:
        raise ConfigError("needs a nonempty list", "/params/values")
    for i, v in enumerate(vals):
        if v != -np.inf:  # F takes values in [-inf, inf)
            param(vals, i, float, pointer="/params/values")
    vals = np.asarray(vals, dtype=np.float64)

    def fn(ns: np.ndarray) -> np.ndarray:
        if ns.max() > vals.size:
            raise ConfigError(f"table sequence covers n <= {vals.size}")
        return vals[ns - 1]

    return fn


def sequence_from_spec(obj: dict, pointer: str = "") -> RealSequence:
    """Build a RealSequence from {"name": ..., "params": {...}} JSON.

    "table" takes explicit values; every other name is a closed form.
    Every rejection is a SchemaError whose pointer starts with pointer,
    the spec's place in its document.
    """
    with schema_errors(pointer):
        if not isinstance(obj, dict) or "name" not in obj:
            raise ConfigError("needs a 'name' field")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("must be an object", "/params")
        name = obj["name"]
        fn = _table(params) if name == "table" else _builtin(name, params)
        return RealSequence(fn, name=name)


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

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violation_count": self.violation_count,
            "horizon": self.horizon,
            "tol": self.tol,
            "violations": [dataclasses.asdict(v) for v in self.violations],
        }


def split_scan(
    pre: np.ndarray,
    shifted: Callable[[int, int], np.ndarray],
    sig: np.ndarray,
    rh: np.ndarray,
    tol: float,
    max_report: int,
) -> tuple[tuple[Violation, ...], int, float]:
    """Test pre_{n+sigma_n+m} <= pre_n + rho_n + shifted(n + sigma_n, m)_m pairwise.

    pre holds the prefix values [F_1, ..., F_N]; shifted(j, m_max) the
    values [F_1, ..., F_{m_max}] of the orbit shifted by j, so on a
    one-point system every shift is pre itself.  sig and rh hold sigma_n
    and rho_n for n = 1 .. N.  Every pair with n + sigma_n + m <= N is
    covered, one vectorized sweep per n.

    Infinite values follow the extended-real reading: a finite left side
    against a -inf right side is a violation, -inf against anything is
    not, and two -inf sides cancel to "no violation".  Returns the first
    max_report violations in (n, m) order, their total count and the
    largest defined excess (-inf when no pair has one).

    Each row's excess is written into one buffer; the violations are
    looked up only in a row whose max exceeds tol or is nan.
    """
    N = pre.size
    found: list[Violation] = []
    total = 0
    max_excess = -np.inf
    buf = np.empty(N)
    with np.errstate(invalid="ignore"):
        for n in range(1, N + 1):
            j = n + int(sig[n - 1])
            m_max = N - j
            if m_max < 1:
                continue
            excess = buf[:m_max]
            np.subtract(pre[j : j + m_max], pre[n - 1] + rh[n - 1], out=excess)
            np.subtract(excess, shifted(j, m_max), out=excess)
            top = float(np.maximum.reduce(excess))
            if not top <= tol:  # a violation, or some pair with -inf on both sides
                bad = np.flatnonzero(excess > tol)
                if math.isnan(top):
                    defined = excess[~np.isnan(excess)]
                    top = float(defined.max()) if defined.size else -np.inf
                total += bad.size
                for i in bad[: max_report - len(found)]:
                    found.append(Violation(n=n, m=int(i) + 1, excess=float(excess[i])))
            max_excess = max(max_excess, top)
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
    """
    if N > cap:
        raise CapExceededError(
            f"pairwise check at N = {N} exceeds cap {cap}; pass cap >= N to allow"
        )
    Fv = F.values(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    found, total, _ = split_scan(
        Fv, lambda j, m: Fv[:m], sigma.values(ns), rho.values(ns), tol, max_report
    )
    return SubadditivityCheck(
        ok=(total == 0),
        violations=found,
        violation_count=total,
        horizon=N,
        tol=tol,
    )


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
    """Locate inf_n (F_n + rho_n) / (n + sigma_n) over n <= N."""
    Fv = F.values(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    denom = (ns + sigma.values(ns)).astype(np.float64)
    ratios = (Fv + rho.values(ns)) / denom
    i = int(np.argmin(ratios))
    inf_val = float(ratios[i])
    proxy = float(Fv[N - 1] / N)
    if inf_val == -np.inf and proxy == -np.inf:
        gap = 0.0
    else:
        gap = abs(proxy - inf_val)
    return FeketeReport(
        infimum=inf_val, argmin_n=i + 1, limit_proxy=proxy, gap=float(gap), horizon=N
    )


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
    honest convergence diagnostic.
    """
    if stride is None:
        stride = max(1, N // 200)
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    Fv = F.values(N)
    grid = linear_grid(N, stride)
    series = ConvergenceSeries(grid, Fv[grid - 1] / grid)
    return LimitEstimate(report=fekete_infimum(F, sigma, rho, N), series=series)


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
            f"{F.name!r} is not plainly subadditive up to {probe_N}: "
            f"first violation at (n, m) = ({first.n}, {first.m}), excess {first.excess:.3g} "
            f"({probe.violation_count} total)"
        )

    def rho_fn(ns: np.ndarray) -> np.ndarray:
        sv = sigma.values(ns)
        out = np.zeros(ns.shape, dtype=np.float64)
        mask = sv >= 1
        if mask.any():
            Fv = F.values(int(sv.max()))
            out[mask] = np.maximum(Fv[sv[mask] - 1], 0.0)
        return out

    return ErrorSchedule.from_function(rho_fn)
