"""Deterministic index schedules and the convergence-series container.

A gap schedule assigns a nonnegative integer to every index n >= 1, an
error schedule a nonnegative real.  Both are either closed-form rules or
explicit tables, and one base serializes both to JSON.  ConvergenceSeries
holds a normalized sequence sampled on an increasing index grid together
with tail diagnostics; csv_text writes it and every other key,value CSV.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import ConfigError, ScheduleRangeError, ValidationError, param, schema_errors

_GAP_RULES = ("constant", "ceil_power", "ceil_log", "table")
_ERROR_RULES = ("constant", "scaled_power", "table")


def _check_table(params: dict, kind: type) -> None:
    """A table rule's values: a nonempty list of nonnegative entries of kind."""
    vals = params.get("values")
    if not isinstance(vals, (list, tuple)) or not vals:
        raise ConfigError("needs a nonempty list", "/params/values")
    for i in range(len(vals)):
        if param(vals, i, kind, pointer="/params/values") < 0:
            raise ConfigError("must be nonnegative", f"/params/values/{i}")


def _as_index_array(ns) -> np.ndarray:
    arr = np.asarray(ns, dtype=np.int64)
    if arr.size and arr.min() < 1:
        raise ScheduleRangeError("schedule indices start at 1")
    return arr


@dataclasses.dataclass(frozen=True)
class _Schedule:
    """Constructors, table lookup and JSON shared by both schedule kinds.

    A kind sets _kind (int or float) and _noun (its name in a range error)."""

    rule: str
    params: dict = dataclasses.field(default_factory=dict)

    _kind: ClassVar[type]
    _noun: ClassVar[str]

    @classmethod
    def zero(cls):
        return cls.constant(0)

    @classmethod
    def constant(cls, value):
        return cls("constant", {"value": cls._kind(value)})

    @classmethod
    def from_table(cls, values: Sequence):
        return cls("table", {"values": [cls._kind(v) for v in values]})

    def value(self, n: int):
        return self._kind(self.values(np.asarray([n], dtype=np.int64))[0])

    def _table(self, arr: np.ndarray) -> np.ndarray:
        table = self.params["values"]
        if arr.size and arr.max() > len(table):
            raise ScheduleRangeError(
                f"{self._noun} table covers n <= {len(table)}, asked for n = {int(arr.max())}"
            )
        return np.asarray(table, dtype=self._kind)[arr - 1]

    def to_json(self) -> dict:
        return {"rule": self.rule, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: dict, pointer: str = ""):
        """Schedule from its JSON, inverse of to_json; a rejection is a SchemaError under pointer."""
        with schema_errors(pointer):
            if not isinstance(obj, dict) or "rule" not in obj:
                raise ConfigError("needs a 'rule' field")
            params = obj.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError("must be an object", "/params")
            return cls(obj["rule"], dict(params))


@dataclasses.dataclass(frozen=True)
class GapSchedule(_Schedule):
    """Nonnegative integer schedule n -> sigma_n.

    rule is one of "constant", "ceil_power" (ceil(scale * n**alpha) with
    0 < alpha < 1), "ceil_log" (ceil(log2(1 + n))), or "table".
    """

    _kind = int
    _noun = "gap"

    def __post_init__(self):
        if self.rule not in _GAP_RULES:
            raise ConfigError(f"unknown gap rule {self.rule!r}", "/rule")
        if self.rule == "constant":
            if param(self.params, "value", int, pointer="/params") < 0:
                raise ConfigError("must be a nonnegative integer", "/params/value")
        elif self.rule == "ceil_power":
            if not 0.0 < param(self.params, "alpha", float, pointer="/params") < 1.0:
                raise ConfigError("ceil_power needs 0 < alpha < 1", "/params/alpha")
            if param(self.params, "scale", float, 1.0, "/params") <= 0:
                raise ConfigError("ceil_power scale must be positive", "/params/scale")
        elif self.rule == "table":
            _check_table(self.params, self._kind)

    def values(self, ns) -> np.ndarray:
        """Vectorized evaluation on an array of indices (all >= 1)."""
        arr = _as_index_array(ns)
        if self.rule == "constant":
            return np.full(arr.shape, self.params["value"], dtype=np.int64)
        if self.rule == "ceil_power":
            scale = float(self.params.get("scale", 1.0))
            out = np.ceil(scale * np.power(arr.astype(np.float64), self.params["alpha"]))
            return out.astype(np.int64)
        if self.rule == "ceil_log":
            return np.ceil(np.log2(1.0 + arr.astype(np.float64))).astype(np.int64)
        return self._table(arr)


@dataclasses.dataclass(frozen=True)
class ErrorSchedule(_Schedule):
    """Nonnegative real schedule n -> rho_n.

    Closed-form rules: "constant", "scaled_power" (scale * n**alpha with
    alpha < 1, so the schedule stays sublinear), "table".  A schedule may
    instead wrap a plain function or a position-dependent hook; those are
    not serializable and to_json refuses.

    The hook signature is hook(symbols, j, n) -> float, evaluated on a
    window of length n starting at offset j.  Position-free users call
    value()/values() and never see the hook.
    """

    fn: Callable[[np.ndarray], np.ndarray] | None = None
    hook: Callable[..., float] | None = None

    _kind = float
    _noun = "error"

    def __post_init__(self):
        if self.fn is not None or self.hook is not None:
            return
        if self.rule not in _ERROR_RULES:
            raise ConfigError(f"unknown error rule {self.rule!r}", "/rule")
        if self.rule == "constant":
            if param(self.params, "value", float, pointer="/params") < 0:
                raise ConfigError("must be nonnegative", "/params/value")
        elif self.rule == "scaled_power":
            if param(self.params, "alpha", float, pointer="/params") >= 1.0:
                raise ConfigError("scaled_power needs alpha < 1", "/params/alpha")
            if param(self.params, "scale", float, 1.0, "/params") < 0:
                raise ConfigError("scaled_power scale must be nonnegative", "/params/scale")
        elif self.rule == "table":
            _check_table(self.params, self._kind)

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "ErrorSchedule":
        return cls("function", {}, fn=fn)

    @classmethod
    def from_hook(cls, hook: Callable[..., float]) -> "ErrorSchedule":
        return cls("hook", {}, hook=hook)

    @property
    def position_dependent(self) -> bool:
        return self.hook is not None

    def values(self, ns) -> np.ndarray:
        arr = _as_index_array(ns)
        if self.hook is not None:
            raise ConfigError("position-dependent error schedule has no position-free value")
        if self.fn is not None:
            out = np.asarray(self.fn(arr), dtype=np.float64)
            if out.shape != arr.shape:
                raise ValidationError("error schedule function returned a wrong shape")
            return out
        if self.rule == "constant":
            return np.full(arr.shape, float(self.params["value"]))
        if self.rule == "scaled_power":
            scale = float(self.params.get("scale", 1.0))
            return scale * np.power(arr.astype(np.float64), self.params["alpha"])
        return self._table(arr)

    def to_json(self) -> dict:
        if self.fn is not None or self.hook is not None:
            raise ConfigError("function-backed error schedule is not serializable")
        return super().to_json()


@dataclasses.dataclass(frozen=True)
class SublinearityReport:
    max_ratio: float
    argmax_n: int
    window: tuple[int, int]
    threshold: float
    looks_sublinear: bool


def sublinearity_report(
    schedule: GapSchedule | ErrorSchedule, N: int, threshold: float = 0.1
) -> SublinearityReport:
    """Scan s_n / n over the window [ceil(N/2), N].

    Advisory only: a small max ratio over the window suggests o(n) decay
    but proves nothing.  Constant schedules trivially pass for large N.
    """
    if N < 2:
        raise ConfigError("sublinearity window needs N >= 2")
    lo = math.ceil(N / 2)
    ns = np.arange(lo, N + 1, dtype=np.int64)
    ratios = schedule.values(ns).astype(np.float64) / ns
    i = int(np.argmax(ratios))
    mx = float(ratios[i])
    return SublinearityReport(
        max_ratio=mx,
        argmax_n=int(ns[i]),
        window=(lo, N),
        threshold=float(threshold),
        looks_sublinear=bool(mx <= threshold),
    )


def csv_text(header: str, pairs) -> str:
    """header, then one "key,repr(value)" line per pair; repr keeps every float exact."""
    return "\n".join([header, *(f"{k},{v!r}" for k, v in pairs)]) + "\n"


class ConvergenceSeries:
    """A sampled normalized sequence v_n on a strictly increasing grid.

    Values live in [-inf, inf); +inf and nan are rejected at build time.
    """

    def __init__(self, ns, values):
        self.ns = np.asarray(ns, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.ns.ndim != 1 or self.values.shape != self.ns.shape:
            raise ValidationError("series needs matching 1-d index and value arrays")
        if self.ns.size == 0:
            raise ValidationError("series cannot be empty")
        if self.ns[0] < 1 or (self.ns.size > 1 and (np.diff(self.ns) <= 0).any()):
            raise ValidationError("series indices must be strictly increasing and >= 1")
        if np.isnan(self.values).any():
            raise ValidationError("series values cannot be nan")
        if (self.values == np.inf).any():
            raise ValidationError("series values cannot be +inf")

    def __len__(self) -> int:
        return int(self.ns.size)

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    def tail_oscillation(self) -> float | None:
        """max - min of values with n >= (last n) / 2; None if fewer than two."""
        cut = self.ns[-1] / 2
        tail = self.values[self.ns >= cut]
        if tail.size < 2:
            return None
        hi, lo = float(tail.max()), float(tail.min())
        if hi == lo:
            # covers the all-(-inf) tail, where the difference would be nan
            return 0.0
        return hi - lo

    def csv_text(self) -> str:
        """The series as CSV under an "n,value" header; from_csv reads it back exactly."""
        return csv_text("n,value", zip(self.ns.tolist(), self.values.tolist()))

    @classmethod
    def from_csv(cls, path) -> "ConvergenceSeries":
        ns: list[int] = []
        vals: list[float] = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "n,value":
                raise ConfigError(f"unexpected series header {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                a, b = line.split(",")
                ns.append(int(a))
                vals.append(float(b))
        return cls(ns, vals)


def geometric_grid(N: int, ratio: float = 1.2, start: int = 1) -> np.ndarray:
    """Distinct integer grid ceil(start * ratio**j), clipped and capped at N.

    N itself is always the last entry so that series built on the grid
    terminate at the full horizon.  Below 1/(ratio - 1) a step grows the
    point by less than 1, so consecutive ceilings differ by at most 1 and
    every integer there is on the grid; the multiplicative walk starts
    past them, at start * ratio**j0, and costs one step per grid point.
    """
    if N < 1 or start < 1:
        raise ConfigError("grid horizon and start must be >= 1")
    if not 1.0 < ratio < math.inf:
        raise ConfigError("geometric grid ratio must be finite and exceed 1")
    # one step short of 1/(ratio - 1), so every earlier step is below 1
    j0 = max(0, math.floor(math.log(1.0 / ((ratio - 1.0) * start)) / math.log(ratio)) - 1)
    x = start * ratio**j0
    head = np.arange(math.ceil(start), min(math.ceil(x), N), dtype=np.int64)
    points = []
    while (n := math.ceil(x)) < N:
        points.append(n)
        x *= ratio
    points.append(N)
    return np.unique(np.concatenate([head, np.asarray(points, dtype=np.int64)]))


def linear_grid(N: int, step: int) -> np.ndarray:
    """Grid {step, 2 step, ...} capped at N, with N appended if missing."""
    if step < 1 or N < 1:
        raise ConfigError("linear grid needs positive step and horizon")
    pts = np.arange(step, N + 1, step, dtype=np.int64)
    if pts.size == 0 or pts[-1] != N:
        pts = np.append(pts, np.int64(N))
    return pts
