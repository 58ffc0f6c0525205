"""Deterministic functions of n and the convergence-series container.

A gap schedule assigns an integer in [0, 2**62] to every index n >= 1, an
error schedule a finite real >= 0, and fekete's RealSequence, the third
kind, a real in [-inf, inf).  Each is a closed-form rule, an explicit
table or a wrapped function of the index array, and one base, _Schedule,
builds, checks, evaluates and serializes all three.  evaluate is the one
checked evaluation of every function of n, and lookup their one table
lookup.  ConvergenceSeries holds a normalized sequence sampled on an
increasing index grid together with tail diagnostics; csv_text writes it
and every other key,value CSV.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, ClassVar

import numpy as np

from .errors import (
    REQUIRED,
    ConfigError,
    ScheduleRangeError,
    ValidationError,
    known_keys,
    param,
    pointed,
    schema_errors,
)


def evaluate(fn: Callable[[np.ndarray], np.ndarray], ns, what: str, must: str,
             kind: type = float, least=-np.inf, most=float(np.finfo(np.float64).max)) -> np.ndarray:
    """fn at the indices ns >= 1 as kind: the one checked evaluation of every function of n.

    fn runs on an int64 array under np.errstate, so an overflow gives inf
    or nan, not a warning.  ns must be 1-d, so a scalar horizon is not
    read as one index.  A wrong shape is refused, and so is a value
    outside [least, most] (a sequence's range by default), nan included,
    as "what gives v at n = N; must" at the smallest such n.
    """
    arr = np.asarray(ns, dtype=np.int64)
    if arr.ndim != 1:
        raise ValidationError(f"{what} is evaluated at a 1-d index array, not a {arr.ndim}-d one")
    if arr.size and arr.min() < 1:
        raise ScheduleRangeError(f"{what} is defined at n >= 1, asked for n = {arr.min()}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        vals = np.asarray(fn(arr))
    if vals.shape != arr.shape:
        raise ValidationError(f"{what} returned a wrong shape")
    if arr.size and not (vals.min() >= least and vals.max() <= most):  # nan fails too
        bad = ~((vals >= least) & (vals <= most))
        i = np.flatnonzero(bad)[np.argmin(arr[bad])]
        raise ScheduleRangeError(f"{what} gives {vals[i].item()!r} at n = {int(arr[i])}; {must}")
    return vals.astype(kind, copy=False)


def lookup(table: np.ndarray, ns: np.ndarray, noun: str) -> np.ndarray:
    """table[n - 1] at each index n of ns; an n past the end is refused, naming the smallest."""
    past = ns > table.size
    if past.any():
        raise ScheduleRangeError(
            f"{noun} table covers n <= {table.size}, asked for n = {ns[past].min()}"
        )
    return table[ns - 1]


_INDEX_BLOCK = 1 << 16  # indices a blocked pass over n = 1 .. N evaluates at once


def index_blocks(N: int):
    """Consecutive int64 arrays covering n = 1 .. N, each of at most _INDEX_BLOCK indices."""
    for lo in range(1, N + 1, _INDEX_BLOCK):
        yield np.arange(lo, min(lo + _INDEX_BLOCK, N + 1), dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class _Schedule:
    """Constructors, rule checks, evaluation and JSON shared by every function of n.

    A kind sets _kind (int or float), _noun (its name in a range error),
    _names (how an error names a rule), the range [_least, _most] that
    _range states, _field (the spec field that holds the rule) and _rules,
    its closed-form rules; every kind also takes "table".  from_function
    wraps a function of the index array instead, rule "function", with the
    same range check; to_json refuses it.  pointer is where from_json built
    it in its document, and a value refused by values points there; it is
    no part of ==, repr or to_json.
    """

    rule: str
    params: dict = dataclasses.field(default_factory=dict)
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    pointer: str = dataclasses.field(default="", compare=False, repr=False)

    _kind: ClassVar[type]
    _noun: ClassVar[str]
    _names: ClassVar[str]  # formatted with the rule, as "gap rule 'x'"
    _least: ClassVar = 0  # 0, or -inf for a kind whose values may be -inf
    _most: ClassVar
    _range: ClassVar[str]
    _field: ClassVar[str] = "rule"
    # each closed-form rule: (F of the index array and the rule's params, the
    # params in reading order, each as (key, kind, default), followed, where
    # the param has a range, by whether a value is in it and the refusal of
    # one that is not)
    _rules: ClassVar[dict[str, tuple]]

    def __post_init__(self):
        if self.fn is None:
            self._check_rule()

    def _check_rule(self) -> None:
        """Refuse an unknown rule, a params key that the rule does not read, and a bad param.

        A closed-form rule reads its params in declared order, each checked
        for its kind and then its range."""
        if not (isinstance(self.rule, str) and (self.rule == "table" or self.rule in self._rules)):
            raise ConfigError(f"unknown {self._names.format(self.rule)}", f"/{self._field}")
        if self.rule == "table":
            self._check_table()
            return
        known_keys(self.params, [key for key, *_ in self._rules[self.rule][1]], "/params")
        args = self._args  # read here, so a bad param is refused at construction
        if self.rule == "constant" and args[0] > self._most:
            raise ConfigError(f"must {self._range}", "/params/value")

    def _check_table(self) -> None:
        """A table rule's params: one nonempty list of entries of the kind in [_least, _most]."""
        known_keys(self.params, ("values",), "/params")
        vals = self.params.get("values")
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ConfigError("needs a nonempty list", "/params/values")
        for i, v in enumerate(vals):
            if self._least == -np.inf and v == -np.inf:  # in range, though param refuses it
                continue
            v = param(vals, i, self._kind, pointer="/params/values")
            if v < self._least:
                raise ConfigError("must be nonnegative", f"/params/values/{i}")
            if v > self._most:
                raise ConfigError(f"must {self._range}", f"/params/values/{i}")

    @functools.cached_property
    def _args(self) -> list:
        """The params of a closed-form rule, read as its entry in _rules declares."""
        args = []
        for key, kind, default, *check in self._rules[self.rule][1]:
            value = param(self.params, key, kind, default, "/params")
            if check and not check[0](value):
                raise ConfigError(check[1], f"/params/{key}")
            args.append(value)
        return args

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray]):
        return cls("function", {}, fn=fn)

    def value(self, n: int):
        return self._kind(self.values(np.asarray([n], dtype=np.int64))[0])

    @functools.cached_property
    def _entries(self) -> np.ndarray:
        # built on first use and kept outside the fields, so ==, repr and
        # to_json see only the list
        return np.asarray(self.params["values"], dtype=self._kind)

    def values(self, ns) -> np.ndarray:
        """The values at the 1-d index array ns >= 1, through evaluate: a value out
        of range, or an n past a table's end, is refused naming the smallest such n,
        at pointer."""
        with pointed(self.pointer, ScheduleRangeError):
            return evaluate(self._at, ns, self._names.format(self.rule),
                            f"{self._noun} values must {self._range}", self._kind,
                            self._least, self._most)

    def _at(self, ns: np.ndarray) -> np.ndarray:
        """The values at the index array ns, before the range check."""
        if self.fn is not None:
            return self.fn(ns)
        if self.rule == "table":
            return lookup(self._entries, ns, self._noun)
        return self._rules[self.rule][0](ns, *self._args)

    def to_json(self) -> dict:
        if self.fn is not None:
            raise ConfigError(f"function-backed {type(self).__name__} is not serializable")
        return {self._field: self.rule, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: dict, pointer: str = ""):
        """The kind from its JSON, inverse of to_json; a rejection is a SchemaError under pointer."""
        with schema_errors(pointer):
            if not isinstance(obj, dict) or cls._field not in obj:
                raise ConfigError(f"needs a '{cls._field}' field")
            known_keys(obj, (cls._field, "params"))
            params = obj.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError("must be an object", "/params")
            return cls(obj[cls._field], dict(params), pointer=pointer)


class _NonnegativeSchedule(_Schedule):
    """A kind with a "constant" rule, a gap or an error schedule, and its constructors."""

    @classmethod
    def zero(cls):
        return cls.constant(0)

    @classmethod
    def constant(cls, value):
        return cls("constant", {"value": cls._kind(value)})


@dataclasses.dataclass(frozen=True)
class GapSchedule(_NonnegativeSchedule):
    """Nonnegative integer schedule n -> sigma_n.

    rule is one of "constant", "ceil_power" (ceil(scale * n**alpha) with
    0 < alpha < 1), "ceil_log" (ceil(log2(1 + n))), or "table".
    """

    _kind = int
    _noun = "gap"
    _names = "gap rule {!r}"
    _most = 2**62  # n + sigma_n + m stays in int64 whenever n + m < 2**62
    _range = "lie in [0, 2**62]"
    _rules = {
        "constant": (lambda ns, v: np.full(ns.shape, v, dtype=np.int64), (
            ("value", int, REQUIRED, lambda v: v >= 0, "must be a nonnegative integer"),
        )),
        "ceil_power": (lambda ns, alpha, scale: np.ceil(
            scale * np.power(ns.astype(np.float64), alpha)), (
            ("alpha", float, REQUIRED, lambda a: 0.0 < a < 1.0, "ceil_power needs 0 < alpha < 1"),
            ("scale", float, 1.0, lambda s: s > 0, "ceil_power scale must be positive"),
        )),
        "ceil_log": (lambda ns: np.ceil(np.log2(1.0 + ns.astype(np.float64))), ()),
    }


@dataclasses.dataclass(frozen=True)
class ErrorSchedule(_NonnegativeSchedule):
    """Nonnegative real schedule n -> rho_n.

    Closed-form rules: "constant", "scaled_power" (scale * n**alpha with
    alpha < 1, so the schedule stays sublinear), "table".  An error that
    also depends on the offset along a path goes straight into a
    steele.ProofContext.
    """

    _kind = float
    _noun = "error"
    _names = "error rule {!r}"
    _most = np.finfo(np.float64).max
    _range = "be finite and >= 0"
    _rules = {
        "constant": (lambda ns, v: np.full(ns.shape, v), (
            ("value", float, REQUIRED, lambda v: v >= 0, "must be nonnegative"),
        )),
        "scaled_power": (lambda ns, alpha, scale: scale * np.power(ns.astype(np.float64), alpha), (
            ("alpha", float, REQUIRED, lambda a: a < 1.0, "scaled_power needs alpha < 1"),
            ("scale", float, 1.0, lambda s: s >= 0, "scaled_power scale must be nonnegative"),
        )),
    }


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
        """The series as CSV under an "n,value" header; repr keeps every value exact."""
        return csv_text("n,value", zip(self.ns.tolist(), self.values.tolist()))


def geometric_grid(N: int, ratio: float = 1.2) -> np.ndarray:
    """Distinct integer grid ceil(ratio**j), clipped and capped at N.

    N itself is always the last entry so that series built on the grid
    terminate at the full horizon.  Below 1/(ratio - 1) a step grows the
    point by less than 1, so consecutive ceilings differ by at most 1 and
    every integer there is on the grid; the multiplicative walk starts
    past them, at ratio**j0, and costs one step per grid point.
    """
    if N < 1:
        raise ConfigError("grid horizon must be >= 1")
    if not 1.0 < ratio < math.inf:
        raise ConfigError("geometric grid ratio must be finite and exceed 1")
    # one step short of 1/(ratio - 1), so every earlier step is below 1
    j0 = max(0, math.floor(math.log(1.0 / (ratio - 1.0)) / math.log(ratio)) - 1)
    x = ratio**j0
    head = np.arange(1, min(math.ceil(x), N), dtype=np.int64)
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
