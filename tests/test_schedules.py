from __future__ import annotations

import copy
import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, strategies as st

from gapsub import (
    ConfigError,
    ConvergenceSeries,
    ErrorSchedule,
    GapSchedule,
    RealSequence,
    ScheduleRangeError,
    SchemaError,
    ValidationError,
    geometric_grid,
    linear_grid,
)
from gapsub.schedules import csv_text

from conftest import read_series, table_schedule


# ---------------------------------------------------------------- gap rules


def test_constant_gap():
    s = GapSchedule.constant(3)
    assert s.value(1) == 3
    assert list(s.values([1, 10, 1000])) == [3, 3, 3]
    assert list(GapSchedule.zero().values([1, 5])) == [0, 0]
    # the largest gap: n + sigma_n + m stays in int64
    assert GapSchedule.constant(2**62).values([1, 2]).tolist() == [2**62, 2**62]


def test_ceil_log_values():
    s = GapSchedule("ceil_log")
    # ceil(log2(1+n)) by hand: n=1 -> 1, n=3 -> 2, n=7 -> 3, n=8 -> ceil(log2 9) = 4
    assert s.value(1) == 1
    assert s.value(3) == 2
    assert s.value(7) == 3
    assert s.value(8) == 4
    assert s.value(2**20 - 1) == 20


def test_ceil_power_values():
    s = GapSchedule("ceil_power", {"alpha": 0.5, "scale": 2.0})
    assert s.value(4) == 4  # ceil(2 * 2)
    assert s.value(5) == math.ceil(2.0 * math.sqrt(5.0))
    with pytest.raises(ConfigError):
        GapSchedule("ceil_power", {"alpha": 1.0})
    with pytest.raises(ConfigError):
        GapSchedule("ceil_power", {"alpha": 0.5, "scale": -1.0})


def test_table_gap_range():
    s = table_schedule(GapSchedule, [0, 1, 2])
    assert s.value(1) == 0 and s.value(3) == 2
    assert table_schedule(GapSchedule, [0, 2**62]).value(2) == 2**62
    with pytest.raises(ScheduleRangeError, match=r"^gap table covers n <= 3, asked for n = 4$"):
        s.value(4)
    with pytest.raises(ScheduleRangeError, match=r"^gap table covers n <= 3, asked for n = 5$"):
        s.values([1, 5, 2])
    with pytest.raises(ScheduleRangeError):
        s.values([0])  # indices start at 1
    with pytest.raises(ConfigError):
        table_schedule(GapSchedule, [])
    with pytest.raises(ConfigError):
        GapSchedule("table", {"values": [1, -2]})


def test_unknown_rule_rejected():
    with pytest.raises(ConfigError):
        GapSchedule("squared", {})
    with pytest.raises(ConfigError):
        ErrorSchedule("squared", {})


def test_values_match_scalar_loop():
    for s in (
        GapSchedule("ceil_log"),
        GapSchedule("ceil_power", {"alpha": 0.7, "scale": 1.5}),
        GapSchedule.constant(2),
    ):
        ns = np.arange(1, 60)
        vec = s.values(ns)
        assert [s.value(int(n)) for n in ns] == vec.tolist()


def test_gap_json_round_trip():
    s = GapSchedule("ceil_power", {"alpha": 0.5, "scale": 3.0})
    s2 = GapSchedule.from_json(s.to_json())
    assert s2 == s
    with pytest.raises(ConfigError):
        GapSchedule.from_json({"params": {}})
    # every kind round-trips, a sequence under its "name" field
    kinds = [s, ErrorSchedule("scaled_power", {"alpha": 0.5, "scale": 2.0}),
             RealSequence("affine_sqrt", {"slope": 3.0, "sqrt_coeff": 2.0}),
             table_schedule(RealSequence, [1.5, -math.inf])]
    for s in kinds:
        assert type(s).from_json(s.to_json()) == s
    assert kinds[2].to_json() == {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}
    # and a function-backed one of each kind refuses to_json
    for cls in (GapSchedule, ErrorSchedule, RealSequence):
        with pytest.raises(ConfigError, match=f"^function-backed {cls.__name__} is not serializable$"):
            cls.from_function(lambda ns: ns).to_json()


# -------------------------------------------------------------- error rules


def test_error_constant_and_power():
    r = ErrorSchedule.constant(1.5)
    assert r.value(10) == 1.5
    p = ErrorSchedule("scaled_power", {"alpha": 0.5, "scale": 2.0})
    assert abs(p.value(9) - 6.0) < 1e-12
    with pytest.raises(ConfigError):
        ErrorSchedule("scaled_power", {"alpha": 1.5})
    with pytest.raises(ConfigError):
        ErrorSchedule.constant(-1.0)


def test_error_from_function_not_serializable():
    r = ErrorSchedule.from_function(lambda ns: ns.astype(float) * 0.0)
    assert r.value(5) == 0.0
    with pytest.raises(ConfigError):
        r.to_json()


def test_error_function_shape_checked():
    r = ErrorSchedule.from_function(lambda ns: np.zeros(ns.size + 1))
    with pytest.raises(ValidationError):
        r.values([1, 2])


# a schedule whose values leave the kind's range at some n, that first n and the value there
OUT_OF_RANGE = [
    (GapSchedule("ceil_power", {"alpha": 0.5, "scale": 1e30}), 1, "1e+30"),
    (GapSchedule("ceil_power", {"alpha": 0.5, "scale": 2.0**62 / math.sqrt(14.5)}), 15,
     repr(math.ceil(2.0**62 / math.sqrt(14.5) * math.sqrt(15.0)) * 1.0)),
    (ErrorSchedule("scaled_power", {"alpha": 0.5, "scale": 1e308}), 4, "inf"),
    (ErrorSchedule.from_function(lambda ns: np.where(ns >= 5, np.nan, 0.0)), 5, "nan"),
    (ErrorSchedule.from_function(lambda ns: 3.0 - ns), 4, "-1.0"),
]


@pytest.mark.parametrize("s, first, shown", OUT_OF_RANGE,
                         ids=["gap-1e30", "gap-late", "error-inf", "error-nan", "error-negative"])
def test_a_value_out_of_range_names_the_rule_and_the_first_n(s, first, shown):
    """Gaps lie in [0, 2**62] and errors are finite and >= 0; a rule that
    leaves its range raises, with no cast to -2**63 and no RuntimeWarning."""
    want = "lie in [0, 2**62]" if s._noun == "gap" else "be finite and >= 0"
    message = f"{s._noun} rule {s.rule!r} gives {shown} at n = {first}; {s._noun} values must {want}"
    assert (s.values(np.arange(1, first)) >= 0).all()
    for ns in (np.arange(1, 40), np.arange(39, 0, -1), [first]):
        with pytest.raises(ScheduleRangeError) as exc:
            s.values(ns)
        assert str(exc.value) == message
    with pytest.raises(ScheduleRangeError):
        s.value(first)



@pytest.mark.parametrize("cls, kind", [(GapSchedule, int), (ErrorSchedule, float)])
def test_each_kind_keeps_its_value_type(cls, kind):
    """The shared constructors cast to the kind's type, in JSON and in value()."""
    assert cls.zero().to_json() == {"rule": "constant", "params": {"value": 0}}
    for s in (cls.zero(), cls.constant(True), table_schedule(cls, [1, 2, 3])):
        params = s.to_json()["params"]
        assert all(type(v) is kind for v in params.get("values", [params.get("value")]))
        assert type(s.value(1)) is kind
        assert cls.from_json(s.to_json()) == s
    assert table_schedule(cls, [1, 2, 3]).values([1, 3]).dtype == np.dtype(kind)


def test_only_gaps_and_errors_have_the_constant_constructors():
    """A sequence has no "constant" rule, so the zero() and constant(v) that
    RealSequence inherited always raised "unknown sequence 'constant'"."""
    assert not hasattr(RealSequence, "zero") and not hasattr(RealSequence, "constant")
    assert GapSchedule.zero() == GapSchedule("constant", {"value": 0})
    assert ErrorSchedule.constant(1.5) == ErrorSchedule("constant", {"value": 1.5})


@pytest.mark.parametrize("cls", [GapSchedule, ErrorSchedule])
def test_a_block_of_a_long_table_does_not_convert_the_list_again(cls):
    """A table's list becomes an array once per schedule: a later block of
    2^16 indices of a 10^6-entry table allocates about the block (0.5 MB
    per array), not the 8 MB table.  The array stays out of ==, repr and
    to_json."""
    values = [1, 2] * (10**6 // 2)
    s = table_schedule(cls, values)
    twin = copy.copy(s)  # the same fields, no array yet
    block = np.arange(1, (1 << 16) + 1, dtype=np.int64)
    first = s.values(block)
    tracemalloc.start()
    try:
        later = s.values(block + 7 * (1 << 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
    assert first.tolist() == later.tolist() == values[: 1 << 16]
    assert s == twin and repr(s) == repr(twin)
    assert s.to_json() == {"rule": "table", "params": {"values": values}}


def test_error_table():
    r = table_schedule(ErrorSchedule, [0.5, 0.25])
    assert r.value(2) == 0.25
    with pytest.raises(ScheduleRangeError, match=r"^error table covers n <= 2, asked for n = 3$"):
        r.value(3)
    with pytest.raises(ScheduleRangeError, match=r"^error table covers n <= 2, asked for n = 4$"):
        r.values([4, 1])


# ------------------------------------------------- every rule and its params


# each closed-form rule with all its params, and its values written out
RULES = [
    (GapSchedule, "constant", {"value": 3}, lambda ns: np.full(ns.shape, 3, dtype=np.int64)),
    (GapSchedule, "ceil_power", {"alpha": 0.7, "scale": 1.5},
     lambda ns: np.ceil(1.5 * np.power(ns.astype(np.float64), 0.7)).astype(np.int64)),
    (GapSchedule, "ceil_log", {},
     lambda ns: np.ceil(np.log2(1.0 + ns.astype(np.float64))).astype(np.int64)),
    (ErrorSchedule, "constant", {"value": 0.3}, lambda ns: np.full(ns.shape, 0.3)),
    (ErrorSchedule, "scaled_power", {"alpha": -0.4, "scale": 2.5},
     lambda ns: 2.5 * np.power(ns.astype(np.float64), -0.4)),
]


@pytest.mark.parametrize("cls, rule, params, expected", RULES,
                         ids=[f"{c._noun}-{r}" for c, r, _, _ in RULES])
def test_each_rule_is_its_expression_bit_for_bit(cls, rule, params, expected):
    ns = np.arange(1, 65, dtype=np.int64)
    assert cls(rule, params).values(ns).tobytes() == expected(ns).tobytes()
    with pytest.raises(SchemaError) as exc:
        cls.from_json({"rule": rule, "params": {**params, "extra": 1}}, "/s")
    assert (exc.value.pointer, exc.value.message) == ("/s/params/extra", "unknown key")


def test_a_power_rule_scale_defaults_to_one():
    """A null scale is absent, as the check reads it; its values once raised TypeError."""
    ns = np.arange(1, 65)
    for cls, rule in ((GapSchedule, "ceil_power"), (ErrorSchedule, "scaled_power")):
        unscaled = cls(rule, {"alpha": 0.5, "scale": 1.0}).values(ns).tobytes()
        assert cls(rule, {"alpha": 0.5}).values(ns).tobytes() == unscaled
        assert cls(rule, {"alpha": 0.5, "scale": None}).values(ns).tobytes() == unscaled


# a rule's params, and the refusal: its pointer and message
REFUSALS = [
    (GapSchedule, "constant", {}, "value", "missing"),
    (GapSchedule, "constant", {"value": 1.5}, "value", "must be an integer"),
    (GapSchedule, "constant", {"value": -1}, "value", "must be a nonnegative integer"),
    (GapSchedule, "constant", {"value": 2**63 - 1}, "value", "must lie in [0, 2**62]"),
    (GapSchedule, "constant", {"value": 2**62 + 1}, "value", "must lie in [0, 2**62]"),
    (GapSchedule, "ceil_power", {"alpha": "x"}, "alpha", "must be a finite number"),
    (GapSchedule, "ceil_power", {"alpha": 1.0}, "alpha", "ceil_power needs 0 < alpha < 1"),
    (GapSchedule, "ceil_power", {"alpha": 0.0}, "alpha", "ceil_power needs 0 < alpha < 1"),
    (GapSchedule, "ceil_power", {"alpha": 0.5, "scale": "x"}, "scale", "must be a finite number"),
    (GapSchedule, "ceil_power", {"alpha": 0.5, "scale": 0.0}, "scale",
     "ceil_power scale must be positive"),
    (GapSchedule, "ceil_power", {"alpha": 2.0, "scale": "x"}, "alpha",
     "ceil_power needs 0 < alpha < 1"),
    (GapSchedule, "ceil_log", {"scale": 2.0}, "scale", "unknown key"),
    (GapSchedule, "table", {"values": []}, "values", "needs a nonempty list"),
    (GapSchedule, "table", {"values": [1, 0.5]}, "values/1", "must be an integer"),
    (GapSchedule, "table", {"values": [1, -2]}, "values/1", "must be nonnegative"),
    (GapSchedule, "table", {"values": [1, 2**63 - 1]}, "values/1", "must lie in [0, 2**62]"),
    (ErrorSchedule, "constant", {"value": True}, "value", "must be a finite number"),
    (ErrorSchedule, "constant", {"value": -0.5}, "value", "must be nonnegative"),
    (ErrorSchedule, "scaled_power", {"alpha": math.nan}, "alpha", "must be a finite number"),
    (ErrorSchedule, "scaled_power", {"alpha": 1.0}, "alpha", "scaled_power needs alpha < 1"),
    (ErrorSchedule, "scaled_power", {"alpha": 0.5, "scale": [1]}, "scale",
     "must be a finite number"),
    (ErrorSchedule, "scaled_power", {"alpha": 0.5, "scale": -1.0}, "scale",
     "scaled_power scale must be nonnegative"),
    (ErrorSchedule, "table", {"values": [0.5, "x"]}, "values/1", "must be a finite number"),
    (ErrorSchedule, "table", {"values": [0.5], "value": 1.0}, "value", "unknown key"),
]


@pytest.mark.parametrize("cls, rule, params, key, message", REFUSALS)
def test_each_param_refusal_keeps_its_pointer_and_message(cls, rule, params, key, message):
    """Params are checked in declared order, each for its kind and then its range."""
    with pytest.raises(SchemaError) as exc:
        cls.from_json({"rule": rule, "params": params}, "/s")
    assert (exc.value.pointer, exc.value.message) == (f"/s/params/{key}", message)


# ------------------------------------------------------- convergence series


def test_series_validation():
    with pytest.raises(ValidationError):
        ConvergenceSeries([], [])
    with pytest.raises(ValidationError):
        ConvergenceSeries([1, 1], [0.0, 0.0])
    with pytest.raises(ValidationError):
        ConvergenceSeries([2, 1], [0.0, 0.0])
    with pytest.raises(ValidationError):
        ConvergenceSeries([1, 2], [0.0, np.nan])
    with pytest.raises(ValidationError):
        ConvergenceSeries([1, 2], [0.0, np.inf])
    # -inf is a legal value
    s = ConvergenceSeries([1, 2], [0.0, -np.inf])
    assert s.terminal == -np.inf


def test_series_running_extremes_and_terminal():
    s = ConvergenceSeries([1, 2, 3, 4], [1.0, 3.0, 2.0, 2.5])
    assert s.terminal == 2.5
    assert len(s) == 4


def test_tail_oscillation():
    s = ConvergenceSeries([10, 40, 80, 100], [9.0, 1.0, 1.5, 1.25])
    # tail is n >= 50: values 1.5 and 1.25
    assert abs(s.tail_oscillation() - 0.25) < 1e-15
    single = ConvergenceSeries([5], [1.0])
    assert single.tail_oscillation() is None
    flat = ConvergenceSeries([50, 100], [-np.inf, -np.inf])
    assert flat.tail_oscillation() == 0.0


def test_series_csv_round_trip_exact(tmp_path):
    vals = [1 / 3, -np.inf, 0.1 + 0.2]  # repr must round-trip these bit for bit
    s = ConvergenceSeries([1, 5, 9], vals)
    # the text of the old inline series writer, and of the terminals.csv loop
    assert s.csv_text() == "n,value\n1,0.3333333333333333\n5,-inf\n9,0.30000000000000004\n"
    lines = ["trial,terminal"]
    for t, v in enumerate(vals):
        lines.append(f"{t},{v!r}")
    assert csv_text("trial,terminal", enumerate(vals)) == "\n".join(lines) + "\n"
    path = tmp_path / "s.csv"
    path.write_text(s.csv_text())
    t = read_series(path)
    assert t.ns.tolist() == s.ns.tolist()
    assert t.values.tolist() == s.values.tolist()
    with open(path) as fh:
        assert fh.readline().strip() == "n,value"


def test_series_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n1,0.0\n")
    with pytest.raises(ConfigError):
        read_series(path)


# ------------------------------------------------------------------- grids


def test_geometric_grid_ends_at_N():
    g = geometric_grid(1000)
    assert g[-1] == 1000
    assert g[0] == 1
    assert (np.diff(g) > 0).all()
    assert geometric_grid(1).tolist() == [1]


def test_linear_grid_appends_N():
    assert linear_grid(10, 3).tolist() == [3, 6, 9, 10]
    assert linear_grid(9, 3).tolist() == [3, 6, 9]
    assert linear_grid(2, 5).tolist() == [2]
    with pytest.raises(ConfigError):
        linear_grid(10, 0)


@given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=1.01, max_value=3.0))
def test_geometric_grid_properties(N, ratio):
    g = geometric_grid(N, ratio=ratio)
    assert g[-1] == N
    assert g[0] >= 1
    assert (np.diff(g) > 0).all()


def _loop_grid(N, ratio):
    """The grid as one multiplicative step per point from 1: the oracle."""
    points = []
    x = 1.0
    while math.ceil(x) < N:
        points.append(math.ceil(x))
        x *= ratio
    points.append(N)
    return np.unique(np.asarray(points, dtype=np.int64))


def test_geometric_grid_matches_the_loop():
    rng = np.random.default_rng(0)
    cases = list(zip(rng.integers(1, 10**6 + 1, 20000).tolist(),
                     rng.uniform(1.01, 3.0, 20000).tolist()))
    cases += [(N, r) for r in (1.2, 1.5, 2.0, 1.01, 1.001, 1.0001)
              for N in (1, 2, 7, 1000, 99999, 10**6)]
    bad = [(N, r) for N, r in cases if not np.array_equal(geometric_grid(N, r), _loop_grid(N, r))]
    assert not bad


def test_geometric_grid_near_one_ratio_is_every_integer():
    # about 1e10 loop steps at this ratio; below 1/(r - 1) every integer is a point
    assert geometric_grid(10**5, ratio=1.000000001).tolist() == list(range(1, 10**5 + 1))


@pytest.mark.parametrize("ratio", [1.0, math.nan, math.inf])
def test_geometric_grid_rejects_bad_ratios(ratio):
    with pytest.raises(ConfigError):
        geometric_grid(100, ratio=ratio)


@pytest.mark.parametrize(
    "cls, spec, pointer",
    [
        (ErrorSchedule, {"rule": "constant", "params": {"value": math.nan}}, "/params/value"),
        (ErrorSchedule, {"rule": "constant", "params": {"value": math.inf}}, "/params/value"),
        (ErrorSchedule, {"rule": "constant", "params": {"value": True}}, "/params/value"),
        (ErrorSchedule, {"rule": "scaled_power", "params": {"alpha": math.nan}}, "/params/alpha"),
        (ErrorSchedule, {"rule": "scaled_power", "params": {"alpha": 0.5, "scale": math.inf}},
         "/params/scale"),
        (ErrorSchedule, {"rule": "table", "params": {"values": []}}, "/params/values"),
        (ErrorSchedule, {"rule": "table", "params": {"values": [0.5, math.nan]}},
         "/params/values/1"),
        (ErrorSchedule, {"rule": "table", "params": {"values": ["a"]}}, "/params/values/0"),
        (ErrorSchedule, {"rule": "constant", "params": [1]}, "/params"),
        (GapSchedule, {"rule": "constant", "params": {"value": True}}, "/params/value"),
        (GapSchedule, {"rule": "ceil_power", "params": {"alpha": 0.5, "scale": "x"}},
         "/params/scale"),
        (GapSchedule, {"rule": "table", "params": {"values": [1, 2.5]}}, "/params/values/1"),
        (GapSchedule, {"rule": "fancy"}, "/rule"),
    ],
)
def test_schedule_rejections_point_at_the_field(cls, spec, pointer):
    with pytest.raises(SchemaError) as exc:
        cls.from_json(spec, "/rho")
    assert exc.value.pointer == "/rho" + pointer


@pytest.mark.parametrize(
    "cls, spec, message",
    [
        (GapSchedule, {"rule": "table", "params": {"values": [1, 2]}},
         "gap table covers n <= 2, asked for n = 3"),
        (ErrorSchedule, {"rule": "scaled_power", "params": {"alpha": 0.5, "scale": 1e308}},
         "error rule 'scaled_power' gives inf at n = 4; error values must be finite and >= 0"),
        (RealSequence, {"name": "square", "params": {"scale": 1e308}},
         "sequence 'square' gives inf at n = 2; sequence values must lie in [-inf, inf)"),
    ],
    ids=["gap-table", "error-overflow", "sequence-overflow"],
)
def test_a_schedule_refuses_its_values_at_the_pointer_it_was_built_at(cls, spec, message):
    """from_json(obj, pointer) keeps the pointer for the refusals of values; one
    built in code keeps the message with no pointer.  The pointer is no part of
    ==, repr or to_json."""
    built = cls.from_json(spec, "/config/params/sigma")
    coded = cls.from_json(spec)
    assert built == coded and repr(built) == repr(coded) and built.to_json() == coded.to_json()
    ns = np.arange(1, 6, dtype=np.int64)
    with pytest.raises(ScheduleRangeError) as exc:
        built.values(ns)
    assert (exc.value.pointer, exc.value.message) == ("/config/params/sigma", message)
    with pytest.raises(ScheduleRangeError) as exc:
        coded.values(ns)
    assert (exc.value.pointer, exc.value.message) == ("", message)
