from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, strategies as st

from gapsub import (
    ConfigError,
    ConvergenceSeries,
    ErrorSchedule,
    GapSchedule,
    ScheduleRangeError,
    SchemaError,
    ValidationError,
    geometric_grid,
    linear_grid,
    sublinearity_report,
)
from gapsub.schedules import csv_text


# ---------------------------------------------------------------- gap rules


def test_constant_gap():
    s = GapSchedule.constant(3)
    assert s.value(1) == 3
    assert list(s.values([1, 10, 1000])) == [3, 3, 3]
    assert list(GapSchedule.zero().values([1, 5])) == [0, 0]


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
    s = GapSchedule.from_table([0, 1, 2])
    assert s.value(1) == 0 and s.value(3) == 2
    with pytest.raises(ScheduleRangeError, match=r"^gap table covers n <= 3, asked for n = 4$"):
        s.value(4)
    with pytest.raises(ScheduleRangeError, match=r"^gap table covers n <= 3, asked for n = 5$"):
        s.values([1, 5, 2])
    with pytest.raises(ScheduleRangeError):
        s.values([0])  # indices start at 1
    with pytest.raises(ConfigError):
        GapSchedule.from_table([])
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
    assert not r.position_dependent
    with pytest.raises(ConfigError):
        r.to_json()


def test_error_function_shape_checked():
    r = ErrorSchedule.from_function(lambda ns: np.zeros(ns.size + 1))
    with pytest.raises(ValidationError):
        r.values([1, 2])


def test_error_hook_is_position_dependent():
    r = ErrorSchedule.from_hook(lambda symbols, j, n: 0.0)
    assert r.position_dependent
    with pytest.raises(ConfigError):
        r.value(3)
    with pytest.raises(ConfigError):
        r.to_json()


@pytest.mark.parametrize("cls, kind", [(GapSchedule, int), (ErrorSchedule, float)])
def test_each_kind_keeps_its_value_type(cls, kind):
    """The shared constructors cast to the kind's type, in JSON and in value()."""
    assert cls.zero().to_json() == {"rule": "constant", "params": {"value": 0}}
    for s in (cls.zero(), cls.constant(True), cls.from_table([1, 2, 3])):
        params = s.to_json()["params"]
        assert all(type(v) is kind for v in params.get("values", [params.get("value")]))
        assert type(s.value(1)) is kind
        assert cls.from_json(s.to_json()) == s
    assert cls.from_table([1, 2, 3]).values([1, 3]).dtype == np.dtype(kind)


def test_error_table():
    r = ErrorSchedule.from_table([0.5, 0.25])
    assert r.value(2) == 0.25
    with pytest.raises(ScheduleRangeError, match=r"^error table covers n <= 2, asked for n = 3$"):
        r.value(3)
    with pytest.raises(ScheduleRangeError, match=r"^error table covers n <= 2, asked for n = 4$"):
        r.values([4, 1])


# ---------------------------------------------------------- sublinearity


def test_sublinearity_constant_passes():
    rep = sublinearity_report(GapSchedule.constant(5), N=1000, threshold=0.1)
    assert rep.looks_sublinear
    assert rep.max_ratio == 5 / 500  # worst point is the window start
    assert rep.window == (500, 1000)


def test_sublinearity_sqrt_window_max():
    """ceil(sqrt(n))/n over [5000, 10000] peaks just past a square."""
    rep = sublinearity_report(
        GapSchedule("ceil_power", {"alpha": 0.5}), N=10000, threshold=0.1
    )
    ns = np.arange(5000, 10001)
    ratios = np.ceil(np.sqrt(ns)) / ns
    assert rep.looks_sublinear
    assert abs(rep.max_ratio - ratios.max()) < 1e-15
    assert rep.argmax_n == int(ns[np.argmax(ratios)])


def test_sublinearity_linear_table_fails():
    tab = GapSchedule.from_table(list(range(0, 40)))
    rep = sublinearity_report(tab, N=39, threshold=0.1)
    assert not rep.looks_sublinear


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
    t = ConvergenceSeries.from_csv(path)
    assert t.ns.tolist() == s.ns.tolist()
    assert t.values.tolist() == s.values.tolist()
    with open(path) as fh:
        assert fh.readline().strip() == "n,value"


def test_series_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n1,0.0\n")
    with pytest.raises(ConfigError):
        ConvergenceSeries.from_csv(path)


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
    assert [ptr for ptr, _ in exc.value.problems] == ["/rho" + pointer]
