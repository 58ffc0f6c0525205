"""The blocked split scan and the windows' suffix blocks against their earlier bodies.

scan_oracle.split_scan is the scan as one array per row; the blocked scan
runs rows of equal gap together (fekete._scan_blocks).  Every comparison
is exact: the same violations and count, a largest excess with the same
bytes (the sign of a zero too), and suffix arrays with the same bytes.
"""
from __future__ import annotations

import numpy as np
import pytest

from gapsub import (
    ConfigError,
    ErrorSchedule,
    GapSchedule,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    RealSequence,
    check_trajectory_subadditivity,
    sample_trajectory,
)
from gapsub import fekete, measures
from gapsub.fekete import _scan_blocks, split_scan

import scan_oracle as oracle

# the step 0 -> 2 has probability 0
ZERO_STEP_P = [[0.5, 0.5, 0.0], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]


def _bits(result):
    """A scan result with its largest excess as bytes, so -0.0 and 0.0 differ."""
    found, total, top = result
    return found, total, np.float64(top).tobytes()


def _one_point(Fv, sig, rh, tol=1e-12, max_report=200):
    """(blocked, oracle) results of the one-point scan of Fv with gap and error arrays."""
    args = (np.asarray(sig, dtype=np.int64), np.asarray(rh, dtype=np.float64), tol, max_report)
    got = split_scan(Fv, lambda j, rows, m: Fv[None, :m], *args)
    want = oracle.split_scan(Fv, lambda j, m: Fv[:m], *args)
    return _bits(got), _bits(want)


def _schedules(Fv, sigma, rho, **kw):
    ns = np.arange(1, Fv.size + 1, dtype=np.int64)
    return _one_point(Fv, sigma.values(ns), rho.values(ns), **kw)


def test_rows_with_neg_inf_on_both_sides():
    # finite and -inf values mixed: some pairs are -inf - (-inf), a nan excess
    rng = np.random.default_rng(5)
    Fv = rng.normal(0.0, 3.0, 120)
    Fv[rng.random(120) < 0.3] = -np.inf
    got, want = _schedules(Fv, GapSchedule.constant(1), ErrorSchedule.constant(0.5))
    assert got == want
    assert got[1] > 0 and np.frombuffer(got[2])[0] == np.inf  # finite against -inf
    # every value -inf from n = 3 on: rows of nan only, no defined excess in most
    Fv = RealSequence.from_json({"name": "neg_inf_from", "params": {"start": 3}}).values(np.arange(1, 61))
    got, want = _schedules(Fv, GapSchedule.zero(), ErrorSchedule.zero())
    assert got == want


def test_more_violations_than_the_report_holds():
    Fv = RealSequence.from_json(
        {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}
    ).values(np.arange(1, 401))
    got, want = _schedules(Fv, GapSchedule("ceil_log"), ErrorSchedule.zero())
    assert got == want
    assert len(got[0]) == 200 and got[1] > 200


def _noisy(N: int, seed: int) -> np.ndarray:
    """A random walk with some -inf values: violations, nan rows and finite rows."""
    rng = np.random.default_rng(seed)
    Fv = rng.normal(0.0, 1.0, N).cumsum()
    Fv[rng.random(N) < 0.1] = -np.inf
    return Fv


TOLS = pytest.mark.parametrize("tol, max_report", [(1e-12, 200), (-1.0, 7), (-1.0, 40)])


@TOLS
@pytest.mark.parametrize("seed", range(4))
def test_gap_tables_with_non_monotone_offsets(seed, tol, max_report):
    """n + sigma_n falls and rises, most runs of equal sigma are one row long,
    and rows with no pair (sigma_n >= N - n) sit between rows that have pairs."""
    N = 150
    rng = np.random.default_rng([seed, 1])
    sig = rng.integers(0, 6, N)
    sig[rng.random(N) < 0.3] = N
    assert (np.diff(np.arange(1, N + 1) + sig) < 0).any()
    blocks = _scan_blocks(sig, N)
    assert sum(rows == 1 for _, rows, _ in blocks) > len(blocks) // 2
    rh = rng.random(N)
    got, want = _one_point(_noisy(N, seed), sig, rh, tol, max_report)
    assert got == want


@TOLS
@pytest.mark.parametrize("N", [1, 2, 3])
def test_the_shortest_horizons(N, tol, max_report):
    for sig in ([0] * N, [1] * N, [0, 1, 0][:N], [2, 0, 0][:N]):
        for Fv in (np.arange(1.0, N + 1), -np.arange(1.0, N + 1) ** 2, np.full(N, -np.inf)):
            got, want = _one_point(Fv, sig, np.zeros(N), tol, max_report)
            assert got == want


def test_blocks_are_cut_by_their_width_and_the_float_budget():
    """A run of 10 rows at gap 3 has 6 rows with a pair, the first row 6 of
    them; each block is at most half as tall as its first row is wide."""
    assert _scan_blocks(np.full(10, 3, dtype=np.int64), 10) == [(1, 3, 6), (4, 2, 3), (6, 1, 1)]
    assert _scan_blocks(np.zeros(10, dtype=np.int64), 10) == [
        (1, 5, 9), (6, 2, 4), (8, 1, 2), (9, 1, 1)]
    # one run, cut by the float budget while the rows are wide, then by the width
    blocks = _scan_blocks(np.zeros(2000, dtype=np.int64), 2000)
    assert blocks[0] == (1, fekete._SCAN_FLOATS // 1999, 1999)
    assert all(rows <= (width + 1) // 2 and rows * width <= fekete._SCAN_FLOATS
               for _, rows, width in blocks)
    assert [n for n, _, _ in blocks] == list(np.cumsum([1] + [r for _, r, _ in blocks[:-1]]))
    assert sum(rows for _, rows, _ in blocks) == 1999
    Fv = _noisy(300, seed=9)
    for tol, max_report in [(1e-12, 200), (-1.0, 40)]:
        got, want = _one_point(Fv, np.zeros(300), np.full(300, 0.3), tol, max_report)
        assert got == want


def test_violations_past_the_report_spread_over_blocks(monkeypatch):
    """With blocks of at most 64 entries the violations fall in many blocks."""
    monkeypatch.setattr(fekete, "_SCAN_FLOATS", 64)
    N = 120
    sig = GapSchedule("ceil_log").values(np.arange(1, N + 1))
    assert len(_scan_blocks(sig, N)) > 50
    Fv = np.arange(1.0, N + 1) ** 1.5  # superadditive: every pair violates at rho = 0
    for max_report in (7, 200, 10**6):
        got, want = _one_point(Fv, sig, np.zeros(N), 1e-12, max_report)
        assert got == want
        assert got[1] > 200 and len(got[0]) == min(max_report, got[1])
        blocks = _scan_blocks(sig, N)
        hit = {next(i for i, (n, rows, _) in enumerate(blocks) if n <= v.n < n + rows)
               for v in got[0]}
        assert len(hit) == 1 if max_report == 7 else len(hit) > 1


@pytest.mark.parametrize("seed", range(20))
def test_a_zero_largest_excess_keeps_its_sign(seed):
    """A table of 0.0 and -0.0 makes every excess at rho = 0 a signed zero.
    The largest excess is the first such row's maximum, whose sign depends on
    the order of that row's own reduction.  The rows before it have rho = 1,
    so it is a later row of its block, one that -inf pads."""
    rng = np.random.default_rng([seed, 2])
    N = int(rng.integers(40, 200))
    values = np.where(rng.random(N) < 0.5, -0.0, 0.0).tolist()
    Fv = RealSequence.from_json({"name": "table", "params": {"values": values}}).values(np.arange(1, N + 1))
    assert np.signbit(Fv).any() and not np.signbit(Fv).all()
    rh = np.zeros(N)
    rh[: rng.integers(1, 20)] = 1.0
    got, want = _one_point(Fv, np.zeros(N), rh)
    assert got == want and np.frombuffer(got[2])[0] == 0.0


def test_an_excess_of_exactly_tol_is_no_violation():
    """F = (0, 0.5, 1.25) at tol 0.5: the pair (1, 1) has excess exactly
    0.5, so only (1, 2) and (2, 1), each 0.75 over, are violations."""
    F = RealSequence.from_json({"name": "table", "params": {"values": [0.0, 0.5, 1.25]}})
    chk = fekete.check_gapped_subadditivity(F, GapSchedule.zero(), ErrorSchedule.zero(), 3, tol=0.5)
    assert [(v.n, v.m, v.excess) for v in chk.violations] == [(1, 2, 0.75), (2, 1, 0.75)]
    assert (chk.violation_count, chk.max_excess) == (2, 0.75)


def _paths():
    """(measure, path) pairs: iid and Markov with and without a -inf term, HMM, mixture."""
    markov = MarkovMeasure(ZERO_STEP_P)
    x = sample_trajectory(markov, 300, seed=137).symbols
    blocked = x.copy()
    blocked[20:22] = [0, 2]
    iid = IIDMeasure([0.5, 0.3, 0.2])
    y = sample_trajectory(iid, 300, seed=139).symbols
    iid_zero = IIDMeasure([0.5, 0.5, 0.0])
    hmm = HiddenMarkovMeasure([[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
    # the HMM never emits symbol 2 from state 0
    hmm3 = HiddenMarkovMeasure([[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2, 0.0], [0.3, 0.3, 0.4]])
    mixture = MixtureMeasure([hmm3, markov], [0.4, 0.6])
    return {
        "markov": (markov, x),
        "markov-zero-step": (markov, blocked),
        "iid": (iid, y),
        "iid-zero-symbol": (iid_zero, np.where(np.arange(y.size) == 150, 2, y % 2)),
        "hmm": (hmm, sample_trajectory(hmm, 300, seed=141).symbols),
        "mixture": (mixture, sample_trajectory(mixture, 200, seed=143).symbols),
    }


def _reference_suffix(Q, x):
    """suffix(j, m) built without suffix_rows: the oracle's prefix sums, an
    HMM's prefixes of the shifted path, and a mixture's mix of its parts'."""
    if isinstance(Q, MixtureMeasure):
        parts = [_reference_suffix(c, x) for c in Q.components]
        return lambda j, m: Q._mix([part(j, m) for part in parts])
    if isinstance(Q, HiddenMarkovMeasure):
        return lambda j, m: Q.prefix_logprobs(x[j : j + m])
    wl = Q.windows(x)
    return lambda j, m: oracle.prefix_sum_suffix(wl, j, m)


@pytest.mark.parametrize("name", ["markov", "markov-zero-step", "iid", "iid-zero-symbol"])
def test_prefix_sum_suffix_keeps_its_bytes(name):
    Q, x = _paths()[name]
    wl = Q.windows(x)
    assert wl._any_bad == name.endswith(("zero-step", "zero-symbol"))
    for j in range(x.size):
        got = wl.suffix(j, x.size - j)
        assert got.tobytes() == oracle.prefix_sum_suffix(wl, j, x.size - j).tobytes()


NAMES = ["markov", "markov-zero-step", "iid", "iid-zero-symbol", "hmm", "mixture"]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("table", [None, 1, 700], ids=["table-default", "table-1", "table-700"])
def test_suffix_rows_are_the_suffixes(name, table, monkeypatch):
    """suffix(j, .) has the reference's bytes at every offset j, and row r of
    suffix_rows(j0, rows, width) has suffix(j0 + r, .)'s up to the path's end,
    for blocks of several shapes; small forward tables make an HMM rebuild."""
    if table is not None:
        monkeypatch.setattr(measures, "_TABLE_ENTRIES", table)
    Q, x = _paths()[name]
    size = x.size
    wl, ref = Q.windows(x), _reference_suffix(Q, x)
    full = np.full((size, size), np.nan)  # row j: the suffix at offset j, nan past the path
    for j in range(size):
        full[j, : size - j] = wl.suffix(j, size - j)
        assert full[j, : size - j].tobytes() == ref(j, size - j).tobytes()
    bits = full.view(np.int64)
    wl = Q.windows(x)
    for j0 in sorted({*range(0, size, 7), size - 3, size - 2, size - 1}):
        for rows in sorted({1, 2, 17, size - j0} & set(range(1, size - j0 + 1))):
            for width in sorted({1, (size - j0 + 1) // 2, size - j0}):
                got = wl.suffix_rows(j0, rows, width)
                assert got.shape == (rows, width)
                inside = np.arange(width) < (size - j0 - np.arange(rows))[:, None]
                want = bits[j0 : j0 + rows, :width]
                assert (got.view(np.int64)[inside] == want[inside]).all()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("tau", [0, 1])
@pytest.mark.parametrize("tol", [1e-10, -1.0])
def test_trajectory_scan_matches_the_earlier_body(name, tau, tol):
    """At tol = -1 every path reports more violations than max_report in the
    scan, and the front end refuses the negative tol before it reads the path."""
    Q, x = _paths()[name]
    wl = Q.windows(x)
    N = x.size
    ns = np.arange(1, N + 1, dtype=np.int64)
    args = (GapSchedule.constant(tau).values(ns), np.zeros(N), tol, 40)
    old = _reference_suffix(Q, x)
    want = _bits(oracle.split_scan(old(0, N), old, *args))
    assert _bits(split_scan(wl.suffix(0, N), wl.suffix_rows, *args)) == want
    if tol < 0:
        assert want[1] > 40  # the report is cut, the count is not
        with pytest.raises(ConfigError, match="tol must be finite and >= 0"):
            check_trajectory_subadditivity(x, Q, ErrorSchedule.zero(), GapSchedule.constant(tau),
                                           tol=tol, max_report=40)
        return
    chk = check_trajectory_subadditivity(
        x, Q, ErrorSchedule.zero(), GapSchedule.constant(tau), tol=tol, max_report=40
    )
    assert _bits((chk.violations, chk.violation_count, chk.max_excess)) == want


@pytest.mark.parametrize("name", ["hmm", "mixture"])
def test_blocks_cross_a_forward_table_rebuild(name, monkeypatch):
    """A forward table of 700 floats holds a few rows of the path, so the
    scan's blocks, of at most 64 entries, leave it and rebuild it many times."""
    Q, x = _paths()[name]
    N = x.size
    sig = GapSchedule("ceil_log").values(np.arange(1, N + 1))
    old = _reference_suffix(Q, x)
    want = {tol: _bits(oracle.split_scan(old(0, N), old, sig, np.zeros(N), tol, 40))
            for tol in (1e-10, -1.0)}
    monkeypatch.setattr(measures, "_TABLE_ENTRIES", 700)
    monkeypatch.setattr(fekete, "_SCAN_FLOATS", 64)
    hmm = Q if name == "hmm" else Q.components[0]
    forward, tables = hmm._forward, []

    def counted(path, js, m, table=False):
        tables.append(table)
        return forward(path, js, m, table)

    monkeypatch.setattr(hmm, "_forward", counted)
    for tol, result in want.items():
        wl = Q.windows(x)
        got = split_scan(wl.suffix(0, N), wl.suffix_rows, sig, np.zeros(N), tol, 40)
        assert _bits(got) == result
    assert sum(tables) > 20
