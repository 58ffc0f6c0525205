"""The fused split scan and the windows' suffix against their earlier bodies.

Every comparison is exact: the same violations, count and largest excess,
and suffix arrays with the same bytes.
"""
from __future__ import annotations

import numpy as np
import pytest

from gapsub import (
    ErrorSchedule,
    GapSchedule,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    check_trajectory_subadditivity,
    sample_trajectory,
    sequence_from_spec,
)
from gapsub.fekete import split_scan

import scan_oracle as oracle

# the step 0 -> 2 has probability 0
ZERO_STEP_P = [[0.5, 0.5, 0.0], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]


def _one_point(Fv, sigma, rho, max_report=200, tol=1e-12):
    ns = np.arange(1, Fv.size + 1, dtype=np.int64)
    args = (sigma.values(ns), rho.values(ns), tol, max_report)
    got = split_scan(Fv, lambda j, m: Fv[:m], *args)
    want = oracle.split_scan(Fv, lambda j, m: Fv[:m], *args)
    return got, want


def test_rows_with_neg_inf_on_both_sides():
    # finite and -inf values mixed: some pairs are -inf - (-inf), a nan excess
    rng = np.random.default_rng(5)
    Fv = rng.normal(0.0, 3.0, 120)
    Fv[rng.random(120) < 0.3] = -np.inf
    got, want = _one_point(Fv, GapSchedule.constant(1), ErrorSchedule.constant(0.5))
    assert got == want
    assert got[1] > 0 and got[2] == np.inf  # finite against -inf
    # every value -inf from n = 3 on: rows of nan only, no defined excess in most
    Fv = sequence_from_spec({"name": "neg_inf_from", "params": {"start": 3}}).values(60)
    got, want = _one_point(Fv, GapSchedule.zero(), ErrorSchedule.zero())
    assert got == want


def test_more_violations_than_the_report_holds():
    Fv = sequence_from_spec(
        {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}
    ).values(400)
    got, want = _one_point(Fv, GapSchedule("ceil_log"), ErrorSchedule.zero())
    assert got == want
    assert len(got[0]) == 200 and got[1] > 200


def _paths():
    """(measure, path) pairs: iid and Markov with and without a -inf term, and HMM."""
    markov = MarkovMeasure(ZERO_STEP_P)
    x = sample_trajectory(markov, 300, seed=137).symbols
    blocked = x.copy()
    blocked[20:22] = [0, 2]
    iid = IIDMeasure([0.5, 0.3, 0.2])
    y = sample_trajectory(iid, 300, seed=139).symbols
    iid_zero = IIDMeasure([0.5, 0.5, 0.0])
    hmm = HiddenMarkovMeasure([[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
    return {
        "markov": (markov, x),
        "markov-zero-step": (markov, blocked),
        "iid": (iid, y),
        "iid-zero-symbol": (iid_zero, np.where(np.arange(y.size) == 150, 2, y % 2)),
        "hmm": (hmm, sample_trajectory(hmm, 300, seed=141).symbols),
    }


@pytest.mark.parametrize("name", ["markov", "markov-zero-step", "iid", "iid-zero-symbol"])
def test_prefix_sum_suffix_keeps_its_bytes(name):
    Q, x = _paths()[name]
    wl = Q.windows(x)
    assert wl._any_bad == name.endswith(("zero-step", "zero-symbol"))
    for j in range(x.size):
        got = wl.suffix(j, x.size - j)
        assert got.tobytes() == oracle.prefix_sum_suffix(wl, j, x.size - j).tobytes()


@pytest.mark.parametrize("name", ["markov", "markov-zero-step", "iid", "iid-zero-symbol", "hmm"])
@pytest.mark.parametrize("tau", [0, 1])
@pytest.mark.parametrize("tol", [1e-10, -1.0])
def test_trajectory_scan_matches_the_earlier_body(name, tau, tol):
    """At tol = -1 every path reports more violations than max_report."""
    Q, x = _paths()[name]
    wl = Q.windows(x)
    N = x.size
    ns = np.arange(1, N + 1, dtype=np.int64)
    args = (GapSchedule.constant(tau).values(ns), np.zeros(N), tol, 40)
    if name == "hmm":
        want = oracle.split_scan(wl.suffix(0, N), wl.suffix, *args)
    else:
        old = lambda j, m: oracle.prefix_sum_suffix(wl, j, m)  # noqa: E731
        want = oracle.split_scan(old(0, N), old, *args)
    assert split_scan(wl.suffix(0, N), wl.suffix, *args) == want
    chk = check_trajectory_subadditivity(
        x, Q, ErrorSchedule.zero(), GapSchedule.constant(tau), tol=tol, max_report=40
    )
    assert (chk.violations, chk.violation_count, chk.max_excess) == want
    if tol < 0:
        assert want[1] > 40  # the report is cut, the count is not
