"""The streamed decoupling audit against whole-level enumeration, bit for bit.

minimal_decoupling_constants walks the joint levels once, depth first from
level 1, in pieces of at most decoupling._JOINT_WORDS floats cut at whole
groups of k words, and reads every split (n, m) off the node at its level;
the oracle in audit_oracle.py builds every joint level whole, once per
split.  Reports are compared as JSON text, so every float must agree
exactly, at the default budget and at budgets that cut the levels into
many pieces, under constant, growing and non-monotone gap schedules.  A
spy on the cuts pins that each falls at a multiple of k, the condition a
Markov level state's extension rests on.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gapsub import (
    CapExceededError,
    GapSchedule,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    ScheduleRangeError,
    minimal_decoupling_constants,
)
from gapsub import decoupling

from audit_oracle import old_level, whole_level_audit
from conftest import WORKED_P, table_schedule
from lse_oracle import log_sum_exp


def _hmm(hidden: int, k: int, seed: int) -> HiddenMarkovMeasure:
    rng = np.random.default_rng([seed, hidden, k])
    A = rng.dirichlet(np.ones(hidden), size=hidden)
    E = rng.dirichlet(np.ones(k), size=hidden)
    return HiddenMarkovMeasure(A, E)


# (measure, n_max, m_max): small enough that every joint level of the
# oracle stays below a few thousand words
CASES = {
    "worked": (MarkovMeasure(WORKED_P), 4, 4),
    "zero-transition": (MarkovMeasure([[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]]), 3, 3),
    "non-invariant-start": (MarkovMeasure(WORKED_P, start=[0.5, 0.5]), 4, 3),
    # its worst defect ties bit for bit across first-block words, so the
    # first flat position decides
    "symmetric": (MarkovMeasure([[0.9, 0.1], [0.1, 0.9]]), 4, 4),
    "hmm1": (HiddenMarkovMeasure([[1.0]], [[0.3, 0.7]]), 3, 3),
    "hmm2": (_hmm(2, 2, 1), 4, 4),
    "hmm3": (_hmm(3, 3, 2), 3, 3),
    # either side of the 8 hidden states from which an extended state keeps
    # the word-major layout; at seed 2 the level-1 totals of hmm8 differ
    # when summed pairwise, so they must stay left to right
    "hmm7": (_hmm(7, 2, 8), 4, 3),
    "hmm8": (_hmm(8, 2, 2), 4, 3),
    "hmm9": (_hmm(9, 2, 3), 4, 3),
    # at a budget of one float, every piece is one group of k = 5 words
    "markov5": (MarkovMeasure(np.random.default_rng(10).dirichlet(np.ones(5), size=5)), 2, 2),
    "markov+iid": (MixtureMeasure([MarkovMeasure(WORKED_P), IIDMeasure([0.4, 0.6])], [0.3, 0.7]), 3, 4),
    "markov+hmm": (MixtureMeasure([MarkovMeasure(WORKED_P), _hmm(3, 2, 4)], [0.5, 0.5]), 4, 3),
    "iid": (IIDMeasure([0.2, 0.3, 0.5]), 3, 3),
}
GAPS = {
    "tau0": GapSchedule.zero(),
    "tau1": GapSchedule.constant(1),
    "tau2": GapSchedule.constant(2),
    "ceil-log": GapSchedule("ceil_log"),
    # n + tau_n = 3, 2, 4, 7: the levels of n = 2 end before those of n = 1,
    # so a piece may be cut at whole words of level 1 only while a split of
    # n = 1 lies at or below it
    "table-non-monotone": table_schedule(GapSchedule, [2, 0, 1, 3]),
}
# floats per piece: the default, one word of the coarsest allowed level per
# piece, and a budget that leaves pieces of several words with a short last
# piece
BUDGETS = {"default": decoupling._JOINT_WORDS, "one": 1, "odd": 37}


def _text(report) -> str:
    return json.dumps(report.to_json())


@pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS.keys())
@pytest.mark.parametrize("gap", GAPS.values(), ids=GAPS.keys())
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_streamed_audit_is_the_whole_level_audit(monkeypatch, case, gap, budget):
    Q, n_max, m_max = case
    monkeypatch.setattr(decoupling, "_JOINT_WORDS", budget)
    got = minimal_decoupling_constants(Q, n_max, m_max, gap)
    want = whole_level_audit(Q, n_max, m_max, gap)
    if Q._hidden().product:
        # iid and the one-state HMM take the product identity, exact zeros
        # that the whole-level audit gives to rounding; the markov+iid
        # mixture keeps the iid level states inside the streamed audit
        assert (got.method, got.constants) == ("product-identity", (0.0,) * n_max)
        assert max(abs(c) for c in want.constants) < 1e-12
    else:
        assert got.method == "enumeration"
        assert _text(got) == _text(want)


def _spy_on_joint_extensions(Q, words) -> list[int]:
    """Count the words each one-step extension of Q makes, leaving out the
    extensions that build level tables (Q._level_state)."""
    made, in_table = [0], [0]
    extend, state = Q._level_extend, Q._level_state

    def spy_extend(s, steps):
        for _ in range(steps):
            s = extend(s, 1)
            if not in_table[0]:
                made[0] += words(s)
        return s

    def spy_state(n):
        in_table[0] += 1
        try:
            return state(n)
        finally:
            in_table[0] -= 1

    Q._level_extend, Q._level_state = spy_extend, spy_state
    return made


@pytest.mark.parametrize(
    "Q, words, n_max, m_max, tau, deepest",
    [
        (MarkovMeasure(WORKED_P), lambda s: s.size, 4, 4, 2, 10),
        (_hmm(2, 2, 1), lambda s: s.shape[1], 3, 3, 1, 7),
    ],
    ids=["worked", "hmm2"],
)
def test_each_joint_word_is_extended_once(Q, words, n_max, m_max, tau, deepest):
    """The walk makes every word of levels 2 .. deepest once: 2,044 words
    for the worked chain, where extending each split's first blocks anew
    made 3,780; 252 for the HMM, where that made 420."""
    made = _spy_on_joint_extensions(Q, words)
    got = minimal_decoupling_constants(Q, n_max, m_max, GapSchedule.constant(tau))
    assert made[0] == sum(2**level for level in range(2, deepest + 1))
    assert _text(got) == _text(whole_level_audit(Q, n_max, m_max, GapSchedule.constant(tau)))


@pytest.mark.parametrize("tau", [0, 1])
def test_symmetric_chain_ties_across_chunks(monkeypatch, tau):
    """At n = m = 4 the symmetric chain's worst defect is attained, bit for
    bit, at four first-block words, each its own chunk at a budget of one
    word; the report names the first of them in flat order."""
    Q, n, m = CASES["symmetric"][0], 4, 4
    J = old_level(Q, n + tau + m).reshape(2**n, 2**tau, 2**m)
    D = log_sum_exp(J, axis=1) - old_level(Q, n)[:, None] - old_level(Q, m)[None, :]
    rows = np.unique(np.nonzero(D == D.max())[0])
    assert rows.size == 4
    monkeypatch.setattr(decoupling, "_JOINT_WORDS", 1)
    worst = minimal_decoupling_constants(Q, n, m, GapSchedule.constant(tau)).worst_pairs[-1]
    assert (worst.m, worst.defect) == (m, float(D.max()))
    assert worst.a == decoupling._word_of_index(int(rows[0]), 2, n)


CUT_GAPS = {name: GAPS[name] for name in ("tau0", "tau1", "table-non-monotone")}


@pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS.keys())
@pytest.mark.parametrize("gap", CUT_GAPS.values(), ids=CUT_GAPS.keys())
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_every_cut_falls_at_a_multiple_of_k(monkeypatch, case, gap, budget):
    """The walk cuts a level state only at whole groups of k words: at gap
    0 a split with m = 1 would otherwise cut at single words of its level."""
    Q, n_max, m_max = case
    k, cuts, rows = Q.alphabet.size, [], Q._level_rows

    def spy_rows(state, lo, hi):
        cuts.append((lo, hi))
        return rows(state, lo, hi)

    monkeypatch.setattr(Q, "_level_rows", spy_rows)
    monkeypatch.setattr(decoupling, "_JOINT_WORDS", budget)
    minimal_decoupling_constants(Q, n_max, m_max, gap)
    if Q._hidden().product:
        assert cuts == []  # the product identity walks no level state
        return
    assert cuts
    assert [(lo, hi) for lo, hi in cuts if lo % k or hi % k] == []


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_level_states_are_the_old_level_bodies(case):
    Q = case[0]
    for n in range(1, 9):
        assert Q.log_marginals_level(n).tobytes() == old_level(Q, n).tobytes()


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_any_cut_extends_to_its_block_of_the_longer_level(case):
    """Rows lo..hi-1 of level 3, extended by s symbols, are the words
    lo k^s .. hi k^s - 1 of level 3 + s, bit for bit, wherever a cut at
    whole groups of k words falls: the whole level, its second group and
    its last."""
    Q = case[0]
    k = Q.alphabet.size
    state = Q._level_state(3)
    for lo, hi in [(0, k**3), (k, 2 * k), (k**3 - k, k**3)]:
        for s in range(3):
            got = Q._level_totals(Q._level_extend(Q._level_rows(state, lo, hi), s))
            assert got.tobytes() == old_level(Q, 3 + s)[lo * k**s : hi * k**s].tobytes()


def _left_to_right(a: np.ndarray) -> np.ndarray:
    acc = a[0].copy()
    for row in a[1:]:
        acc = acc + row
    return acc


@pytest.mark.parametrize("h", [2, 3, 8, 9, 16, 33])
def test_numpy_sums_an_outer_axis_left_to_right(h):
    """The level layouts rest on this: np.add.reduce over the leading axis
    of a C-contiguous (h, M) array, M > 1, adds the slices left to right,
    while over an innermost axis of 8 or more terms it adds pairwise."""
    rng = np.random.default_rng(h)
    # (1, e, e, ...) with e below half an ulp of 1: left to right every e
    # is lost, pairwise they add up first
    lopsided = np.tile(np.r_[1.0, np.full(h - 1, 1e-16)][:, None], 3)
    for a in (rng.random((h, 5)), lopsided):
        assert np.add.reduce(a, axis=0).tobytes() == _left_to_right(a).tobytes()
    inner = np.add.reduce(np.ascontiguousarray(lopsided.T), axis=1)
    assert (inner.tobytes() == _left_to_right(lopsided).tobytes()) == (h < 8)


@pytest.mark.parametrize(
    "Q, n_max, m_max, tau, cap",
    [
        (MarkovMeasure(WORKED_P), 8, 8, 0, 16),
        (_hmm(9, 2, 5), 2, 2, 0, 20),
        (_hmm(9, 2, 5), 2, 2, 0, 17),
        (_hmm(3, 2, 6), 3, 4, 1, 2**8),
        (MixtureMeasure([MarkovMeasure(WORKED_P), _hmm(3, 2, 7)], [0.5, 0.5]), 3, 4, 1, 2**8),
    ],
    ids=["word-cap", "hmm-joint", "hmm-level-1", "hmm-gap", "mixture-hmm"],
)
def test_refusals_keep_their_messages(Q, n_max, m_max, tau, cap):
    gap = GapSchedule.constant(tau)
    with pytest.raises(CapExceededError) as want:
        whole_level_audit(Q, n_max, m_max, gap, cap=cap)
    with pytest.raises(CapExceededError) as got:
        minimal_decoupling_constants(Q, n_max, m_max, gap, cap=cap)
    assert str(got.value) == str(want.value)


def test_hmm_audit_checks_its_deepest_level_once():
    """h = 2, n = m = 4, tau = 4: the deepest level has 2^12 words of 2
    floats, so the audit is refused at cap 8191 and runs at 8192."""
    Q, gap = _hmm(2, 2, 5), GapSchedule.constant(4)
    with pytest.raises(CapExceededError) as got:
        minimal_decoupling_constants(Q, 4, 4, gap, cap=8191)
    assert str(got.value) == "audit needs 4096 words of 2 floats at length 12, cap is 8191"
    rep = minimal_decoupling_constants(Q, 4, 4, gap, cap=8192)
    assert rep.constants == whole_level_audit(Q, 4, 4, gap, cap=8192).constants


@pytest.mark.parametrize("tau, words",[(60, "9223372036854775808"), (61, "2^64")])
def test_refusal_names_a_long_level_as_a_power(tau, words):
    """Below 64 symbols the count is printed whole, from 64 on as k^length."""
    with pytest.raises(CapExceededError) as got:
        minimal_decoupling_constants(MarkovMeasure(WORKED_P), 1, 2, GapSchedule.constant(tau))
    length = tau + 3
    assert str(got.value) == f"audit needs {words} words at length {length}, cap is 10000000"


def test_a_huge_n_max_is_refused_before_any_per_n_work():
    """The longest joint level comes from numpy passes over n, not a loop."""
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as got:
        minimal_decoupling_constants(MarkovMeasure(WORKED_P), 10**7, 1, GapSchedule.zero())
    assert str(got.value) == "audit needs 2^10000001 words at length 10000001, cap is 10000000"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n_max", [5, 40000])
def test_a_short_gap_table_fails_at_its_first_uncovered_n(n_max):
    """The length check evaluates the schedule in chunks, but names the same n
    as tau.value(n) in a loop over n would."""
    gap = table_schedule(GapSchedule, [1, 0, 2])
    with pytest.raises(ScheduleRangeError) as got:
        minimal_decoupling_constants(MarkovMeasure(WORKED_P), n_max, 1, gap)
    assert str(got.value) == "gap table covers n <= 3, asked for n = 4"
    with pytest.raises(ScheduleRangeError) as got:
        minimal_decoupling_constants(IIDMeasure([0.5, 0.5]), n_max, 1, gap)
    assert str(got.value) == "gap table covers n <= 3, asked for n = 4"


_AUDIT_HWM = """
import sys
from pathlib import Path

from gapsub.cli import main


def hwm_kb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])


before = hwm_kb()
rc = main(["decouple", "audit", "--measure", sys.argv[1], "--n-max", "10", "--m-max", "10",
           "--tau", "2", "--outdir", sys.argv[2]])
print(rc, hwm_kb() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_worked_audit_peak_memory(tmp_path):
    """The worked-chain audit at n = m = 10, tau = 2 reads joint level 22,
    4.2M words; streamed, it raises the process's peak resident memory by
    a few MB, where building the level whole took about 175 MB."""
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps({"family": "markov", "P": WORKED_P}))
    src = str(Path(decoupling.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _AUDIT_HWM, str(measure), str(tmp_path / "o")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    rc, rise_kb = int(out[0]), int(out[1])
    assert rc == 0
    assert (tmp_path / "o" / "report.json").exists()
    assert rise_kb < 32 * 1024
