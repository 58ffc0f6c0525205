"""The streamed decoupling audit against whole-level enumeration, bit for bit.

minimal_decoupling_constants extends chunks of first-block words from the
level-n state; the oracle in audit_oracle.py builds every joint level
whole.  Reports are compared as JSON text, so every float must agree
exactly, at the default chunk budget and at budgets that cut the first
blocks into many chunks.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
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
    minimal_decoupling_constants,
)
from gapsub import decoupling

from audit_oracle import old_level, whole_level_audit
from conftest import WORKED_P
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
    # past the 8-wide block of numpy's pairwise sum
    "hmm9": (_hmm(9, 2, 3), 4, 3),
    "markov+iid": (MixtureMeasure([MarkovMeasure(WORKED_P), IIDMeasure([0.4, 0.6])], [0.3, 0.7]), 3, 4),
    "markov+hmm": (MixtureMeasure([MarkovMeasure(WORKED_P), _hmm(3, 2, 4)], [0.5, 0.5]), 4, 3),
    "iid": (IIDMeasure([0.2, 0.3, 0.5]), 3, 3),
}
GAPS = {
    "tau0": GapSchedule.zero(),
    "tau1": GapSchedule.constant(1),
    "tau2": GapSchedule.constant(2),
    "ceil-log": GapSchedule("ceil_log"),
}
# joint words per chunk: the default, one first-block word per chunk, and
# a budget that leaves chunks of several words with a short last chunk
BUDGETS = {"default": decoupling._JOINT_WORDS, "one": 1, "odd": 37}


def _text(report) -> str:
    return json.dumps(report.to_json())


@pytest.mark.parametrize("budget", BUDGETS.values(), ids=BUDGETS.keys())
@pytest.mark.parametrize("gap", GAPS.values(), ids=GAPS.keys())
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_streamed_audit_is_the_whole_level_audit(monkeypatch, case, gap, budget):
    Q, n_max, m_max = case
    monkeypatch.setattr(decoupling, "_JOINT_WORDS", budget)
    got = minimal_decoupling_constants(Q, n_max, m_max, gap, product_shortcut=False)
    assert got.method == "enumeration"
    assert _text(got) == _text(whole_level_audit(Q, n_max, m_max, gap))


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


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_level_states_are_the_old_level_bodies(case):
    Q = case[0]
    for n in range(1, 9):
        assert Q.log_marginals_level(n).tobytes() == old_level(Q, n).tobytes()


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


@pytest.mark.parametrize("tau, words", [(60, "9223372036854775808"), (61, "2^64")])
def test_refusal_names_a_long_level_as_a_power(tau, words):
    """Below 64 symbols the count is printed whole, from 64 on as k^length."""
    with pytest.raises(CapExceededError) as got:
        minimal_decoupling_constants(MarkovMeasure(WORKED_P), 1, 2, GapSchedule.constant(tau))
    length = tau + 3
    assert str(got.value) == f"audit needs {words} words at length {length}, cap is 10000000"


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
