"""Tests of the benchmark's own code.

    python3 -m pytest bench -q

The reference values are checked against hand-derived closed forms, every
checker is shown to pass real program output and to flag a corrupted
copy of it, and the normaliser and the span arithmetic are checked on
synthetic timings.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gapsub.cli as cli  # noqa: E402
from gapsub import MarkovMeasure, sample_trajectory  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import timing  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import WORKED_P, WORKLOADS, Operation  # noqa: E402

WORKED_H = 0.3835227901070281  # -(2/3)(.9 ln .9 + .1 ln .1) - (1/3)(.2 ln .2 + .8 ln .8)
UNIFORM_P = [[0.5, 0.5], [0.5, 0.5]]


def test_worked_chain_closed_forms():
    assert np.allclose(ref.stationary(WORKED_P), [2 / 3, 1 / 3], atol=1e-15)
    assert ref.entropy_rate(WORKED_P) == pytest.approx(WORKED_H, abs=1e-15)
    kl = ref.cross_rate(WORKED_P, UNIFORM_P) - ref.entropy_rate(WORKED_P)
    assert kl == pytest.approx(math.log(2) - WORKED_H, abs=1e-15)


def test_kernel_bound_is_zero_for_identical_rows():
    assert ref.kernel_bound([[0.3, 0.7], [0.3, 0.7]], 2) == pytest.approx(0.0, abs=1e-15)


def test_hmm_sandwich_contains_the_chain_it_encodes():
    # a chain is the HMM with identity emissions; its H(X_1..X_N) is exact
    N = 50
    exact = (ref.entropy(ref.stationary(WORKED_P)) + (N - 1) * WORKED_H) / N
    lo, hi = ref.hmm_entropy_bounds(WORKED_P, np.eye(2), N, 6)
    assert lo - 1e-12 <= exact <= hi + 1e-12
    assert hi - lo < 1e-12


def test_regenerated_path_matches_the_program():
    P = [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]]
    drawn = sample_trajectory(MarkovMeasure(P), 5000, 17, stream=3).symbols.tolist()
    assert ref.markov_path(P, 17, 3, 5000) == drawn


def _small(op: Operation) -> Operation:
    """The same operation at a size that runs in well under a second."""
    shrink = {"N": 3000, "n": 3000, "K": 5, "n_max": 5, "m_max": 5, "trials": 4}
    params = dict(op.params)
    for key, value in shrink.items():
        if key in params:
            params[key] = min(params[key], value)
    if op.subcommand == "decouple.check":
        params["N"] = min(params["N"], 150)
    return dataclasses.replace(op, params=params)


def _edit_json(name: str, edit):
    def corrupt(out: Path) -> None:
        obj = json.loads((out / name).read_text())
        edit(obj)
        (out / name).write_text(json.dumps(obj))
    return corrupt


def _set(name: str, path: tuple, value):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return _edit_json(name, edit)


def _swap_first_tiles(obj):
    obj["intervals"][0]["lo"] += 1


def _flip_symbols(out: Path) -> None:
    x = (out / "trajectory.txt").read_text().split()
    (out / "trajectory.txt").write_text(" ".join(["0"] * len(x)) + "\n")


def _shift_series(out: Path) -> None:
    rows = (out / "series.csv").read_text().splitlines()
    n, v = rows[-1].split(",")
    rows[-1] = f"{n},{float(v) + 1e-9!r}"
    (out / "series.csv").write_text("\n".join(rows) + "\n")


CORRUPTIONS = {
    "estimate.relent": _set("summary.json", ("rate",), 1.5),
    "estimate.cross": _set("summary.json", ("rate",), -0.1),
    "estimate.mean": _set("summary.json", ("terminal_mean",), -5.0),
    "sample": _flip_symbols,
    "decouple.check": _set("check.json", ("violation_count",), 1),
    "decouple.audit": _edit_json("report.json", lambda r: r["constants"].__setitem__(0, 9.0)),
    "steele.run": _edit_json("decomposition.json", _swap_first_tiles),
    "fekete.check": _set("check.json", ("ok",), False),
    "fekete.limit": _shift_series,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checkers_pass_program_output_and_flag_corruption(workload, tmp_path):
    for op in WORKLOADS[workload](5):
        op = _small(op)
        out = tmp_path / op.name
        cli.run(cli.RunConfig(op.subcommand, op.params), out)
        check = checks.checker(op, 5)
        assert check(out) == [], op.name
        CORRUPTIONS[op.subcommand](out)
        assert check(out), f"{op.name}: corrupted output passed"


def test_checker_flags_missing_outputs(tmp_path):
    op = _small(WORKLOADS["certify-wide"](1)[-2])
    cli.run(cli.RunConfig(op.subcommand, op.params), tmp_path)
    (tmp_path / "check.json").unlink()
    assert checks.checker(op, 1)(tmp_path)


def test_normaliser_scales_by_reference_speed():
    r0 = timing.R0_S
    assert timing.normalised(2.0, r0, r0, 0.75) == pytest.approx(2.0)
    # a machine twice as slow doubles both the operation and the kernel
    assert timing.normalised(4.0, 2 * r0, 2 * r0, 1.0) == pytest.approx(2.0)
    # an operation that slows by the square root of the kernel's factor
    assert timing.normalised(2.0 * math.sqrt(2.0), 2 * r0, 2 * r0, 0.5) == pytest.approx(2.0)
    # a speed change during the operation: the mean of the brackets
    assert timing.normalised(3.0, r0, 2 * r0, 1.0) == pytest.approx(2.0)


def test_layer_totals_subtract_child_coverage():
    spans = [
        ["cli.write", 0.0, 10.0, -1, 0],
        ["sampling.draw", 1.0, 4.0, 0, 100],
        ["measures.build", 2.0, 3.0, 1, 0],
        ["sampling.draw", 5.0, 6.0, 0, 7],
    ]
    totals = layer_totals(spans)
    assert totals["cli.write"] == [6.0, 0]
    assert totals["sampling.draw"] == [3.0, 107]
    assert totals["measures.build"] == [1.0, 0]
    assert sum(t for t, _ in totals.values()) == pytest.approx(10.0)


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    original = cli.run
    op = _small(WORKLOADS["certify-wide"](1)[1])
    tracer = Tracer()
    tracer.install()
    try:
        cli.run(cli.RunConfig(op.subcommand, op.params), tmp_path)
    finally:
        tracer.uninstall()
    assert cli.run is original
    totals = layer_totals(tracer.take())
    assert totals["sampling.draw"][1] == op.params["N"]
    N = op.params["N"]
    assert totals["decoupling.check"][1] == N * (N - 1) // 2
    assert totals["cli.write"][0] > 0
