"""The tools that compare two checkouts: tools/artifact_digests.py, on which
every same-bytes comparison rests, runs and prints one digest per file an
operation writes; tools/op_times.py prints the CPU each timing ran on;
tools/op_peaks.py measures an operation's memory in its own interpreter."""
from __future__ import annotations

import os
import re
import runpy
import sys
import tracemalloc
import types
from pathlib import Path

from gapsub import cli

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(11/[\w-]+/[\w-]+)/([\w.]+) [0-9a-f]{64}")


def test_artifact_digests_prints_one_line_per_written_file(monkeypatch, capsys):
    """At seed 11 the tool prints 39 lines, and each operation's files are its
    manifest's outputs plus manifest.json; nothing is written under bench/."""
    bench = sorted((ROOT / "bench").rglob("*"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    tool = runpy.run_path(str(ROOT / "tools" / "artifact_digests.py"))
    manifests, run = [], cli.run

    def recorded(config, out):
        manifests.append(run(config, out))
        return manifests[-1]

    monkeypatch.setattr(cli, "run", recorded)
    tool["main"]([11])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 39
    files: dict[str, list[str]] = {}
    for line in lines:
        operation, name = LINE.fullmatch(line).groups()
        files.setdefault(operation, []).append(name)
    assert len(files) == len(manifests)
    for names, manifest in zip(files.values(), manifests):
        assert names == sorted([*manifest["outputs"], "manifest.json"])
    assert sorted((ROOT / "bench").rglob("*")) == bench


def _one_tiny_operation(monkeypatch) -> None:
    """Put one tiny sample operation in place of the workloads, and keep the
    sys.path and bytecode setting that a tool changes."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    op = types.SimpleNamespace(
        name="tiny", subcommand="sample",
        params={"measure": {"family": "iid", "p": [0.5, 0.5]}, "N": 10, "seed": 1, "stream": 0},
    )
    monkeypatch.setitem(sys.modules, "workloads",
                        types.SimpleNamespace(WORKLOADS={"tiny-load": lambda seed: [op]}))


def test_op_times_prints_the_cpu_it_pinned_to(monkeypatch, capsys):
    """One tiny operation in place of the workloads: its line carries the
    times, the faults and the CPU that pin_to_current_cpu returned, one that
    the process may run on.  The test restores the process's CPU set."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):  # the tool sets both to 1
        monkeypatch.setenv(name, "1")
    _one_tiny_operation(monkeypatch)
    tool = runpy.run_path(str(ROOT / "tools" / "op_times.py"))
    allowed = os.sched_getaffinity(0)
    try:
        tool["main"]([5], 2)
        pinned = os.sched_getaffinity(0)
    finally:
        os.sched_setaffinity(0, allowed)
    (line,) = capsys.readouterr().out.splitlines()
    match = re.fullmatch(
        r"5/tiny-load/tiny best_ms=\d+\.\d\d median_ms=\d+\.\d\d minflt=\d+ cpu=(\d+)", line
    )
    assert match and pinned == {int(match.group(1))} and pinned <= allowed


def test_op_peaks_measures_one_operation(monkeypatch):
    """measure, which the tool runs in a fresh interpreter per operation, run
    here on one tiny operation: the high-water mark cannot fall, and traced
    it sees the operation allocate.  The tool starts tracemalloc and leaves
    its one-shot interpreter to end it; the test stops it."""
    _one_tiny_operation(monkeypatch)
    tool = runpy.run_path(str(ROOT / "tools" / "op_peaks.py"))
    assert not tracemalloc.is_tracing()
    untraced = tool["measure"](5, "tiny-load", 0, traced=False)
    assert untraced["rise"] >= 0 and untraced["hwm"] >= untraced["rise"]
    try:
        assert tool["measure"](5, "tiny-load", 0, traced=True)["traced"] > 0
    finally:
        tracemalloc.stop()
