"""The benchmark's traced run wraps program functions by name; they must exist.

bench/tracing.py is loaded by path, unchanged, and its hook tables are
checked against the package, so a rename under src/ fails here instead
of silently dropping a layer from the traced run.  Every operation of
bench/workloads.py must also rerun byte for byte from its manifest.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from gapsub import cli, measures

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve():
    tracing = _load_tracing()
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing


def test_traced_methods_exist_on_a_measure_class():
    tracing = _load_tracing()
    classes = [
        c for c in vars(measures).values()
        if isinstance(c, type) and issubclass(c, measures.ShiftMeasure)
    ]
    for name, _, _ in tracing.METHODS:
        assert any(name in vars(c) for c in classes), name


def test_every_benchmark_operation_reruns_byte_for_byte(tmp_path, monkeypatch):
    """Each operation of every workload at seed 11, run through cli.run in
    this interpreter, writes the same bytes again under `gapsub rerun`."""
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports its neighbours
    workloads = importlib.import_module("workloads")
    for workload, operations in workloads.WORKLOADS.items():
        for op in operations(11):
            first, again = tmp_path / workload / op.name, tmp_path / workload / f"{op.name}.rerun"
            manifest = cli.run(cli.RunConfig(op.subcommand, op.params), first)
            argv = ["rerun", "--manifest", str(first / "manifest.json"), "--outdir", str(again)]
            assert cli.main(argv) == 0, op.name
            names = sorted([*manifest["outputs"], "manifest.json"])
            assert sorted(p.name for p in again.iterdir()) == names, op.name
            for name in names:
                assert (again / name).read_bytes() == (first / name).read_bytes(), (op.name, name)
