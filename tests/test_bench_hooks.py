"""The benchmark's traced run wraps program functions by name; they must exist.

bench/tracing.py is loaded by path, unchanged, and its hook tables are
checked against the package, so a rename under src/ fails here instead
of silently dropping a layer from the traced run.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from gapsub import measures

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
