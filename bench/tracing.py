"""Spans around the program's layers, recorded from the benchmark's side.

While a Tracer is installed, the public functions of each module are
replaced, where their callers import them, by wrappers that record a span
(layer, start, end, parent) and a work count.  Nothing under src/ changes,
and uninstalling restores the originals.  Spans stay in memory until the
benchmark aggregates them.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _size(args, kwargs, result) -> int:
    return len(result)


def _horizon(args, kwargs, result) -> int:
    return int(result.ns[-1])


def _tiles(args, kwargs, result) -> int:
    return len(result.intervals)


def _pairs(args, kwargs, result) -> int:
    """Pairs (n, m) with n + sigma_n + m <= N that the check compared."""
    x, sigma = args[0], args[3]
    N = kwargs.get("N") or len(x)
    ns = np.arange(1, N + 1, dtype=np.int64)
    return int(np.maximum(N - ns - sigma.values(ns), 0).sum())


# (module, attribute, layer, work counter): wrapped where the callers import them
FUNCTIONS = [
    ("gapsub.cli", "run", "cli.write", None),
    ("gapsub.cli", "sample_trajectory", "sampling.draw", _size),
    ("gapsub.estimators", "sample_trajectory", "sampling.draw", _size),
    ("gapsub.estimators", "kingman_series", "sampling.eval", _horizon),
    ("gapsub.decoupling", "log_prefixes", "sampling.eval", _size),
    ("gapsub.cli", "cross_entropy_estimate", "estimators.self", None),
    ("gapsub.cli", "relative_entropy_estimate", "estimators.self", None),
    ("gapsub.cli", "mean_convergence_series", "estimators.self", None),
    ("gapsub.cli", "measure_from_spec", "measures.build", None),
    ("gapsub.cli", "minimal_decoupling_constants", "decoupling.audit", None),
    ("gapsub.cli", "check_trajectory_subadditivity", "decoupling.check", _pairs),
    ("gapsub.cli", "trajectory_context", "steele.decompose", None),
    ("gapsub.cli", "steele_decompose", "steele.decompose", _tiles),
    ("gapsub.cli", "verify_cover_bounds", "steele.verify", None),
    ("gapsub.cli", "verify_ub_rep", "steele.verify", None),
    ("gapsub.cli", "verify_depths", "steele.verify", None),
    ("gapsub.cli", "birkhoff_bad_average", "steele.verify", None),
    ("gapsub.cli", "check_gapped_subadditivity", "fekete.check", None),
    ("gapsub.cli", "fekete_limit_estimate", "fekete.check", None),
]

# methods wrapped on every measure class that defines them
METHODS = [("log_marginals_level", "measures.levels", _size)]

LAYERS = sorted({layer for *_, layer, _ in FUNCTIONS} | {layer for _, layer, _ in METHODS})


class Tracer:
    """Records spans while installed; `take` hands over and clears them."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, count]
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, layer: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, self._open[-1] if self._open else -1, 0])
            self._open.append(i)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[i][1:3] = start, end
            if counter is not None:
                self.spans[i][4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from gapsub import measures

        for module, name, layer, counter in FUNCTIONS:
            mod = importlib.import_module(module)
            self._saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, self._wrap(getattr(mod, name), layer, counter))
        classes = [c for c in vars(measures).values()
                   if isinstance(c, type) and issubclass(c, measures.ShiftMeasure)]
        for cls in classes:
            for name, layer, counter in METHODS:
                if name in vars(cls):
                    self._saved.append((cls, name, vars(cls)[name]))
                    setattr(cls, name, self._wrap(vars(cls)[name], layer, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans: list[list]) -> dict[str, list]:
    """{layer: [self seconds, work count]} over one batch of closed spans.

    A span's self time is its duration minus the time its child spans
    cover; children of one parent run one after another, so that is the
    sum of their durations.
    """
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {layer: [0.0, 0] for layer in LAYERS}
    for (layer, start, end, _, count), covered in zip(spans, child):
        out[layer][0] += end - start - covered
        out[layer][1] += count
    return out
