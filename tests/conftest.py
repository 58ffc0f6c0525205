"""Shared fixtures: the worked 2-state chain and friends.

The worked chain [[0.9, 0.1], [0.2, 0.8]] has stationary law (2/3, 1/3)
and entropy rate

    h = -(2/3)(0.9 ln 0.9 + 0.1 ln 0.1) - (1/3)(0.2 ln 0.2 + 0.8 ln 0.8)
      = 0.3835227901070281 nats,

both derived by hand from the closed forms; tests freeze these numbers.
"""
from __future__ import annotations

import numpy as np
import pytest

from gapsub import (
    ConfigError,
    ConvergenceSeries,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MixtureMeasure,
    ShiftMeasure,
)

WORKED_P = [[0.9, 0.1], [0.2, 0.8]]
UNIFORM_P = [[0.5, 0.5], [0.5, 0.5]]

# verdict lines recorded by the acceptance tests; replayed after the run
# because default capture swallows mid-test prints from passing tests
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

def table_schedule(cls, values):
    """The table of kind cls (GapSchedule, ErrorSchedule or RealSequence) over values."""
    return cls("table", {"values": [cls._kind(v) for v in values]})


def random_rows(rng, rows: int, cols: int, zeros: bool) -> list:
    """Random row-stochastic rows; with zeros, some entries (never a whole row) vanish."""
    M = rng.dirichlet(np.ones(cols), size=rows)
    if zeros:
        M[rng.random((rows, cols)) < 0.3] = 0.0
        M[np.arange(rows), rng.integers(cols, size=rows)] += 0.5
        M /= M.sum(axis=1, keepdims=True)
    return M.tolist()


def random_measure(rng, family: str, h: int, k: int, zeros: bool) -> ShiftMeasure:
    """A random measure of family "iid", "markov" or "hmm" (h hidden states) on k symbols."""
    if family == "iid":
        return IIDMeasure(random_rows(rng, 1, k, zeros)[0])
    if family == "markov":
        return MarkovMeasure(random_rows(rng, k, k, zeros))
    return HiddenMarkovMeasure(random_rows(rng, h, h, zeros), random_rows(rng, h, k, zeros))


def read_series(path) -> ConvergenceSeries:
    """The series of a series.csv artifact, read back exactly."""
    ns: list[int] = []
    vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "n,value":
            raise ConfigError(f"unexpected series header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b = line.split(",")
            ns.append(int(a))
            vals.append(float(b))
    return ConvergenceSeries(ns, vals)


# hand-derived closed-form values for the worked chain
WORKED_PI = (2.0 / 3.0, 1.0 / 3.0)
WORKED_H = 0.3835227901070281          # entropy rate
WORKED_H_PI = 0.6365141682948128       # entropy of the stationary law
WORKED_KL_VS_UNIFORM = 0.30962439045291723  # = ln 2 - h


@pytest.fixture(scope="session")
def worked_chain() -> MarkovMeasure:
    return MarkovMeasure(WORKED_P)


@pytest.fixture(scope="session")
def uniform_chain() -> MarkovMeasure:
    return MarkovMeasure(UNIFORM_P)


@pytest.fixture(scope="session")
def iid_biased() -> IIDMeasure:
    return IIDMeasure([0.75, 0.25])


@pytest.fixture(scope="session")
def half_half_mixture() -> MixtureMeasure:
    """Two-component mixture whose paths never mix: iid(0.9) or iid(0.1)."""
    return MixtureMeasure(
        [IIDMeasure([0.9, 0.1]), IIDMeasure([0.1, 0.9])], [0.5, 0.5]
    )


def entropy_of(p) -> float:
    """Plain-python Shannon entropy in nats, the test-side oracle."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())
