"""estimate mean with its trials as rows, against the per-trial oracle, bit for bit.

mean_convergence_series evaluates the trial paths as the rows of one
kingman_rows call per group of at most estimators._TABLE_ENTRIES symbols.
mean_oracle evaluates each trial alone, as the estimator did before.  The
rows, and the text of every file `estimate mean` writes, must match for
every family, for a Q under which trials reach -inf at different n, for a
grid that stops short of N, and for groups of 1 row and of a size that
does not divide the trial count.
"""
from __future__ import annotations

import numpy as np
import pytest

from gapsub import (
    IIDMeasure,
    ValidationError,
    geometric_grid,
    measure_from_spec,
    sample_trajectory,
)
from gapsub import cli, estimators
from gapsub.sampling import kingman_rows

import mean_oracle


def _stochastic(rng, rows: int, cols: int) -> list:
    """A random row-stochastic matrix with a zero at [0, 0] when cols > 1."""
    mat = rng.dirichlet(np.ones(cols), size=rows)
    if cols > 1:
        mat[0, 0] = 0.0
        mat /= mat.sum(axis=1, keepdims=True)
    return mat.tolist()


def _hmm(hidden: int) -> dict:
    rng = np.random.default_rng([hidden, 13])
    return {"family": "hmm", "A": _stochastic(rng, hidden, hidden), "E": _stochastic(rng, hidden, 3)}


CHAIN = {"family": "markov", "P": [[0.6, 0.4, 0.0], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]}
# forbids every step out of 0, and its start law is (1, 0, 0): a trial of
# CHAIN_FROM_0 that starts in 1 or 2 is -inf at n = 1, one that starts in 0
# from the step that leaves 0
CHAIN_FROM_0 = {**CHAIN, "start": [0.8, 0.1, 0.1]}
FORBIDDING = {"family": "markov", "P": [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]}
MIXTURE = {"family": "mixture", "weights": [0.4, 0.6], "components": [CHAIN, _hmm(3)]}

# name: (p, q, N, trials, grid); grid None is the CLI's geometric grid
CASES = {
    "iid": ({"family": "iid", "p": [0.2, 0.3, 0.5]}, None, 300, 7, None),
    "markov": (CHAIN, None, 300, 7, None),
    "markov-non-invariant": ({**CHAIN, "start": [0.0, 0.2, 0.8]}, CHAIN, 300, 7, None),
    **{f"hmm{h}": (_hmm(h), None, 200, 7, None) for h in (1, 2, 3, 9, 16)},
    "markov+hmm": (MIXTURE, None, 200, 7, None),
    "q-forbids-a-step": (CHAIN_FROM_0, FORBIDDING, 60, 11, None),
    "grid-short-of-N": (_hmm(2), MIXTURE, 250, 7, [1, 2, 3, 10, 47, 120]),
}
# rows per group: the default budget, 1 row, and 3 rows (no case has 3 | trials)
GROUPS = {"default": None, "one-row": 1, "three-rows": 3}


def _run(tmp_path, name: str, monkeypatch, mean) -> dict:
    """The text of every file `estimate mean` writes for the case, with mean as the estimator."""
    p, q, N, trials, grid = CASES[name]
    if grid is not None:
        monkeypatch.setattr(cli, "_grid_from_spec", lambda spec, n: np.asarray(grid))
    monkeypatch.setattr(cli, "mean_convergence_series", mean)
    out = tmp_path / mean.__module__
    params = {"p": p, "q": q or p, "N": N, "trials": trials, "seed": 5,
              "grid": "geometric", "assume_decoupled": True}
    cli.run(cli.RunConfig("estimate.mean", params), out)
    return {f.name: f.read_text() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("group", list(GROUPS))
@pytest.mark.parametrize("name", list(CASES))
def test_mean_files_are_the_per_trial_oracles(tmp_path, monkeypatch, name, group):
    _, _, _, trials, grid = CASES[name]
    if GROUPS[group] is not None:
        horizon = CASES[name][2] if grid is None else grid[-1]
        monkeypatch.setattr(estimators, "_TABLE_ENTRIES", GROUPS[group] * horizon)
        assert trials % GROUPS[group] or GROUPS[group] == 1
    got = _run(tmp_path, name, monkeypatch, estimators.mean_convergence_series)
    want = _run(tmp_path, name, monkeypatch, mean_oracle.mean_convergence_series)
    assert set(got) == {"manifest.json", "series.csv", "summary.json", "terminals.csv"}
    assert got == want


@pytest.mark.parametrize("name", list(CASES))
def test_rows_are_each_trial_alone(name):
    p, q, N, trials, grid = CASES[name]
    P, Q = measure_from_spec(p), measure_from_spec(q or p)
    grid = geometric_grid(N) if grid is None else np.asarray(grid)
    want = mean_oracle.trial_rows(P, Q, N, trials, 5, grid)
    paths = np.stack([sample_trajectory(P, N, 5, t).symbols[: grid[-1]] for t in range(trials)])
    got = kingman_rows(paths, Q, grid)
    assert got.tobytes() == want.tobytes()
    if name == "q-forbids-a-step":
        finite = np.isfinite(want).sum(axis=1)
        assert 0 in finite and np.unique(finite).size >= 4


@pytest.mark.parametrize("name", ["iid", "markov-non-invariant", "hmm9", "markov+hmm"])
def test_prefixes_of_rows_are_the_prefixes_of_each_path(name):
    p, q, N, trials, _ = CASES[name]
    Q = measure_from_spec(q or p)
    paths = np.stack([sample_trajectory(measure_from_spec(p), 40, 5, t).symbols
                      for t in range(trials)])
    for evaluate in (Q.prefix_logprobs, Q.log_increments):
        got = evaluate(paths)
        assert got.shape == paths.shape
        assert got.tobytes() == np.stack([evaluate(x) for x in paths]).tobytes()


def test_rows_are_range_checked_like_a_word():
    Q = IIDMeasure([0.5, 0.5])
    with pytest.raises(ValidationError, match=r"symbols must lie in \[0, 2\)"):
        Q.log_increments(np.asarray([[0, 1], [1, 2]]))
    with pytest.raises(ValidationError, match="nonempty 2-d"):
        Q.prefix_logprobs(np.zeros((3, 0), dtype=np.int64))
    with pytest.raises(ValidationError, match="nonempty 1-d"):
        Q.prefix_logprobs(np.zeros((2, 2, 2), dtype=np.int64))
