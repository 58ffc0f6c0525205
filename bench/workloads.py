"""Seeded workload definitions.

A workload is a fixed list of operations.  Each operation is one
`gapsub.cli.run(RunConfig(subcommand, params), outdir)` call; the params
hold only generated specs and program seeds, all derived from the
benchmark seed, so the program never sees the seed itself.  Every pass of
a run repeats the same operations with the same params.
"""
from __future__ import annotations

import dataclasses

import numpy as np

import reference as ref

# worked chain of the package docs: pi = (2/3, 1/3), h = 0.3835227901 nats
WORKED_P = [[0.9, 0.1], [0.2, 0.8]]

# fekete sequence F(n) = 3 n + 2 sqrt(n) with sigma_n = ceil(log2(1 + n)):
# F(sigma_n) <= F(13) = 46.2 for n <= 5000, so rho = 50 makes it gapped
# subadditive on the whole checked range
AFFINE_SQRT = {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}}
CEIL_LOG = {"rule": "ceil_log"}
RHO_50 = {"rule": "constant", "params": {"value": 50.0}}


@dataclasses.dataclass(frozen=True)
class Operation:
    """One CLI run: a name unique within the workload, and its config.

    speed_exponent says how the operation's time follows the reference
    kernel (timing.normalised): when the kernel slows by a factor f, the
    operation slows by f ** speed_exponent.  Operations that spend their
    time in Python loops over small numpy calls follow the kernel (1.0).
    The two audits and `fekete limit` spend theirs in numpy passes over
    arrays of millions of entries and measure 0.34 to 0.68 on the
    reference machine (calibrate.py, README.md), so they use 0.6.
    """

    name: str
    subcommand: str
    params: dict
    speed_exponent: float = 1.0


def _stochastic(rng: np.random.Generator, rows: int, cols: int, floor: float) -> list:
    """Random row-stochastic matrix with every entry at least floor / cols."""
    mix = rng.dirichlet(np.ones(cols), size=rows)
    mat = (1.0 - floor) * mix + floor / cols
    mat /= mat.sum(axis=1, keepdims=True)
    return mat.tolist()


def _markov(rng, k: int, floor: float = 0.3) -> dict:
    return {"family": "markov", "P": _stochastic(rng, k, k, floor)}


def _hmm(rng, hidden: int, k: int) -> dict:
    return {
        "family": "hmm",
        "A": _stochastic(rng, hidden, hidden, 0.3),
        "E": _stochastic(rng, hidden, k, 0.3),
    }


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def chain_estimate(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 1])
    p2, q2, p3, q3 = _markov(rng, 2), _markov(rng, 2), _markov(rng, 3), _markov(rng, 3)
    s = _seeds(rng, 4)
    return [
        Operation("relent-k2", "estimate.relent",
                  {"p": p2, "q": q2, "N": 100_000, "seed": s[0], "grid": "geometric"}),
        Operation("cross-k3", "estimate.cross",
                  {"p": p3, "q": q3, "N": 100_000, "seed": s[1], "grid": "geometric"}),
        Operation("sample-k3", "sample", {"measure": p3, "N": 100_000, "seed": s[2], "stream": 0}),
        Operation("mean-k2", "estimate.mean",
                  {"p": p2, "q": p2, "N": 10_000, "trials": 20, "seed": s[3], "grid": "geometric"}),
    ]


def hmm_forward(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 2])
    h2, h3, c3 = _hmm(rng, 2, 3), _hmm(rng, 3, 3), _markov(rng, 3)
    s = _seeds(rng, 4)
    return [
        Operation("cross-hmm2", "estimate.cross",
                  {"p": h2, "q": h2, "N": 20_000, "seed": s[0], "grid": "geometric",
                   "assume_decoupled": True}),
        Operation("relent-hmm3-vs-chain", "estimate.relent",
                  {"p": h3, "q": c3, "N": 10_000, "seed": s[1], "grid": "geometric"}),
        Operation("mean-hmm2", "estimate.mean",
                  {"p": h2, "q": h2, "N": 1_000, "trials": 10, "seed": s[2], "grid": "geometric",
                   "assume_decoupled": True}),
        # the program has no closed-form constant for an HMM, so the check
        # runs with the hidden-kernel bound
        Operation("check-hmm2", "decouple.check",
                  {"measure": h2, "N": 200, "seed": s[3], "stream": 0, "tau": 0,
                   "rho_const": max(ref.kernel_bound(h2["A"], 0), 0.0), "tol": 1e-10}),
    ]


def certify_wide(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 3])
    wide = _markov(rng, 32, floor=0.5)
    hmm = _hmm(rng, 3, 2)
    s = _seeds(rng, 2)
    return [
        Operation("steele-k32", "steele.run",
                  {"measure": wide, "n": 50_000, "r": 50, "K": 20, "eps": 0.05, "seed": s[0],
                   "stream": 0, "tau": 0, "rho_const": None, "limit": None}),
        Operation("check-k32", "decouple.check",
                  {"measure": wide, "N": 3_000, "seed": s[1], "stream": 0, "tau": 0,
                   "rho_const": None, "tol": 1e-10}),
        Operation("audit-worked", "decouple.audit",
                  {"measure": {"family": "markov", "P": WORKED_P},
                   "n_max": 10, "m_max": 10, "tau": 2, "cap": 10**7}, speed_exponent=0.6),
        Operation("audit-hmm3", "decouple.audit",
                  {"measure": hmm, "n_max": 8, "m_max": 8, "tau": 2, "cap": 10**7},
                  speed_exponent=0.6),
        Operation("fekete-check", "fekete.check",
                  {"sequence": AFFINE_SQRT, "sigma": CEIL_LOG, "rho": RHO_50, "N": 5_000}),
        Operation("fekete-limit", "fekete.limit",
                  {"sequence": AFFINE_SQRT, "sigma": CEIL_LOG, "rho": RHO_50, "N": 1_000_000},
                  speed_exponent=0.6),
    ]


WORKLOADS = {
    "chain-estimate": chain_estimate,
    "hmm-forward": hmm_forward,
    "certify-wide": certify_wide,
}
