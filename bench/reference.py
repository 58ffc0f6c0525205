"""Reference values computed apart from the program.

Nothing here imports gapsub.  Stationary laws come from a linear solve
(the program uses an SVD nullspace), word entropies of hidden Markov
measures from enumeration in probability space (the program works in log
space), and standard errors from the benchmark's own Monte Carlo paths.
"""
from __future__ import annotations

import bisect
import math

import numpy as np


def stationary(P) -> np.ndarray:
    """Invariant law of an irreducible row-stochastic matrix."""
    P = np.asarray(P, dtype=np.float64)
    k = P.shape[0]
    A = P.T - np.eye(k)
    A[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)


def entropy(p) -> float:
    p = np.asarray(p, dtype=np.float64).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def entropy_rate(P) -> float:
    """h = -sum_i pi_i sum_j P_ij log P_ij."""
    P = np.asarray(P, dtype=np.float64)
    pi = stationary(P)
    return float(sum(pi[i] * entropy(P[i]) for i in range(P.shape[0])))


def cross_rate(P, Q) -> float:
    """-sum_ij pi_P(i) P_ij log Q_ij for entrywise positive Q."""
    P = np.asarray(P, dtype=np.float64)
    pi = stationary(P)
    return float(-(pi[:, None] * P * np.log(np.asarray(Q, dtype=np.float64))).sum())


def markov_expected_neglog(P, Q, N: int) -> float:
    """E[-(1/N) log Q_N(X_1..X_N)] for X a stationary P-chain, Q stationary."""
    pi_p, pi_q = stationary(P), stationary(Q)
    start = float(-(pi_p * np.log(pi_q)).sum())
    return (start + (N - 1) * cross_rate(P, Q)) / N


def kernel_bound(P, tau: int) -> float:
    """max_ij log P^{tau+1}(i, j) - log pi(j): the closed-form decoupling constant.

    For a hidden Markov measure pass the hidden kernel A; the same bound
    holds for the observed process.
    """
    P = np.asarray(P, dtype=np.float64)
    kern = np.linalg.matrix_power(P, tau + 1)
    return float(np.max(np.log(kern) - np.log(stationary(P))[None, :]))


# ---------------------------------------------------------------------------
# hidden Markov measures by enumeration


def word_entropies(A, E, start, n: int) -> list[float]:
    """[H(Y_1), H(Y_1 Y_2), ..., H(Y_1..Y_n)] for hidden start law `start`."""
    A = np.asarray(A, dtype=np.float64)
    E = np.asarray(E, dtype=np.float64)
    alpha = np.asarray(start, dtype=np.float64)[None, :] * E.T  # (words, hidden)
    out = [entropy(alpha.sum(axis=1))]
    for _ in range(n - 1):
        moved = alpha @ A
        alpha = (moved[:, None, :] * E.T[None, :, :]).reshape(-1, A.shape[0])
        out.append(entropy(alpha.sum(axis=1)))
    return out


def hmm_entropy_bounds(A, E, N: int, n0: int) -> tuple[float, float]:
    """Bounds on H(Y_1..Y_N) / N for the stationary hidden Markov measure.

    The sandwich H(Y_n | Y^{n-1}, X_1) <= h <= H(Y_n | Y^{n-1}) holds at
    every n (Cover and Thomas, Thm 4.5.1), and H(Y_n | Y^{n-1}) decreases
    to h.  So every conditional term with n >= n0 lies between the two
    sides at n0, and the first n0 - 1 terms are summed exactly.
    """
    pi = stationary(A)
    plain = word_entropies(A, E, pi, n0)
    upper = plain[-1] - plain[-2]
    lower = 0.0
    for s in range(len(pi)):
        cond = word_entropies(A, E, np.eye(len(pi))[s], n0)
        lower += pi[s] * (cond[-1] - cond[-2])
    head = plain[-2]
    return (head + (N - n0 + 1) * lower) / N, (head + (N - n0 + 1) * upper) / N


def hmm_pair_marginal(A, E) -> np.ndarray:
    """p(a, b) = P(Y_1 = a, Y_2 = b) under the stationary hidden chain."""
    A = np.asarray(A, dtype=np.float64)
    E = np.asarray(E, dtype=np.float64)
    pi = stationary(A)
    return E.T @ (pi[:, None] * A) @ E


def hmm_expected_neglog_chain(A, E, C, N: int) -> float:
    """E[-(1/N) log C_N(Y_1..Y_N)] for Y the HMM and C a stationary chain."""
    pair = hmm_pair_marginal(A, E)
    C = np.asarray(C, dtype=np.float64)
    first = pair.sum(axis=1)
    start = float(-(first * np.log(stationary(C))).sum())
    return (start + (N - 1) * float(-(pair * np.log(C)).sum())) / N


# ---------------------------------------------------------------------------
# Monte Carlo standard errors


def simulate_paths(A, E, paths: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Observed paths (paths, length) of the stationary HMM (A, E).

    A Markov chain P is the HMM with A = P and E = identity.
    """
    A = np.asarray(A, dtype=np.float64)
    E = np.asarray(E, dtype=np.float64)
    cum_a = np.cumsum(A, axis=1)
    cum_e = np.cumsum(E, axis=1)
    h, k = E.shape
    z = np.minimum((np.cumsum(stationary(A))[None, :] <= rng.random(paths)[:, None]).sum(1), h - 1)
    out = np.empty((paths, length), dtype=np.int64)
    for t in range(length):
        if t:
            z = np.minimum((cum_a[z] <= rng.random(paths)[:, None]).sum(1), h - 1)
        out[:, t] = np.minimum((cum_e[z] <= rng.random(paths)[:, None]).sum(1), k - 1)
    return out


def markov_loglik(P, ys: np.ndarray) -> np.ndarray:
    """log P_n(y) per path for the stationary chain P."""
    P = np.asarray(P, dtype=np.float64)
    return np.log(stationary(P))[ys[:, 0]] + np.log(P)[ys[:, :-1], ys[:, 1:]].sum(axis=1)


def hmm_loglik(A, E, ys: np.ndarray) -> np.ndarray:
    """log Q_n(y) per path by the scaled forward recursion."""
    A = np.asarray(A, dtype=np.float64)
    E = np.asarray(E, dtype=np.float64)
    alpha = stationary(A)[None, :] * E[:, ys[:, 0]].T
    total = np.zeros(ys.shape[0])
    for t in range(ys.shape[1]):
        if t:
            alpha = (alpha @ A) * E[:, ys[:, t]].T
        c = alpha.sum(axis=1)
        total += np.log(c)
        alpha /= c[:, None]
    return total


def loglik(spec: dict, ys: np.ndarray) -> np.ndarray:
    if spec["family"] == "markov":
        return markov_loglik(spec["P"], ys)
    return hmm_loglik(spec["A"], spec["E"], ys)


def paths_of(spec: dict, paths: int, length: int, rng) -> np.ndarray:
    if spec["family"] == "markov":
        return simulate_paths(spec["P"], np.eye(len(spec["P"])), paths, length, rng)
    return simulate_paths(spec["A"], spec["E"], paths, length, rng)


def monte_carlo_se(p: dict, q: dict, N: int, relative: bool, rng,
                   paths: int = 64, length: int = 2000) -> float:
    """Standard error at horizon N of the one-path estimate along x ~ p.

    The functional is -(1/n) log q_n, or (1/n)(log p_n - log q_n) when
    relative.  Its spread over independent paths of the given length is
    scaled by sqrt(length / N), the CLT rate for a fast-mixing chain.
    """
    ys = paths_of(p, paths, length, rng)
    vals = -loglik(q, ys)
    if relative:
        vals = vals + loglik(p, ys)
    return float(np.std(vals / length, ddof=1) * math.sqrt(length / N))


# ---------------------------------------------------------------------------
# path regeneration


def markov_path(P, seed: int, stream: int, n: int) -> list[int]:
    """The path the program draws for (seed, stream) from the stationary chain P.

    The program's documented contract: a Philox generator keyed by
    SeedSequence((seed, stream)) gives n uniforms, and symbol i is the
    number of cumulative-row entries <= u_i, clipped to the alphabet.
    """
    P = np.asarray(P, dtype=np.float64)
    k = P.shape[0]
    u = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream)))).random(n)
    u = u.tolist()
    rows = np.cumsum(P, axis=1).tolist()
    x = [min(bisect.bisect_right(np.cumsum(stationary(P)).tolist(), u[0]), k - 1)]
    for ui in u[1:]:
        x.append(min(bisect.bisect_right(rows[x[-1]], ui), k - 1))
    return x


def markov_log_prob(P, x: list[int]) -> float:
    """log pi(x_1) + sum log P(x_i, x_{i+1}), summed in math.fsum."""
    P = np.asarray(P, dtype=np.float64)
    logP = np.log(P)
    xs = np.asarray(x, dtype=np.int64)
    return math.fsum([float(np.log(stationary(P))[xs[0]])] + logP[xs[:-1], xs[1:]].tolist())
