"""Correctness checks of every operation's outputs.

`checker(op, seed)` computes the operation's reference values once, with
the code in reference.py, and returns a function that inspects one
output directory and lists its problems.  An empty list passes.  No
check compares against a stored copy of earlier output.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from workloads import Operation

Z = 8.0            # standard errors allowed between an estimate and its reference
BOUND_SLACK = 1e-12  # rounding allowance on a closed-form decoupling bound
HMM_LEVEL = 8      # enumeration depth of the hidden Markov entropy sandwich

OUTPUTS = {
    "estimate.relent": {"series.csv", "summary.json"},
    "estimate.cross": {"series.csv", "summary.json"},
    "estimate.mean": {"series.csv", "summary.json", "terminals.csv"},
    "sample": {"trajectory.txt", "sample.json"},
    "decouple.check": {"check.json"},
    "decouple.audit": {"report.json"},
    "steele.run": {"decomposition.json", "verification.json"},
    "fekete.check": {"check.json"},
    "fekete.limit": {"report.json", "series.csv"},
}

Check = Callable[[Path], list]


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _series(out: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = (out / "series.csv").read_text().split()
    if rows[0] != "n,value":
        raise ValueError("series.csv lacks its header")
    pairs = [r.split(",") for r in rows[1:]]
    return np.array([int(a) for a, _ in pairs]), np.array([float(b) for _, b in pairs])


def _near(problems: list, what: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, expected {want!r} within {tol:.3g}")


def _within(problems: list, what: str, got, lo: float, hi: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not (lo - tol <= got <= hi + tol):
        problems.append(f"{what} = {got!r}, expected in [{lo!r}, {hi!r}] widened by {tol:.3g}")


def _expected_neglog(p: dict, q: dict, N: int) -> tuple[float, float]:
    """Interval for E[-(1/N) log q_N(X)], X ~ p (a point when both are chains)."""
    if p["family"] == "markov":
        v = ref.markov_expected_neglog(p["P"], q["P"], N)
        return v, v
    if q["family"] == "markov":
        v = ref.hmm_expected_neglog_chain(p["A"], p["E"], q["P"], N)
        return v, v
    if p != q:
        raise ValueError("an HMM is only evaluated against itself or a chain")
    return ref.hmm_entropy_bounds(p["A"], p["E"], N, HMM_LEVEL)


def _rate_interval(op: Operation) -> tuple[float, float]:
    """Interval for the expected reported rate of a one-path estimate."""
    p, q, N = op.params["p"], op.params["q"], op.params["N"]
    lo, hi = _expected_neglog(p, q, N)
    if op.subcommand == "estimate.cross":
        return lo, hi
    own_lo, own_hi = _expected_neglog(p, p, N)
    return lo - own_hi, hi - own_lo


def _check_rate(op: Operation, seed: int) -> Check:
    p, q, N = op.params["p"], op.params["q"], op.params["N"]
    relative = op.subcommand == "estimate.relent"
    lo, hi = _rate_interval(op)
    se = ref.monte_carlo_se(p, q, N, relative, np.random.default_rng([seed, 7, N]))
    oracles = {}
    if p["family"] == q["family"] == "markov":
        h = ref.entropy_rate(p["P"])
        oracles = {"entropy_rate_p": h, "cross_entropy_rate": ref.cross_rate(p["P"], q["P"])}
        oracles["kl_rate"] = oracles["cross_entropy_rate"] - h

    def check(out: Path) -> list:
        problems: list = []
        s = _json(out, "summary.json")
        _within(problems, "rate", s.get("rate"), lo, hi, Z * se)
        if s.get("infinite") is not False:
            problems.append("estimate flagged infinite")
        ns, vals = _series(out)
        if ns[-1] != N or vals[-1] != s.get("point_estimate"):
            problems.append("series does not end at N with the point estimate")
        for key, want in oracles.items():
            _near(problems, f"oracles.{key}", s.get("oracles", {}).get(key), want, 1e-10)
        return problems

    return check


def _check_mean(op: Operation, seed: int) -> Check:
    p, q, N, trials = op.params["p"], op.params["q"], op.params["N"], op.params["trials"]
    lo, hi = _expected_neglog(p, q, N)

    def check(out: Path) -> list:
        problems: list = []
        s = _json(out, "summary.json")
        se = s.get("terminal_se")
        if not isinstance(se, float) or not se > 0:
            problems.append(f"terminal_se = {se!r}")
            se = 0.0
        # the trial mean of (1/N) log q_N estimates minus the interval
        _within(problems, "terminal_mean", s.get("terminal_mean"), -hi, -lo, Z * se)
        if s.get("trials") != trials:
            problems.append(f"trials = {s.get('trials')!r}")
        terminals = (out / "terminals.csv").read_text().split()[1:]
        mean = float(np.mean([float(t.split(",")[1]) for t in terminals]))
        if len(terminals) != trials or not math.isclose(mean, s.get("terminal_mean", 0.0),
                                                          rel_tol=1e-12):
            problems.append("terminals.csv disagrees with terminal_mean")
        return problems

    return check


def _check_sample(op: Operation, seed: int) -> Check:
    P = np.asarray(op.params["measure"]["P"])
    N, k = op.params["N"], P.shape[0]

    def check(out: Path) -> list:
        problems: list = []
        x = np.array((out / "trajectory.txt").read_text().split(), dtype=np.int64)
        if x.size != N or x.min() < 0 or x.max() >= k:
            return [f"trajectory has {x.size} symbols in [{x.min()}, {x.max()}]"]
        counts = np.zeros((k, k))
        np.add.at(counts, (x[:-1], x[1:]), 1)
        leave = counts.sum(axis=1, keepdims=True)
        # departures from a state are i.i.d. draws from its row
        sd = np.sqrt(leave * P * (1 - P))
        worst = float(np.max(np.abs(counts - leave * P) - (Z * sd + 1)))
        if worst > 0:
            problems.append(f"transition counts leave their binomial bounds by {worst:.1f}")
        meta = _json(out, "sample.json")
        if (meta.get("N"), meta.get("seed"), meta.get("alphabet")) != (N, op.params["seed"], k):
            problems.append(f"sample.json = {meta}")
        return problems

    return check


def _hidden_kernel(spec: dict) -> list:
    return spec["P"] if spec["family"] == "markov" else spec["A"]


def _check_traj(op: Operation, seed: int) -> Check:
    spec, N, tau = op.params["measure"], op.params["N"], op.params["tau"]
    rho = max(ref.kernel_bound(_hidden_kernel(spec), tau), 0.0)

    def check(out: Path) -> list:
        problems: list = []
        c = _json(out, "check.json")
        if c.get("ok") is not True or c.get("violation_count") != 0 or c.get("horizon") != N:
            problems.append(
                f"check ok={c.get('ok')!r} with {c.get('violation_count')!r} violations "
                f"at horizon {c.get('horizon')!r}"
            )
        _near(problems, "rho_const", c.get("rho_const"), rho, BOUND_SLACK)
        return problems

    return check


def _check_audit(op: Operation, seed: int) -> Check:
    spec, tau, n_max = op.params["measure"], op.params["tau"], op.params["n_max"]
    bound = ref.kernel_bound(_hidden_kernel(spec), tau)

    def check(out: Path) -> list:
        problems: list = []
        r = _json(out, "report.json")
        if r.get("failed") is not False or r.get("n_values") != list(range(1, n_max + 1)):
            problems.append(f"audit failed={r.get('failed')!r} n_values={r.get('n_values')!r}")
        worst = max(r.get("constants") or [math.inf])
        if not worst <= bound + BOUND_SLACK:
            problems.append(f"audited constant {worst!r} exceeds the kernel bound {bound!r}")
        return problems

    return check


def _check_steele(op: Operation, seed: int) -> Check:
    p = op.params
    P, n, r, K, tau = p["measure"]["P"], p["n"], p["r"], p["K"], p["tau"]
    path = ref.markov_path(P, p["seed"], p["stream"], n + K * r)
    log_q = ref.markov_log_prob(P, path[:n])
    limit = -ref.entropy_rate(P)
    rho = max(ref.kernel_bound(P, tau), 0.0)

    def check(out: Path) -> list:
        problems: list = []
        d = _json(out, "decomposition.json")
        at = 0
        for iv in d["intervals"]:
            depth = iv["k"] if iv["kind"] == "good" else 1
            if iv["kind"] == "good" and not 1 <= iv["k"] <= K:
                problems.append(f"tile {iv['index']} has depth {iv['k']}")
            if iv["lo"] != at + 1 or iv["hi"] - iv["lo"] + 1 != depth * r + tau:
                problems.append(f"tile {iv['index']} [{iv['lo']}, {iv['hi']}] breaks the tiling")
                break
            at = iv["hi"]
        if d.get("covered") != at or at > n - 1 or (d.get("n"), d.get("r"), d.get("K")) != (n, r, K):
            problems.append(f"decomposition header {d.get('n')}, {d.get('covered')} disagrees")
        v = _json(out, "verification.json")
        for part in ("cover", "ub_rep", "depths"):
            if v.get(part, {}).get("ok") is not True:
                problems.append(f"{part} verification is not ok")
        _near(problems, "ub_rep.lhs", v.get("ub_rep", {}).get("lhs"), log_q, 1e-9 * abs(log_q))
        _near(problems, "limit_value", v.get("limit_value"), limit, 1e-10)
        _near(problems, "rho_const", v.get("rho_const"), rho, BOUND_SLACK)
        return problems

    return check


def _check_fekete(op: Operation, seed: int) -> Check:
    N = op.params["N"]

    def check(out: Path) -> list:
        c = _json(out, "check.json")
        if c.get("ok") is not True or c.get("violation_count") != 0 or c.get("horizon") != N:
            return [f"fekete check ok={c.get('ok')!r} with {c.get('violation_count')!r} violations"]
        return []

    return check


def _check_limit(op: Operation, seed: int) -> Check:
    N = op.params["N"]

    def check(out: Path) -> list:
        problems: list = []
        r = _json(out, "report.json")
        # affine_sqrt: F_n / n - 3 = 2 / sqrt(n) exactly
        _near(problems, "limit_proxy - 3", r.get("limit_proxy", math.nan) - 3.0,
              2.0 / math.sqrt(N), 1e-12)
        if not r.get("infimum", -math.inf) >= 3.0 or r.get("horizon") != N:
            problems.append(f"infimum {r.get('infimum')!r} below 3 or horizon {r.get('horizon')!r}")
        ns, vals = _series(out)
        err = float(np.max(np.abs(vals - 3.0 - 2.0 / np.sqrt(ns))))
        if ns[-1] != N or not err <= 1e-12:
            problems.append(f"series leaves 3 + 2/sqrt(n) by {err:.3g}")
        return problems

    return check


_CHECKERS = {
    "estimate.relent": _check_rate,
    "estimate.cross": _check_rate,
    "estimate.mean": _check_mean,
    "sample": _check_sample,
    "decouple.check": _check_traj,
    "decouple.audit": _check_audit,
    "steele.run": _check_steele,
    "fekete.check": _check_fekete,
    "fekete.limit": _check_limit,
}


def checker(op: Operation, seed: int) -> Check:
    """Reference values for op, and the function that checks one output dir."""
    inner = _CHECKERS[op.subcommand](op, seed)
    expected = OUTPUTS[op.subcommand]

    def check(out: Path) -> list:
        manifest = _json(out, "manifest.json")
        if set(manifest.get("outputs", ())) != expected:
            return [f"manifest lists {manifest.get('outputs')!r}"]
        try:
            return inner(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    return check
