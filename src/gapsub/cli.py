"""Command-line front end.

Every run writes its artifacts plus a manifest.json into --outdir.  The
manifest embeds the fully resolved configuration (including the measure
and sequence specs, not just their file names), so `gapsub rerun
--manifest <path>` reproduces the artifacts byte for byte with no other
inputs.  Nothing written here contains timestamps or machine state.

The constructors validate every input: a spec read from a file or a
manifest is checked by building it, and a rejection names the JSON
pointer of the offending field.

Exit codes: 0 success, 2 bad configuration or schema, 3 failed numeric
validation, 4 enumeration cap exceeded, 5 decoupling failure, 1 other
errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .decoupling import (
    check_trajectory_subadditivity,
    decoupling_to_theorem_data,
    minimal_decoupling_constants,
)
from .errors import (
    CapExceededError,
    ConfigError,
    DecouplingFailure,
    GapLiftError,
    GapsubError,
    SchemaError,
    ScheduleRangeError,
    ValidationError,
    param,
)
from .estimators import (
    cross_entropy_estimate,
    mean_convergence_series,
    relative_entropy_estimate,
)
from .fekete import (
    PAIRWISE_CAP,
    check_gapped_subadditivity,
    fekete_limit_estimate,
    gap_lift,
    sequence_from_spec,
)
from .measures import ShiftMeasure, measure_from_spec, validate_measure
from .sampling import sample_trajectory
from .schedules import ErrorSchedule, GapSchedule, csv_text, geometric_grid, linear_grid
from .steele import (
    birkhoff_bad_average,
    steele_decompose,
    trajectory_context,
    verify_cover_bounds,
    verify_depths,
    verify_ub_rep,
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one run; JSON round-trippable."""

    subcommand: str
    params: dict

    def to_json(self) -> dict:
        return {"subcommand": self.subcommand, "params": self.params}

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("subcommand"), str)
            and isinstance(obj.get("params"), dict)
        ):
            raise ConfigError("run config needs a 'subcommand' string and a 'params' object")
        return cls(subcommand=obj["subcommand"], params=obj["params"])


# ---------------------------------------------------------------------------
# schema validation: the constructors are the schema


def schema_validate(obj, kind: str = "auto") -> list[tuple[str, str]]:
    """(pointer, message) of the first problem of a JSON document, or [].

    kind "auto" sniffs: 'family' means measure, 'name' sequence, 'rule'
    schedule.  A document is valid when it builds; a schedule when it
    builds as an error schedule or as a gap schedule.
    """
    if kind == "auto":
        fields = {"family": "measure", "name": "sequence", "rule": "schedule"}
        kind = next((k for f, k in fields.items() if isinstance(obj, dict) and f in obj), None)
        if kind is None:
            return [("", "cannot infer document kind (no family/name/rule field)")]
    builders = {
        "measure": [measure_from_spec],
        "sequence": [sequence_from_spec],
        "schedule": [ErrorSchedule.from_json, GapSchedule.from_json],
    }
    if kind not in builders:
        raise ConfigError(f"unknown schema kind {kind!r}")
    problems: list[tuple[str, str]] = []
    for build in builders[kind]:
        try:
            build(obj)
            return []
        except SchemaError as exc:
            problems += exc.problems
    # a rule that only the other kind knows is not the document's problem
    return sorted(problems, key=lambda problem: problem[0] == "/rule")[:1]


# ---------------------------------------------------------------------------
# artifact plumbing


def _atomic_bytes(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _grid_from_spec(spec: str, N: int) -> np.ndarray:
    if spec == "geometric":
        return geometric_grid(N)
    kind, _, arg = spec.partition(":")
    try:
        if kind == "geometric" and arg:
            return geometric_grid(N, ratio=float(arg))
        if kind == "linear" and arg:
            return linear_grid(N, step=int(arg))
    except ValueError as exc:  # from float(arg) or int(arg)
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown grid spec {spec!r}")


def _schedule_pair(p: dict) -> tuple[GapSchedule, ErrorSchedule]:
    sigma = GapSchedule.zero() if p.get("sigma") is None else GapSchedule.from_json(p["sigma"], "/sigma")
    rho = ErrorSchedule.zero() if p.get("rho") is None else ErrorSchedule.from_json(p["rho"], "/rho")
    return sigma, rho


def _nonnegative(p: dict, key: str, kind: type, default):
    """param(p, key, kind, default), rejected at /key when it is negative."""
    value = param(p, key, kind, default)
    if value is not None and value < 0:
        raise SchemaError([(f"/{key}", "must be nonnegative")])
    return value


def _positive(p: dict, key: str, kind: type, *default):
    """param(p, key, kind, *default), rejected at /key unless it is positive."""
    value = param(p, key, kind, *default)
    if not value > 0:
        raise SchemaError([(f"/{key}", "must be >= 1" if kind is int else "must be positive")])
    return value


# default horizon cap of `fekete limit`, the cap on `fekete lift`'s table,
# on the trials times N of `estimate mean`, on the n_max of `decouple audit`
# and on every drawn path
_HORIZON_CAP = 10**7
# tiles of a Steele run (at most n // r), each one object in decomposition.json
_TILE_CAP = 10**5


def _drawn_length(length: int, pointer: str) -> None:
    """Refuse, at pointer, a path of more than _HORIZON_CAP symbols before it is drawn."""
    if length > _HORIZON_CAP:
        raise CapExceededError(f"a path of {length} symbols exceeds cap {_HORIZON_CAP}", pointer)


def _rho_const(p: dict, Q: ShiftMeasure, tau: int) -> float:
    """--rho-const if given, else the kernel bound of Q clipped at 0."""
    rho_c = _nonnegative(p, "rho_const", float, None)
    return max(Q.kernel_bound(tau), 0.0) if rho_c is None else rho_c


# ---------------------------------------------------------------------------
# runners: each takes resolved params, returns {filename: artifact}, where
# an artifact is a JSON object or the text of the file; params are read
# through param, so a missing or mistyped one is a SchemaError at its key


def _run_fekete_check(p: dict) -> dict:
    F = sequence_from_spec(p.get("sequence"), "/sequence")
    sigma, rho = _schedule_pair(p)
    check = check_gapped_subadditivity(
        F, sigma, rho, param(p, "N", int), tol=param(p, "tol", float, 1e-12),
        cap=_nonnegative(p, "cap", int, PAIRWISE_CAP),
    )
    return {"check.json": check.to_json()}


def _run_fekete_limit(p: dict) -> dict:
    F = sequence_from_spec(p.get("sequence"), "/sequence")
    sigma, rho = _schedule_pair(p)
    N, cap = param(p, "N", int), _nonnegative(p, "cap", int, _HORIZON_CAP)
    if N > cap:
        raise CapExceededError(f"horizon {N} exceeds cap {cap}; pass cap >= N to allow", "/N")
    est = fekete_limit_estimate(F, sigma, rho, N, stride=param(p, "stride", int, None))
    return {"report.json": est.report.to_json(), "series.csv": est.series.csv_text()}


def _run_fekete_lift(p: dict) -> dict:
    F = sequence_from_spec(p.get("sequence"), "/sequence")
    sigma = GapSchedule.from_json(p.get("sigma"), "/sigma")
    probe_N, table_N = _positive(p, "probe_N", int, 200), _positive(p, "table_N", int, 256)
    if table_N > _HORIZON_CAP:
        raise CapExceededError(f"table length {table_N} exceeds cap {_HORIZON_CAP}", "/table_N")
    rho = gap_lift(F, sigma, probe_N=probe_N)
    table = rho.values(np.arange(1, table_N + 1, dtype=np.int64))
    rho_json = {"rule": "table", "params": {"values": table.tolist()}}
    summary = {
        "sequence": p["sequence"],
        "sigma": sigma.to_json(),
        "probe_N": probe_N,
        "plainly_subadditive_up_to": probe_N,
        "rho_table_length": table_N,
    }
    return {"rho.json": rho_json, "lift.json": summary}


def _run_sample(p: dict) -> dict:
    Q = measure_from_spec(p.get("measure"), "/measure")
    N, seed, stream = param(p, "N", int), param(p, "seed", int), param(p, "stream", int, 0)
    _drawn_length(N, "/N")
    x = sample_trajectory(Q, N, seed, stream=stream)
    summary = {
        "measure": Q.label,
        "N": N,
        "seed": seed,
        "stream": stream,
        "alphabet": Q.alphabet.size,
    }
    return {"trajectory.txt": x.text(), "sample.json": summary}


def _path_estimate(estimate, P: ShiftMeasure, Q: ShiftMeasure, p: dict):
    """(est, est.to_json()) of estimate(P, Q, ...) on the N, offset, grid and seed of p."""
    N, offset = param(p, "N", int), _nonnegative(p, "offset", int, 0)
    _drawn_length(N + offset, "/N")
    grid = _grid_from_spec(param(p, "grid", str, "geometric"), N)
    est = estimate(
        P, Q, N, param(p, "seed", int), grid=grid, offset=offset,
        assume_decoupled=param(p, "assume_decoupled", bool, False),
    )
    return est, est.to_json()


def _run_series(p: dict) -> dict:
    Q = measure_from_spec(p.get("measure"), "/measure")
    P = Q if p.get("sample_from") is None else measure_from_spec(p["sample_from"], "/sample_from")
    est, summary = _path_estimate(cross_entropy_estimate, P, Q, p)
    summary["tail_oscillation"] = est.series.tail_oscillation()
    return {"series.csv": est.series.csv_text(), "summary.json": summary}


def _oracle_rates(P: ShiftMeasure, Q: ShiftMeasure) -> dict:
    """Closed-form rates when both measures admit them."""
    kl = P.kl_rate(Q)
    if kl is None:
        return {}
    out = {"entropy_rate_p": P.entropy_rate(), "kl_rate": kl}
    out["cross_entropy_rate"] = kl + out["entropy_rate_p"] if np.isfinite(kl) else float("inf")
    return out


def _run_estimate(p: dict, mode: str) -> dict:
    P = measure_from_spec(p.get("p"), "/p")
    Q = measure_from_spec(p.get("q"), "/q")
    estimate = cross_entropy_estimate if mode == "cross" else relative_entropy_estimate
    est, summary = _path_estimate(estimate, P, Q, p)
    oracles = _oracle_rates(P, Q)
    if oracles:
        summary["oracles"] = oracles
        if mode == "relent" and np.isfinite(est.rate) and np.isfinite(oracles["kl_rate"]):
            summary["rate_minus_oracle"] = est.rate - oracles["kl_rate"]
    return {"series.csv": est.series.csv_text(), "summary.json": summary}


def _run_estimate_mean(p: dict) -> dict:
    P = measure_from_spec(p.get("p"), "/p")
    Q = measure_from_spec(p.get("q"), "/q")
    N = param(p, "N", int)
    _drawn_length(N, "/N")
    trials = param(p, "trials", int)
    if trials * N > _HORIZON_CAP:
        raise CapExceededError(f"{trials} trials of {N} symbols exceed cap {_HORIZON_CAP}", "/trials")
    grid = _grid_from_spec(param(p, "grid", str, "geometric"), N)
    res = mean_convergence_series(
        P, Q, N, trials, param(p, "seed", int), grid=grid,
        assume_decoupled=param(p, "assume_decoupled", bool, False),
    )
    summary = res.to_json()
    summary["oracles"] = _oracle_rates(P, Q)
    return {
        "series.csv": res.estimate.series.csv_text(),
        "terminals.csv": csv_text("trial,terminal", enumerate(res.trial_terminals.tolist())),
        "summary.json": summary,
    }


def _run_decouple_audit(p: dict) -> dict:
    Q = measure_from_spec(p.get("measure"), "/measure")
    if isinstance(p.get("tau"), dict):
        tau = GapSchedule.from_json(p["tau"], "/tau")
    else:
        tau = GapSchedule.constant(_nonnegative(p, "tau", int, 0))
    n_max = _positive(p, "n_max", int)
    if n_max > _HORIZON_CAP:
        raise CapExceededError(f"n_max {n_max} exceeds cap {_HORIZON_CAP}", "/n_max")
    report = minimal_decoupling_constants(
        Q, n_max, _positive(p, "m_max", int), tau,
        cap=_nonnegative(p, "cap", int, 10**7),
    )
    return {"report.json": report.to_json()}


def _run_decouple_bound(p: dict) -> dict:
    Q = measure_from_spec(p.get("measure"), "/measure")
    tau = _nonnegative(p, "tau", int, 0)
    c = Q.kernel_bound(tau)
    data = decoupling_to_theorem_data(c, tau)
    return {
        "bound.json": {
            "measure": Q.label,
            "tau": tau,
            "constant": c,
            "rho": data.rho.to_json(),
            "sigma": data.sigma.to_json(),
        }
    }


def _run_steele(p: dict) -> dict:
    Q = measure_from_spec(p.get("measure"), "/measure")
    n, r, K = (_positive(p, key, int) for key in ("n", "r", "K"))
    eps = _positive(p, "eps", float)
    _drawn_length(n + K * r, "/n" if n > _HORIZON_CAP else "/K")
    if n // r > _TILE_CAP:
        raise CapExceededError(f"up to n // r = {n // r} tiles exceed cap {_TILE_CAP}", "/r")
    tau = _nonnegative(p, "tau", int, 0)
    rho_c = _rho_const(p, Q, tau)
    limit_value = param(p, "limit", float, None)
    if limit_value is None:
        h = Q.entropy_rate()
        if h is None:
            raise ConfigError(f"pass --limit: {Q.label} has no closed-form entropy rate")
        limit_value = -h
    x = sample_trajectory(Q, n + K * r, param(p, "seed", int), stream=param(p, "stream", int, 0))
    ctx = trajectory_context(
        x, Q, ErrorSchedule.constant(rho_c), GapSchedule.constant(tau),
        limit_value, r, K, eps,
    )
    d = steele_decompose(ctx, n)
    cover = verify_cover_bounds(d, ctx)
    ub = verify_ub_rep(d, ctx)
    depths = verify_depths(d, ctx)
    psi = birkhoff_bad_average(ctx, n)
    verification = {
        "cover": cover.to_json(),
        "ub_rep": ub.to_json(),
        "depths": depths.to_json(),
        "bad_birkhoff_average": psi,
        "limit_value": limit_value,
        "rho_const": rho_c,
        "tau": tau,
    }
    return {"decomposition.json": d.to_json(), "verification.json": verification}


def _run_traj_check(p: dict) -> dict:
    Q = measure_from_spec(p.get("measure"), "/measure")
    tau = _nonnegative(p, "tau", int, 0)
    rho_c = _rho_const(p, Q, tau)
    N = param(p, "N", int)
    _drawn_length(N, "/N")
    if N > PAIRWISE_CAP:
        raise CapExceededError(f"pairwise check at N = {N} exceeds cap {PAIRWISE_CAP}", "/N")
    x = sample_trajectory(Q, N, param(p, "seed", int), stream=param(p, "stream", int, 0))
    check = check_trajectory_subadditivity(
        x, Q, ErrorSchedule.constant(rho_c), GapSchedule.constant(tau),
        tol=param(p, "tol", float, 1e-10),
    )
    out = check.to_json()
    out["rho_const"] = rho_c
    out["tau"] = tau
    return {"check.json": out}


def _run_validate_measure(p: dict) -> dict:
    Q = measure_from_spec(p.get("measure"), "/measure")
    report = validate_measure(
        Q, n_max=param(p, "n_max", int, 4), tol=param(p, "tol", float, 1e-9),
        cap=_nonnegative(p, "cap", int, 10**7),
    )
    out = report.to_json()
    out["measure"] = Q.label
    if not report.ok:
        raise _ValidationWithArtifacts(out)
    return {"validation.json": out}


class _ValidationWithArtifacts(ValidationError):
    def __init__(self, report: dict):
        self.report = report
        problems = "; ".join(report.get("problems", []))
        super().__init__(f"measure validation failed: {problems}")


_RUNNERS = {
    "fekete.check": _run_fekete_check,
    "fekete.limit": _run_fekete_limit,
    "fekete.lift": _run_fekete_lift,
    "sample": _run_sample,
    "series": _run_series,
    "estimate.cross": lambda p: _run_estimate(p, "cross"),
    "estimate.relent": lambda p: _run_estimate(p, "relent"),
    "estimate.mean": _run_estimate_mean,
    "decouple.audit": _run_decouple_audit,
    "decouple.bound": _run_decouple_bound,
    "decouple.check": _run_traj_check,
    "steele.run": _run_steele,
    "validate.measure": _run_validate_measure,
}


def run(config: RunConfig, outdir: str | Path = ".") -> dict:
    """Execute a resolved configuration; returns the manifest object.

    Artifacts and the manifest are written atomically into outdir.
    Rerunning the same config always reproduces the same bytes.
    """
    if config.subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    artifacts = _RUNNERS[config.subcommand](config.params)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, payload in sorted(artifacts.items()):
        data = payload.encode("utf-8") if isinstance(payload, str) else _json_bytes(payload)
        _atomic_bytes(out / name, data)
        written.append(name)
    manifest = {
        "tool": "gapsub",
        "version": __version__,
        "config": config.to_json(),
        "outputs": written,
    }
    _atomic_bytes(out / "manifest.json", _json_bytes(manifest))
    return manifest


# ---------------------------------------------------------------------------
# argument parsing


def _add_outdir(sp):
    sp.add_argument("--outdir", default=".", help="directory for artifacts (default .)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gapsub",
        description="Gapped subadditive limits, decoupling audits, entropy estimation.",
    )
    ap.add_argument("--version", action="version", version=f"gapsub {__version__}")
    top = ap.add_subparsers(dest="command", required=True)

    fk = top.add_parser("fekete", help="deterministic sequence tools")
    fks = fk.add_subparsers(dest="subcommand", required=True)
    for name, hlp in (
        ("check", "exhaustive gapped-subadditivity check"),
        ("limit", "limit series and finite-horizon infimum"),
        ("lift", "derive an error schedule for a plainly subadditive sequence"),
    ):
        sp = fks.add_parser(name, help=hlp)
        sp.add_argument("--spec", required=True, help="JSON file with sequence/schedules/N")
        _add_outdir(sp)

    sp = top.add_parser("sample", help="draw a seeded trajectory")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--N", required=True, type=int)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--stream", type=int, default=0)
    _add_outdir(sp)

    sp = top.add_parser("series", help="normalized log-marginal series along a path")
    sp.add_argument("--measure", required=True, help="measure evaluated along the path")
    sp.add_argument("--sample-from", help="measure the path is drawn from (default: --measure)")
    sp.add_argument("--N", required=True, type=int)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--offset", type=int, default=0)
    sp.add_argument("--grid", default="geometric")
    sp.add_argument("--assume-decoupled", action="store_true")
    _add_outdir(sp)

    dc = top.add_parser("decouple", help="decoupling audits and bounds")
    dcs = dc.add_subparsers(dest="subcommand", required=True)
    sp = dcs.add_parser("audit", help="exact minimal constants by enumeration")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--n-max", required=True, type=int)
    sp.add_argument("--m-max", required=True, type=int)
    sp.add_argument("--tau", type=int, default=0)
    sp.add_argument("--cap", type=int, default=10**7)
    _add_outdir(sp)
    sp = dcs.add_parser("bound", help="kernel bound of the hidden chain")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--tau", type=int, default=0)
    _add_outdir(sp)
    sp = dcs.add_parser("check", help="pairwise split inequality along a sampled path")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--N", required=True, type=int)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--tau", type=int, default=0)
    sp.add_argument("--rho-const", type=float)
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_outdir(sp)

    es = top.add_parser("estimate", help="entropy-rate estimators")
    ess = es.add_subparsers(dest="subcommand", required=True)
    for name, hlp in (
        ("cross", "cross entropy rate along one path"),
        ("relent", "relative entropy rate along one path"),
    ):
        sp = ess.add_parser(name, help=hlp)
        sp.add_argument("--p", required=True, help="sampling measure spec")
        sp.add_argument("--q", required=True, help="evaluated measure spec")
        sp.add_argument("--N", required=True, type=int)
        sp.add_argument("--seed", required=True, type=int)
        sp.add_argument("--offset", type=int, default=0)
        sp.add_argument("--grid", default="geometric")
        sp.add_argument("--assume-decoupled", action="store_true")
        _add_outdir(sp)
    sp = ess.add_parser("mean", help="trial-averaged series")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--N", required=True, type=int)
    sp.add_argument("--trials", required=True, type=int)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--grid", default="geometric")
    sp.add_argument("--assume-decoupled", action="store_true")
    _add_outdir(sp)

    st = top.add_parser("steele", help="interval decomposition on a sampled path")
    sts = st.add_subparsers(dest="subcommand", required=True)
    sp = sts.add_parser("run", help="decompose and verify")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--r", required=True, type=int)
    sp.add_argument("--K", required=True, type=int)
    sp.add_argument("--eps", required=True, type=float)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--tau", type=int, default=0)
    sp.add_argument("--rho-const", type=float)
    sp.add_argument("--limit", type=float)
    _add_outdir(sp)

    sp = top.add_parser("validate", help="validate a JSON document")
    sp.add_argument("--file", required=True)
    sp.add_argument("--kind", default="auto", choices=("auto", "measure", "sequence", "schedule"))
    sp.add_argument("--semantic", action="store_true",
                    help="for measures: also run the brute-force level audit")
    sp.add_argument("--n-max", type=int, default=4)
    _add_outdir(sp)

    sp = top.add_parser("rerun", help="reproduce a previous run from its manifest")
    sp.add_argument("--manifest", required=True)
    _add_outdir(sp)
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run that an invocation asks for.

    Its params are the parsed options, with the measure files read in and
    checked; fekete takes its params from its spec file, and validate
    checks a document and may run the semantic audit.
    """
    subcommand = ".".join(filter(None, [args.command, getattr(args, "subcommand", None)]))
    if args.command == "fekete":
        spec = _load_json(args.spec)
        if not isinstance(spec, dict):
            raise SchemaError([("", "a fekete spec must be an object")])
        return RunConfig(subcommand, spec)
    if args.command == "validate":
        obj = _load_json(args.file)
        problems = schema_validate(obj, args.kind)
        if problems:
            raise SchemaError(problems)
        if isinstance(obj, dict) and "family" in obj and args.semantic:
            return RunConfig("validate.measure", {"measure": obj, "n_max": args.n_max})
        return RunConfig("noop", {})
    params = {k: v for k, v in vars(args).items() if k not in ("command", "subcommand", "outdir")}
    for key in ("measure", "p", "q", "sample_from"):
        path = params.pop(key, None)
        if path is not None:
            params[key] = _load_json(path)
            measure_from_spec(params[key])  # checked by building it
    return RunConfig(subcommand, params)


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "rerun":
            manifest = _load_json(args.manifest)
            if not isinstance(manifest, dict) or "config" not in manifest:
                raise ConfigError("manifest lacks a 'config' section")
            config = RunConfig.from_json(manifest["config"])
        else:
            config = _config_from_args(args)
        if config.subcommand == "noop":
            print(json.dumps({"ok": True, "kind": "schema-only"}))
            return 0
        run(config, args.outdir)
    except _ValidationWithArtifacts as exc:
        print(json.dumps(exc.report, indent=2, sort_keys=True), file=sys.stderr)
        return 3
    except SchemaError as exc:
        # a manifest's params sit under /config/params
        base = "/config/params" if args.command == "rerun" else ""
        for ptr, msg in exc.problems:
            print(f"schema: {base + ptr or '/'}: {msg}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ScheduleRangeError, GapLiftError) as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap: {exc}", file=sys.stderr)
        return 4
    except DecouplingFailure as exc:
        print(f"decoupling: {exc}", file=sys.stderr)
        return 5
    except GapsubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
