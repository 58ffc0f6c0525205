"""Command-line front end.

Every run writes its artifacts plus a manifest.json into --outdir.  The
manifest embeds the fully resolved configuration (including the measure
and sequence specs, not just their file names), so `gapsub rerun
--manifest <path>` reproduces the artifacts byte for byte with no other
inputs.  Nothing written here contains timestamps or machine state.

Every run parameter is declared once, in _SUBCOMMANDS.  That table makes
the options of each run subcommand, and run checks every parameter
against it before the runner starts, so a refusal names the parameter's
JSON pointer.  The constructors validate every spec: one read from a file
or a manifest is checked by building it, and a rejection names its field.

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
from .decoupling import check_trajectory_subadditivity, minimal_decoupling_constants
from .errors import (
    CapExceededError,
    ConfigError,
    DecouplingFailure,
    GapLiftError,
    GapsubError,
    REQUIRED,
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


# default horizon cap of `fekete limit`, the cap on `fekete lift`'s table,
# on the trials times N of `estimate mean`, on the n_max and m_max of
# `decouple audit`, on the tau of `decouple bound`, `decouple check` and
# `steele run`, and on every drawn path
_HORIZON_CAP = 10**7
# tiles of a Steele run (at most n // r), each one object in decomposition.json
_TILE_CAP = 10**5


# ---------------------------------------------------------------------------
# run parameters: declared once, for the parser and for the reader


@dataclasses.dataclass(frozen=True)
class _Param:
    """One run parameter: the key of its params entry, and --key on the command line.

    kind is int, float, bool or str, or a JSON object that is built at
    /key: "measure", "sequence", "gap" or "error" (a schedule), or
    "int|gap" (an integer gap, or a gap schedule object).  least is the
    smallest value allowed ("must be nonnegative" at 0, else "must be >=
    least"); positive asks a float to be above 0.  cap, where given, is the
    noun of a refusal above _HORIZON_CAP, such as "n_max {}".
    """

    key: str
    kind: object
    default: object = REQUIRED
    least: int | None = None
    positive: bool = False
    cap: str | None = None
    help: str | None = None


_MEASURE = _Param("measure", "measure")
_DRAWN_N = _Param("N", int, least=1, cap="a path of {} symbols")
_SEED = _Param("seed", int, least=0)
_STREAM = _Param("stream", int, 0, least=0)
_DRAW = (_MEASURE, _DRAWN_N, _SEED, _STREAM)
_GRID = (_Param("grid", str, "geometric"), _Param("assume_decoupled", bool, False))
_PATH_ESTIMATE = (_Param("N", int, least=1), _SEED, _Param("offset", int, 0, least=0), *_GRID)
_P_Q = (_Param("p", "measure", help="sampling measure spec"),
        _Param("q", "measure", help="evaluated measure spec"))
_TAU = _Param("tau", int, 0, least=0, cap="tau {}")
_RHO_CONST = _Param("rho_const", float, None, least=0)
_CAP = _Param("cap", int, 10**7, least=0)
_LEVELS = _Param("n_max", int, 4, least=1)  # of `validate --semantic`
_FEKETE = (_Param("sequence", "sequence"), _Param("sigma", "gap", GapSchedule.zero()),
           _Param("rho", "error", ErrorSchedule.zero()), _Param("N", int, least=1))
_FEKETE_CAP = _Param("cap", int, None, least=0)  # its default is read by the runner


def _read(d: _Param, p: dict):
    """p[d.key], read, built and checked as d declares.

    run reads a subcommand's params in their declared order, so the first
    refusal is at the first bad key: a SchemaError below its range, a
    CapExceededError above _HORIZON_CAP.  Limits that join two params are
    left to the runners.
    """
    value, here = p.get(d.key), f"/{d.key}"
    if d.kind == "int|gap" and isinstance(value, dict):
        return GapSchedule.from_json(value, here)
    if d.kind in ("measure", "sequence", "gap", "error"):
        if value is None and d.default is not REQUIRED:
            return d.default
        # looked up at each call, so a wrapper installed on a name of this
        # module (bench/tracing.py) sees the build
        build = {"measure": measure_from_spec, "sequence": sequence_from_spec,
                 "gap": GapSchedule.from_json, "error": ErrorSchedule.from_json}[d.kind]
        return build(value, here)
    value = param(p, d.key, int if d.kind == "int|gap" else d.kind, d.default)
    if value is not None and d.positive and value <= 0:
        raise SchemaError([(here, "must be positive")])
    if value is not None and d.least is not None and value < d.least:
        need = "nonnegative" if d.least == 0 else f">= {d.least}"
        raise SchemaError([(here, f"must be {need}")])
    if d.cap and value > _HORIZON_CAP:
        raise CapExceededError(f"{d.cap.format(value)} exceeds cap {_HORIZON_CAP}", here)
    return GapSchedule.constant(value) if d.kind == "int|gap" else value


def _drawn_length(length: int, pointer: str) -> None:
    """Refuse, at pointer, a path of more than _HORIZON_CAP symbols before it is drawn."""
    if length > _HORIZON_CAP:
        raise CapExceededError(f"a path of {length} symbols exceeds cap {_HORIZON_CAP}", pointer)


def _pairwise_horizon(N: int, cap: int, pointer: str) -> None:
    """Refuse, at pointer, a pairwise check of horizon N above cap before it starts."""
    if N > cap:
        raise CapExceededError(f"pairwise check at N = {N} exceeds cap {cap}", pointer)


def _rho_const(a: dict) -> float:
    """rho_const if given, else the kernel bound of the measure at tau, clipped at 0."""
    if a["rho_const"] is None:
        return max(a["measure"].kernel_bound(a["tau"]), 0.0)
    return a["rho_const"]


# ---------------------------------------------------------------------------
# runners: each takes the params that run read, checked and built (and,
# at "given", the params as given), and returns {filename: artifact}, where
# an artifact is a JSON object or the text of the file


def _run_fekete_check(a: dict) -> dict:
    cap = PAIRWISE_CAP if a["cap"] is None else a["cap"]
    _pairwise_horizon(a["N"], cap, "/N")
    check = check_gapped_subadditivity(a["sequence"], a["sigma"], a["rho"], a["N"], a["tol"], cap)
    return {"check.json": check.to_json()}


def _run_fekete_limit(a: dict) -> dict:
    N, cap = a["N"], _HORIZON_CAP if a["cap"] is None else a["cap"]
    if N > cap:
        raise CapExceededError(f"horizon {N} exceeds cap {cap}; pass cap >= N to allow", "/N")
    est = fekete_limit_estimate(a["sequence"], a["sigma"], a["rho"], N, stride=a["stride"])
    return {"report.json": est.report.to_json(), "series.csv": est.series.csv_text()}


def _run_fekete_lift(a: dict) -> dict:
    probe_N, table_N = a["probe_N"], a["table_N"]
    _pairwise_horizon(probe_N, PAIRWISE_CAP, "/probe_N")
    rho = gap_lift(a["sequence"], a["sigma"], probe_N=probe_N)
    table = rho.values(np.arange(1, table_N + 1, dtype=np.int64))
    rho_json = {"rule": "table", "params": {"values": table.tolist()}}
    summary = {
        "sequence": a["given"]["sequence"],
        "sigma": a["sigma"].to_json(),
        "probe_N": probe_N,
        "plainly_subadditive_up_to": probe_N,
        "rho_table_length": table_N,
    }
    return {"rho.json": rho_json, "lift.json": summary}


def _run_sample(a: dict) -> dict:
    Q, N, seed, stream = a["measure"], a["N"], a["seed"], a["stream"]
    x = sample_trajectory(Q, N, seed, stream=stream)
    summary = {
        "measure": Q.label,
        "N": N,
        "seed": seed,
        "stream": stream,
        "alphabet": Q.alphabet.size,
    }
    return {"trajectory.txt": x.text(), "sample.json": summary}


def _path_estimate(estimate, P: ShiftMeasure, Q: ShiftMeasure, a: dict):
    """(est, est.to_json()) of estimate(P, Q, ...) on the N, offset, grid and seed of a."""
    N, offset = a["N"], a["offset"]
    _drawn_length(N + offset, "/N")
    est = estimate(
        P, Q, N, a["seed"], grid=_grid_from_spec(a["grid"], N), offset=offset,
        assume_decoupled=a["assume_decoupled"],
    )
    return est, est.to_json()


def _run_series(a: dict) -> dict:
    Q = a["measure"]
    P = Q if a["sample_from"] is None else a["sample_from"]
    est, summary = _path_estimate(cross_entropy_estimate, P, Q, a)
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


def _run_estimate(a: dict, mode: str) -> dict:
    P, Q = a["p"], a["q"]
    estimate = cross_entropy_estimate if mode == "cross" else relative_entropy_estimate
    est, summary = _path_estimate(estimate, P, Q, a)
    oracles = _oracle_rates(P, Q)
    if oracles:
        summary["oracles"] = oracles
        if mode == "relent" and np.isfinite(est.rate) and np.isfinite(oracles["kl_rate"]):
            summary["rate_minus_oracle"] = est.rate - oracles["kl_rate"]
    return {"series.csv": est.series.csv_text(), "summary.json": summary}


def _run_estimate_mean(a: dict) -> dict:
    P, Q, N, trials = a["p"], a["q"], a["N"], a["trials"]
    if trials * N > _HORIZON_CAP:
        raise CapExceededError(f"{trials} trials of {N} symbols exceed cap {_HORIZON_CAP}", "/trials")
    res = mean_convergence_series(
        P, Q, N, trials, a["seed"], grid=_grid_from_spec(a["grid"], N),
        assume_decoupled=a["assume_decoupled"],
    )
    summary = res.to_json()
    summary["oracles"] = _oracle_rates(P, Q)
    return {
        "series.csv": res.estimate.series.csv_text(),
        "terminals.csv": csv_text("trial,terminal", enumerate(res.trial_terminals.tolist())),
        "summary.json": summary,
    }


def _run_decouple_audit(a: dict) -> dict:
    report = minimal_decoupling_constants(
        a["measure"], a["n_max"], a["m_max"], a["tau"], cap=a["cap"]
    )
    return {"report.json": report.to_json()}


def _run_decouple_bound(a: dict) -> dict:
    Q, tau = a["measure"], a["tau"]
    c = Q.kernel_bound(tau)
    return {
        "bound.json": {
            "measure": Q.label,
            "tau": tau,
            "constant": c,
            "rho": ErrorSchedule.constant(max(c, 0.0)).to_json(),
            "sigma": GapSchedule.constant(tau).to_json(),
        }
    }


def _run_steele(a: dict) -> dict:
    Q, n, r, K, tau = a["measure"], a["n"], a["r"], a["K"], a["tau"]
    _drawn_length(n + K * r, "/n" if n > _HORIZON_CAP else "/r" if r > K else "/K")
    if n // r > _TILE_CAP:
        raise CapExceededError(f"up to n // r = {n // r} tiles exceed cap {_TILE_CAP}", "/r")
    if r + tau >= n:
        raise SchemaError([("/r", f"r + tau = {r + tau} must be < n = {n}: "
                                  "no tile of length r + tau fits in [1, n - 1]")])
    rho_c = _rho_const(a)
    limit_value = a["limit"]
    if limit_value is None:
        h = Q.entropy_rate()
        if h is None:
            raise ConfigError(f"pass --limit: {Q.label} has no closed-form entropy rate")
        limit_value = -h
    x = sample_trajectory(Q, n + K * r, a["seed"], stream=a["stream"])
    ctx = trajectory_context(
        x, Q, ErrorSchedule.constant(rho_c), GapSchedule.constant(tau),
        limit_value, r, K, a["eps"],
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


def _run_traj_check(a: dict) -> dict:
    Q, N, tau = a["measure"], a["N"], a["tau"]
    _pairwise_horizon(N, PAIRWISE_CAP, "/N")
    if N < tau + 2:
        raise SchemaError([("/N", f"must be >= tau + 2 = {tau + 2}: at tau {tau} "
                                  "no pair has n + tau + m <= N")])
    rho_c = _rho_const(a)
    x = sample_trajectory(Q, N, a["seed"], stream=a["stream"])
    check = check_trajectory_subadditivity(
        x, Q, ErrorSchedule.constant(rho_c), GapSchedule.constant(tau), tol=a["tol"]
    )
    return {"check.json": {**check.to_json(), "rho_const": rho_c, "tau": tau}}


def _run_validate_measure(a: dict) -> dict:
    Q = a["measure"]
    report = validate_measure(Q, n_max=a["n_max"], tol=a["tol"], cap=a["cap"])
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


# each run subcommand's runner and params; the params are read and checked
# in their order here, and make the subcommand's command-line options
_SUBCOMMANDS = {
    "fekete.check": (_run_fekete_check, (*_FEKETE, _Param("tol", float, 1e-12), _FEKETE_CAP)),
    "fekete.limit": (_run_fekete_limit,
                     (*_FEKETE, _FEKETE_CAP, _Param("stride", int, None, least=1))),
    "fekete.lift": (_run_fekete_lift, (
        _Param("sequence", "sequence"), _Param("sigma", "gap"), _Param("probe_N", int, 200, least=1),
        _Param("table_N", int, 256, least=1, cap="table length {}"),
    )),
    "sample": (_run_sample, _DRAW),
    "series": (_run_series, (
        _Param("measure", "measure", help="measure evaluated along the path"),
        _Param("sample_from", "measure", None,
               help="measure the path is drawn from (default: --measure)"),
        *_PATH_ESTIMATE,
    )),
    "estimate.cross": (lambda a: _run_estimate(a, "cross"), (*_P_Q, *_PATH_ESTIMATE)),
    "estimate.relent": (lambda a: _run_estimate(a, "relent"), (*_P_Q, *_PATH_ESTIMATE)),
    # N before trials: a path over the cap is refused at /N whatever trials is
    "estimate.mean": (_run_estimate_mean,
                      (*_P_Q, _DRAWN_N, _Param("trials", int, least=2), _SEED, *_GRID)),
    "decouple.audit": (_run_decouple_audit, (
        _MEASURE, _Param("n_max", int, least=1, cap="n_max {}"),
        _Param("m_max", int, least=1, cap="m_max {}"),
        _Param("tau", "int|gap", 0, least=0), _CAP,
    )),
    "decouple.bound": (_run_decouple_bound, (_MEASURE, _TAU)),
    "decouple.check": (_run_traj_check, (*_DRAW, _TAU, _RHO_CONST, _Param("tol", float, 1e-10))),
    "steele.run": (_run_steele, (
        _MEASURE, *(_Param(key, int, least=1) for key in ("n", "r", "K")),
        _Param("eps", float, positive=True), _SEED, _STREAM, _TAU, _RHO_CONST,
        _Param("limit", float, None),
    )),
    "validate.measure": (_run_validate_measure,
                         (_MEASURE, _LEVELS, _Param("tol", float, 1e-9), _CAP)),
}


def run(config: RunConfig, outdir: str | Path = ".") -> dict:
    """Execute a resolved configuration; returns the manifest object.

    Artifacts and the manifest are written atomically into outdir.
    Rerunning the same config always reproduces the same bytes.
    """
    if config.subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    runner, params = _SUBCOMMANDS[config.subcommand]
    checked = {d.key: _read(d, config.params) for d in params}
    artifacts = runner({"given": config.params, **checked})
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


def _add_option(sp, d: _Param) -> None:
    """--key for d: a measure is a JSON file, a bool a switch, an int|gap an int."""
    flag = "--" + d.key.replace("_", "-")
    if d.kind is bool:
        sp.add_argument(flag, action="store_true", help=d.help)
        return
    kind = int if d.kind == "int|gap" else d.kind if d.kind in (int, float) else None
    sp.add_argument(flag, type=kind, required=d.default is REQUIRED, default=d.default, help=d.help)


def _add_outdir(sp) -> None:
    sp.add_argument("--outdir", default=".", help="directory for artifacts (default .)")


def _add_run(sub, name: str, hlp: str) -> None:
    """The parser of run subcommand name, its options made from _SUBCOMMANDS[name]."""
    sp = sub.add_parser(name.split(".")[-1], help=hlp)
    for d in _SUBCOMMANDS[name][1]:
        _add_option(sp, d)
    _add_outdir(sp)


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

    _add_run(top, "sample", "draw a seeded trajectory")
    _add_run(top, "series", "normalized log-marginal series along a path")

    dc = top.add_parser("decouple", help="decoupling audits and bounds")
    dcs = dc.add_subparsers(dest="subcommand", required=True)
    _add_run(dcs, "decouple.audit", "exact minimal constants by enumeration")
    _add_run(dcs, "decouple.bound", "kernel bound of the hidden chain")
    _add_run(dcs, "decouple.check", "pairwise split inequality along a sampled path")

    es = top.add_parser("estimate", help="entropy-rate estimators")
    ess = es.add_subparsers(dest="subcommand", required=True)
    _add_run(ess, "estimate.cross", "cross entropy rate along one path")
    _add_run(ess, "estimate.relent", "relative entropy rate along one path")
    _add_run(ess, "estimate.mean", "trial-averaged series")

    st = top.add_parser("steele", help="interval decomposition on a sampled path")
    sts = st.add_subparsers(dest="subcommand", required=True)
    _add_run(sts, "steele.run", "decompose and verify")

    sp = top.add_parser("validate", help="validate a JSON document")
    sp.add_argument("--file", required=True)
    sp.add_argument("--kind", default="auto", choices=("auto", "measure", "sequence", "schedule"))
    sp.add_argument("--semantic", action="store_true",
                    help="for measures: also run the brute-force level audit")
    _add_option(sp, _LEVELS)
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
    for key in [d.key for d in _SUBCOMMANDS[subcommand][1] if d.kind == "measure"]:
        path = params.pop(key)
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
