from __future__ import annotations

import errno
import json
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapsub import (
    __version__,
    ConfigError,
    ErrorSchedule,
    IIDMeasure,
    MarkovMeasure,
    geometric_grid,
    mean_convergence_series,
    measure_from_spec,
    sample_trajectory,
)
from gapsub import cli, errors, fekete
from gapsub.cli import RunConfig, main, run, schema_validate

from conftest import WORKED_H, WORKED_KL_VS_UNIFORM, WORKED_P, read_series

WORKED_SPEC = {"family": "markov", "P": WORKED_P}
UNIFORM_SPEC = {"family": "markov", "P": [[0.5, 0.5], [0.5, 0.5]]}
COIN_SPEC = {"family": "iid", "p": [0.5, 0.5]}
HMM_SPEC = {
    "family": "hmm",
    "A": [[0.7, 0.3], [0.4, 0.6]],
    "E": [[0.8, 0.2], [0.3, 0.7]],
}
# not invariant under A, so no kernel bound certifies it
UNCERTIFIED_HMM_SPEC = {**HMM_SPEC, "start": [0.5, 0.5]}
MIXTURE_SPEC = {
    "family": "mixture",
    "weights": [0.5, 0.5],
    "components": [
        {"family": "iid", "p": [0.9, 0.1]},
        {"family": "iid", "p": [0.1, 0.9]},
    ],
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ------------------------------------------------------------------- schema


def test_schema_accepts_valid_specs():
    assert schema_validate(WORKED_SPEC) == []
    assert schema_validate(COIN_SPEC) == []
    assert schema_validate(HMM_SPEC) == []
    assert schema_validate(MIXTURE_SPEC) == []
    assert schema_validate({"name": "sqrt"}) == []
    assert schema_validate({"rule": "constant", "params": {"value": 2}}) == []


def test_schema_pointers_for_bad_matrix():
    bad = {"family": "markov", "P": [[0.5, 0.6], [0.5, 0.5]]}
    probs = schema_validate(bad)
    assert any(ptr == "/P/0" and "row sums" in msg for ptr, msg in probs)
    ragged = {"family": "markov", "P": [[0.5, 0.5], [1.0]]}
    assert any(ptr == "/P/1" for ptr, msg in schema_validate(ragged))
    rect = {"family": "markov", "P": [[0.5, 0.5]]}
    assert any(msg == "must be square" for _, msg in schema_validate(rect))


def test_schema_pointers_recurse_into_mixtures():
    bad = json.loads(json.dumps(MIXTURE_SPEC))
    bad["components"][1]["p"] = [0.3, 0.3]
    probs = schema_validate(bad)
    assert any(ptr == "/components/1/p" for ptr, _ in probs)
    short = {"family": "mixture", "weights": [1.0], "components": [COIN_SPEC]}
    assert any(ptr == "/components" for ptr, _ in schema_validate(short))


def test_schema_unknown_family_and_kind_sniffing():
    probs = schema_validate({"family": "gauss"})
    assert probs and probs[0][0] == "/family"
    assert schema_validate({"x": 1}) == [
        ("", "cannot infer document kind (no family/name/rule field)")
    ]
    assert schema_validate({"name": "cube"})[0][0] == "/name"
    assert schema_validate({"rule": "fancy"})[0][0] == "/rule"
    probs = schema_validate({"rule": "table", "params": {"values": []}})
    assert probs[0][0] == "/params/values"


def test_run_config_round_trip():
    cfg = RunConfig("sample", {"measure": COIN_SPEC, "N": 5, "seed": 1, "stream": 0})
    again = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg
    with pytest.raises(ConfigError):
        RunConfig.from_json({"subcommand": "sample"})


# ------------------------------------------------------------------ run api


def test_run_writes_manifest_and_artifacts(tmp_path):
    cfg = RunConfig(
        "fekete.check",
        {
            "sequence": {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}},
            "sigma": {"rule": "ceil_log"},
            "rho": {"rule": "constant", "params": {"value": 30.0}},
            "N": 64,
        },
    )
    manifest = run(cfg, tmp_path)
    assert manifest["tool"] == "gapsub" and manifest["outputs"] == ["check.json"]
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    check = json.loads((tmp_path / "check.json").read_text())
    assert check["ok"] is True and check["violation_count"] == 0


def test_pyproject_version_is_the_package_version():
    # the manifest's version is the package's; the two must move together
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == __version__


def test_run_twice_is_byte_identical(tmp_path):
    cfg = RunConfig(
        "series",
        {"measure": WORKED_SPEC, "N": 300, "seed": 9, "grid": "linear:50"},
    )
    a, b = tmp_path / "a", tmp_path / "b"
    run(cfg, a)
    run(cfg, b)
    names = json.loads((a / "manifest.json").read_text())["outputs"] + ["manifest.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ConfigError):
        run(RunConfig("fekete.solve", {}), tmp_path)


# -------------------------------------------------------------- subcommands


def test_cli_sample_matches_library(tmp_path):
    spec = write_json(tmp_path, "m.json", COIN_SPEC)
    out = tmp_path / "out"
    rc = main(["sample", "--measure", spec, "--N", "40", "--seed", "11", "--outdir", str(out)])
    assert rc == 0
    got = np.asarray(
        (out / "trajectory.txt").read_text().split(), dtype=np.int64
    )
    want = sample_trajectory(IIDMeasure([0.5, 0.5]), 40, 11).symbols
    assert (got == want).all()
    summary = json.loads((out / "sample.json").read_text())
    assert summary["seed"] == 11 and summary["alphabet"] == 2


def test_cli_series_constant_path(tmp_path):
    spec = write_json(tmp_path, "m.json", COIN_SPEC)
    out = tmp_path / "out"
    rc = main(
        ["series", "--measure", spec, "--N", "500", "--seed", "3", "--grid", "linear:100",
         "--outdir", str(out)]
    )
    assert rc == 0
    series = read_series(out / "series.csv")
    assert (series.values == -math.log(2.0)).all()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tail_oscillation"] == 0.0
    assert summary["kind"] == "cross"


def test_cli_series_sample_from_other_measure(tmp_path):
    q = write_json(tmp_path, "q.json", UNIFORM_SPEC)
    p = write_json(tmp_path, "p.json", WORKED_SPEC)
    out = tmp_path / "out"
    rc = main(
        ["series", "--measure", q, "--sample-from", p, "--N", "400", "--seed", "21",
         "--outdir", str(out)]
    )
    assert rc == 0
    series = read_series(out / "series.csv")
    # evaluating the uniform chain along any binary path gives exactly -log 2
    assert (series.values == -math.log(2.0)).all()


def test_cli_estimate_relent_reports_oracles(tmp_path):
    p = write_json(tmp_path, "p.json", WORKED_SPEC)
    q = write_json(tmp_path, "q.json", UNIFORM_SPEC)
    out = tmp_path / "out"
    rc = main(
        ["estimate", "relent", "--p", p, "--q", q, "--N", "20000", "--seed", "47",
         "--outdir", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["oracles"]["kl_rate"] - WORKED_KL_VS_UNIFORM) < 1e-12
    assert abs(summary["oracles"]["entropy_rate_p"] - WORKED_H) < 1e-12
    assert abs(summary["rate_minus_oracle"]) < 0.05
    assert summary["kind"] == "relative"


def test_cli_cross_entropy_oracle_is_the_closed_form(tmp_path):
    """The oracle is cross_entropy_rate itself, not kl_rate + h, which
    rounds to 1.3629855815683425 for this pair."""
    P = [[0.2, 0.8], [0.1, 0.9]]
    Q = [[0.2, 0.8], [0.8, 0.19999999999999996]]
    p = write_json(tmp_path, "p.json", {"family": "markov", "P": P})
    q = write_json(tmp_path, "q.json", {"family": "markov", "P": Q})
    out = tmp_path / "out"
    assert main(["estimate", "cross", "--p", p, "--q", q, "--N", "100", "--seed", "1",
                 "--outdir", str(out)]) == 0
    oracles = json.loads((out / "summary.json").read_text())["oracles"]
    want = MarkovMeasure(P).cross_entropy_rate(MarkovMeasure(Q))
    assert oracles["cross_entropy_rate"] == want == 1.3629855815683423
    assert oracles["kl_rate"] == MarkovMeasure(P).kl_rate(MarkovMeasure(Q))


def test_cli_estimate_mean_writes_terminals(tmp_path):
    p = write_json(tmp_path, "p.json", COIN_SPEC)
    out = tmp_path / "out"
    rc = main(
        ["estimate", "mean", "--p", p, "--q", p, "--N", "64", "--trials", "6",
         "--seed", "13", "--outdir", str(out)]
    )
    assert rc == 0
    lines = (out / "terminals.csv").read_text().strip().split("\n")
    assert lines[0] == "trial,terminal" and len(lines) == 7
    assert all(float(line.split(",")[1]) == -math.log(2.0) for line in lines[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 6 and summary["terminal_se"] == 0.0
    assert summary["certificate"] == {"source": "kernel", "constant": 0.0, "tau": 0}


# (p, q, N): a q that gives most trials -inf and some 0.0, and an HMM whose
# terminals need all 17 significant digits
MEAN_CSV_CASES = {
    "iid-minus-inf": (COIN_SPEC, {"family": "iid", "p": [1.0, 0.0]}, 2),
    "hmm": ({"family": "hmm", "A": [[0.7, 0.3], [0.4, 0.6]], "E": [[0.6, 0.4], [0.1, 0.9]]},
            {"family": "hmm", "A": [[0.5, 0.5], [0.2, 0.8]], "E": [[0.3, 0.7], [0.8, 0.2]]}, 40),
}


@pytest.mark.parametrize("case", list(MEAN_CSV_CASES))
def test_estimate_mean_csv_text_is_the_old_inline_text(tmp_path, case):
    """terminals.csv and series.csv are the text the old inline loops built
    from the library's result: a header, then one key,repr(value) line each."""
    p_spec, q_spec, N = MEAN_CSV_CASES[case]
    p, q = write_json(tmp_path, "p.json", p_spec), write_json(tmp_path, "q.json", q_spec)
    out = tmp_path / "out"
    assert main(["estimate", "mean", "--p", p, "--q", q, "--N", str(N), "--trials", "12",
                 "--seed", "3", "--assume-decoupled", "--outdir", str(out)]) == 0
    res = mean_convergence_series(
        measure_from_spec(p_spec), measure_from_spec(q_spec), N, 12, 3,
        grid=geometric_grid(N), assume_decoupled=True,
    )
    lines = ["trial,terminal"]
    for t, v in enumerate(res.trial_terminals.tolist()):
        lines.append(f"{t},{v!r}")
    assert (out / "terminals.csv").read_text() == "\n".join(lines) + "\n"
    s = res.estimate.series
    rows = (f"{n},{v!r}" for n, v in zip(s.ns.tolist(), s.values.tolist()))
    assert (out / "series.csv").read_text() == "\n".join(["n,value", *rows]) + "\n"
    if case == "iid-minus-inf":
        assert {"0.0", "-inf"} == {line.split(",")[1] for line in lines[1:]}


def test_cli_decouple_bound_and_audit(tmp_path):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out1 = tmp_path / "bound"
    assert main(["decouple", "bound", "--measure", m, "--outdir", str(out1)]) == 0
    bound = json.loads((out1 / "bound.json").read_text())
    assert abs(bound["constant"] - math.log(2.4)) < 1e-12
    assert bound["rho"]["rule"] == "constant"
    coin = write_json(tmp_path, "c.json", COIN_SPEC)
    out2 = tmp_path / "audit"
    assert main(
        ["decouple", "audit", "--measure", coin, "--n-max", "3", "--m-max", "3",
         "--outdir", str(out2)]
    ) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert report["method"] == "product-identity"
    assert report["constants"] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "spec, tau",
    [(HMM_SPEC, 0), (HMM_SPEC, 2), (MIXTURE_SPEC, 0), (MIXTURE_SPEC, 1)],
    ids=["hmm", "hmm-gap", "mixture", "mixture-gap"],
)
def test_cli_decouple_bound_covers_hmm_and_mixture(tmp_path, spec, tau):
    m = write_json(tmp_path, "m.json", spec)
    out = tmp_path / "bound"
    assert main(["decouple", "bound", "--measure", m, "--tau", str(tau),
                 "--outdir", str(out)]) == 0
    bound = json.loads((out / "bound.json").read_text())
    assert bound["constant"] == measure_from_spec(spec).kernel_bound(tau)
    assert bound["rho"]["params"]["value"] == bound["constant"] > 0


def test_cli_decouple_bound_refuses_a_non_invariant_start(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", UNCERTIFIED_HMM_SPEC)
    assert main(["decouple", "bound", "--measure", m, "--outdir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"validation: /start: kernel bound needs the stationary start (--measure {m})" in err


def test_cli_iid_with_a_zero_symbol_is_certified(tmp_path):
    m = write_json(tmp_path, "m.json", {"family": "iid", "p": [0.7, 0.3, 0.0]})
    out = tmp_path / "bound"
    assert main(["decouple", "bound", "--measure", m, "--tau", "1", "--outdir", str(out)]) == 0
    assert json.loads((out / "bound.json").read_text())["constant"] == 0.0
    out = tmp_path / "check"
    assert main(["decouple", "check", "--measure", m, "--N", "200", "--seed", "5",
                 "--outdir", str(out)]) == 0
    check = json.loads((out / "check.json").read_text())
    assert check["ok"] and check["rho_const"] == 0.0


def test_cli_every_product_record_is_certified(tmp_path):
    """A one-state HMM audits by the product identity at any size, and a chain
    whose identical rows give a symbol no mass has kernel bound 0.0, which
    certifies its estimate."""
    h = write_json(tmp_path, "h.json", {"family": "hmm", "A": [[1.0]], "E": [[0.3, 0.7]]})
    out = tmp_path / "audit"
    assert main(["decouple", "audit", "--measure", h, "--n-max", "30", "--m-max", "30",
                 "--outdir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "product-identity" and report["constants"] == [0.0] * 30
    m = write_json(tmp_path, "m.json", {"family": "markov", "P": [[0.3, 0.7, 0.0]] * 3})
    out = tmp_path / "bound"
    assert main(["decouple", "bound", "--measure", m, "--outdir", str(out)]) == 0
    assert '"constant": 0.0' in (out / "bound.json").read_text()
    out = tmp_path / "cross"
    assert main(["estimate", "cross", "--p", m, "--q", m, "--N", "200", "--seed", "3",
                 "--outdir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificate"] == {"source": "kernel", "constant": 0.0, "tau": 0}


def test_cli_hmm_and_mixture_need_no_rho_const_or_assumption(tmp_path):
    h = write_json(tmp_path, "h.json", HMM_SPEC)
    out = tmp_path / "cross"
    assert main(["estimate", "cross", "--p", h, "--q", h, "--N", "200", "--seed", "3",
                 "--outdir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    c = measure_from_spec(HMM_SPEC).kernel_bound(0)
    assert summary["certificate"] == {"source": "kernel", "constant": c, "tau": 0}
    out = tmp_path / "steele"
    assert main(["steele", "run", "--measure", h, "--n", "200", "--r", "5", "--K", "4",
                 "--eps", "0.1", "--seed", "7", "--limit", "-0.6", "--outdir", str(out)]) == 0
    assert json.loads((out / "verification.json").read_text())["rho_const"] == c
    m = write_json(tmp_path, "m.json", MIXTURE_SPEC)
    out = tmp_path / "check"
    assert main(["decouple", "check", "--measure", m, "--N", "300", "--seed", "5",
                 "--outdir", str(out)]) == 0
    check = json.loads((out / "check.json").read_text())
    assert check["ok"] and check["rho_const"] == math.log(2.0)


def test_cli_decouple_check_reports_violations_without_failing(tmp_path):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "out"
    rc = main(
        ["decouple", "check", "--measure", m, "--N", "200", "--seed", "5",
         "--rho-const", "0", "--outdir", str(out)]
    )
    assert rc == 0
    check = json.loads((out / "check.json").read_text())
    assert check["ok"] is False and check["violation_count"] > 0
    assert check["rho_const"] == 0.0


def test_cli_steele_run_verifies(tmp_path):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "out"
    rc = main(
        ["steele", "run", "--measure", m, "--n", "400", "--r", "10", "--K", "4",
         "--eps", "0.1", "--seed", "31", "--outdir", str(out)]
    )
    assert rc == 0
    ver = json.loads((out / "verification.json").read_text())
    assert ver["cover"]["ok"] and ver["ub_rep"]["ok"] and ver["depths"]["ok"]
    assert abs(ver["limit_value"] + WORKED_H) < 1e-12
    assert abs(ver["rho_const"] - math.log(2.4)) < 1e-12
    assert 0.0 <= ver["bad_birkhoff_average"]
    dec = json.loads((out / "decomposition.json").read_text())
    assert dec["n"] == 400 and dec["covered"] <= 399


def test_a_steele_run_evaluates_rho_in_one_call(tmp_path, monkeypatch):
    """rho_{k r} at every depth k <= K comes from one ErrorSchedule.values
    call; one call per depth per evaluation made 25 at this size."""
    calls = []
    values = ErrorSchedule.values

    def spy(self, ns):
        calls.append(len(ns))
        return values(self, ns)

    monkeypatch.setattr(ErrorSchedule, "values", spy)
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    assert main(["steele", "run", "--measure", m, "--n", "20000", "--r", "20", "--K", "8",
                 "--eps", "0.05", "--seed", "31", "--outdir", str(tmp_path / "o")]) == 0
    assert calls == [8]


@pytest.mark.parametrize("spec", [HMM_SPEC, MIXTURE_SPEC], ids=["hmm", "mixture"])
def test_steele_run_without_a_closed_form_needs_limit(tmp_path, capsys, spec):
    m = write_json(tmp_path, "m.json", spec)
    argv = ["steele", "run", "--measure", m, "--n", "40", "--r", "2", "--K", "2",
            "--eps", "0.1", "--seed", "1", "--outdir", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: /limit: pass --limit: {measure_from_spec(spec).label} has no closed-form" in err
    assert main(argv + ["--limit", "-0.6"]) == 0
    # a limit is usually negative, and argparse takes a lone -1e-3 for an
    # option, so the README gives the --limit=<value> form
    assert main(argv + ["--limit=-1e-3"]) == 0
    assert json.loads((tmp_path / "o" / "verification.json").read_text())["limit_value"] == -1e-3


_STEELE_ARGS = ["--n", "40", "--r", "2", "--K", "2", "--eps", "0.1", "--seed", "1"]
_NO_STATIONARY_START = "validation: /start: kernel bound needs the stationary start (--measure {bad})"
_TWO_ALPHABETS = "error: measures must share one alphabet (--q {three})"
_THREE_SYMBOLS = {"family": "iid", "p": [0.2, 0.3, 0.5]}


@pytest.mark.parametrize("argv, code, line", [
    (["steele", "run", "--measure", "{hmm}", *_STEELE_ARGS], 2,
     "error: /limit: pass --limit: hmm(hidden=2, k=2) has no closed-form entropy rate"),
    (["decouple", "audit", "--measure", "{chain}", "--n-max", "10", "--m-max", "10",
      "--cap", "100"], 4, "cap: /cap: audit needs 1048576 words at length 20, cap is 100"),
    (["validate", "--file", "{chain}", "--semantic", "--n-max", "40"], 4,
     "cap: /n_max: level 40 needs 1099511627776 words, cap is 10000000"),
    (["decouple", "check", "--measure", "{bad}", "--N", "20", "--seed", "1"], 3,
     _NO_STATIONARY_START),
    (["decouple", "bound", "--measure", "{bad}"], 3, _NO_STATIONARY_START),
    (["steele", "run", "--measure", "{bad}", *_STEELE_ARGS, "--limit", "-0.6"], 3,
     _NO_STATIONARY_START),
    (["decouple", "bound", "--measure", "{mixture}"], 3,
     "validation: /components/1/start: kernel bound needs the stationary start "
     "(--measure {mixture})"),
    (["estimate", "cross", "--p", "{chain}", "--q", "{three}", "--N", "50", "--seed", "1"], 2,
     _TWO_ALPHABETS),
    (["estimate", "relent", "--p", "{chain}", "--q", "{three}", "--N", "50", "--seed", "1"], 2,
     _TWO_ALPHABETS),
    (["estimate", "mean", "--p", "{chain}", "--q", "{three}", "--N", "50", "--trials", "2",
      "--seed", "1"], 2, _TWO_ALPHABETS),
    (["series", "--measure", "{three}", "--sample-from", "{chain}", "--N", "50", "--seed", "1"],
     2, "error: measures must share one alphabet (--sample-from {chain})"),
    (["rerun", "--manifest", "{manifest}"], 2,
     "error: /config/params/q: measures must share one alphabet"),
], ids=["steele-limit", "audit-cap", "validate-n-max", "check-start", "bound-start",
        "steele-start", "bound-component-start", "cross-alphabets", "relent-alphabets",
        "mean-alphabets", "series-alphabets", "rerun-alphabets"])
def test_each_refusal_of_malformed_input_names_a_pointer(tmp_path, capsys, argv, code, line):
    """These refusals keep their exit codes and messages, and now name the
    field at fault; one in a measure file names the option and the file,
    and the field within it if there is one."""
    manifest = {"config": {"subcommand": "estimate.cross",
                           "params": {"p": WORKED_SPEC, "q": _THREE_SYMBOLS, "N": 50, "seed": 1}}}
    specs = {"hmm": HMM_SPEC, "chain": WORKED_SPEC, "bad": UNCERTIFIED_HMM_SPEC,
             "mixture": {**MIXTURE_SPEC, "components": [HMM_SPEC, UNCERTIFIED_HMM_SPEC]},
             "three": _THREE_SYMBOLS, "manifest": manifest}
    files = {name: write_json(tmp_path, f"{name}.json", spec) for name, spec in specs.items()}
    out = tmp_path / "o"
    assert main([a.format(**files) for a in argv] + ["--outdir", str(out)]) == code
    assert capsys.readouterr().err == line.format(**files) + "\n"
    assert not out.exists()


_ABSORBING = [[0.5, 0.5], [0.0, 1.0]]  # its stationary law (0, 1) has a zero


@pytest.mark.parametrize("spec, pointer", [
    ({"family": "markov", "P": _ABSORBING}, "/P"),
    ({"family": "hmm", "A": _ABSORBING, "E": HMM_SPEC["E"]}, "/A"),
    ({"family": "markov", "P": _ABSORBING, "start": [0.0, 1.0]}, "/start"),
    ({"family": "mixture", "weights": [0.5, 0.5],
      "components": [COIN_SPEC, {"family": "markov", "P": _ABSORBING}]}, "/components/1/P"),
], ids=["markov", "hmm", "given-start", "mixture"])
def test_a_kernel_bound_refused_for_a_zero_in_pi_names_its_field(tmp_path, capsys, spec, pointer):
    """pi is the stationary law of /P or /A, or the given /start."""
    m = write_json(tmp_path, "m.json", spec)
    out = tmp_path / "o"
    assert main(["decouple", "bound", "--measure", m, "--outdir", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"validation: {pointer}: kernel bound needs pi > 0 everywhere (--measure {m})\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["sample", "rerun"])
def test_an_unusable_outdir_is_refused_in_one_line(tmp_path, capsys, command, where):
    """An outdir that is a file, or lies under one, exits 2 naming it, and the file stays."""
    argv = ["sample", "--measure", write_json(tmp_path, "m.json", COIN_SPEC),
            "--N", "10", "--seed", "1"]
    if command == "rerun":
        assert main(argv + ["--outdir", str(tmp_path / "first")]) == 0
        argv = ["rerun", "--manifest", str(tmp_path / "first" / "manifest.json")]
    capsys.readouterr()
    blocker = tmp_path / "f"
    blocker.write_text("kept")
    out, code = (blocker, errno.EEXIST) if where == "a-file" else (blocker / "o", errno.ENOTDIR)
    assert main(argv + ["--outdir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output directory {out}: {os.strerror(code)}\n"
    )
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("flaw", ["missing", "truncated"])
@pytest.mark.parametrize("argv", [
    ["estimate", "cross", "--p", "{path}", "--q", "{chain}", "--N", "50", "--seed", "1"],
    ["fekete", "check", "--spec", "{path}"],
    ["validate", "--file", "{path}"],
    ["rerun", "--manifest", "{path}"],
], ids=["p", "fekete-spec", "validate-file", "rerun-manifest"])
def test_an_unreadable_or_invalid_input_file_is_refused_in_one_line(tmp_path, capsys, argv, flaw):
    """A file given to an option that cannot be read, or is not JSON, exits 2
    with one line that names it."""
    path, text = tmp_path / "in.json", '{"family": "iid", "p": [0.5,'
    if flaw == "missing":
        line = f"cannot read {path}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{path}'"
    else:
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        line = f"{path} is not valid JSON: {exc.value}"
    chain, out = write_json(tmp_path, "chain.json", WORKED_SPEC), tmp_path / "o"
    assert main([a.format(path=path, chain=chain) for a in argv] + ["--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


def test_audit_of_a_huge_gap_is_a_cap_refusal(tmp_path, capsys):
    """An integer gap over 10^7 is refused at /tau; a gap schedule is bounded
    by the word cap, which compares lengths, so it never builds or prints
    2**(10**8)."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    start = time.perf_counter()
    rc = main(["decouple", "audit", "--measure", m, "--n-max", "2", "--m-max", "2",
               "--tau", "100000000", "--outdir", str(tmp_path / "o")])
    assert rc == 4
    assert "cap: /tau: tau 100000000 exceeds cap 10000000" in capsys.readouterr().err
    gap = {"rule": "constant", "params": {"value": 100000000}}
    manifest = {"config": {"subcommand": "decouple.audit", "params": {
        "measure": WORKED_SPEC, "n_max": 2, "m_max": 2, "tau": gap}}}
    stub = write_json(tmp_path, "manifest.json", manifest)
    assert main(["rerun", "--manifest", stub, "--outdir", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert ("cap: /config/params/cap: audit needs 2^100000004 words at length 100000004, "
            "cap is 10000000") in err
    assert time.perf_counter() - start < 1.0


def test_audit_of_a_huge_n_max_is_refused_before_any_per_n_work(tmp_path, capsys):
    """report.json lists one constant per n, so n_max is at most the entry cap."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    start = time.perf_counter()
    rc = main(["decouple", "audit", "--measure", m, "--n-max", "10000000", "--m-max", "1",
               "--outdir", str(tmp_path / "o")])
    took = time.perf_counter() - start
    assert rc == 4
    err = capsys.readouterr().err
    assert "cap: /n_max: n_max 10000000 exceeds cap 100000" in err
    assert took < 1.0


def test_an_identity_audit_is_bounded_by_the_entry_cap(tmp_path, capsys, monkeypatch):
    """An iid audit enumerates no word, so only the entry cap bounds its
    report: 10^6 n values are refused, and n_max equal to the cap runs."""
    c = write_json(tmp_path, "c.json", COIN_SPEC)
    argv = ["decouple", "audit", "--measure", c, "--m-max", "1"]
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(argv + ["--n-max", "1000000", "--outdir", str(out)]) == 4
    assert time.perf_counter() - start < 1.0
    assert "cap: /n_max: n_max 1000000 exceeds cap 100000" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(cli, "_ENTRY_CAP", 30)
    assert main(argv + ["--n-max", "30", "--outdir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--n-max", "31", "--outdir", str(tmp_path / "b")]) == 4


def test_audit_of_an_n_max_over_the_horizon_cap_is_refused_at_n_max(tmp_path, capsys):
    """An n_max far above the cap is refused before the library walks its levels."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main(["decouple", "audit", "--measure", m, "--n-max", str(2**62), "--m-max", "1",
               "--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == 4
    assert (f"cap: /n_max: n_max {2**62} exceeds cap 10000000"
            in capsys.readouterr().err)
    assert not out.exists()
    assert took < 1.0


def test_audit_of_an_m_max_over_the_horizon_cap_is_refused_at_m_max(tmp_path, capsys):
    """m_max is refused at its pointer before the library counts any level."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main(["decouple", "audit", "--measure", m, "--n-max", "4", "--m-max", str(2**62),
               "--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == 4
    assert (f"cap: /m_max: m_max {2**62} exceeds cap 10000000"
            in capsys.readouterr().err)
    assert not out.exists()
    assert took < 1.0


def test_decouple_check_of_a_huge_horizon_is_a_cap_refusal(tmp_path, capsys):
    """The pairwise scan is O(N^2); above the cap it is refused, not started."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main(["decouple", "check", "--measure", m, "--N", "1000000", "--seed", "1",
               "--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == 4
    assert "cap: /N: pairwise check at N = 1000000 exceeds cap 5000" in capsys.readouterr().err
    assert not out.exists()
    assert took < 1.0


def test_decouple_check_refuses_its_horizon_before_drawing(tmp_path, capsys):
    """10^7 symbols of a three-state HMM take over a second to draw; a
    horizon above the pairwise cap is refused before any is drawn."""
    hmm3 = {"family": "hmm", "A": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]],
            "E": [[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]]}
    m = write_json(tmp_path, "m.json", hmm3)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main(["decouple", "check", "--measure", m, "--N", "10000000", "--seed", "1",
               "--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == 4
    assert "cap: /N: pairwise check at N = 10000000 exceeds cap 5000" in capsys.readouterr().err
    assert not out.exists()
    assert took < 1.0


def test_estimate_mean_of_too_many_trials_is_a_cap_refusal(tmp_path, capsys):
    """trials x N symbols above the cap is refused before any trial is drawn;
    10^5 trials of N = 10^7 have only 86 grid points each, but draw 10^12 symbols."""
    c = write_json(tmp_path, "c.json", COIN_SPEC)
    for N, trials in [(100, 10**11), (10**7, 10**5)]:
        out = tmp_path / f"o{N}"
        start = time.perf_counter()
        rc = main(["estimate", "mean", "--p", c, "--q", c, "--N", str(N),
                   "--trials", str(trials), "--seed", "1", "--outdir", str(out)])
        took = time.perf_counter() - start
        assert rc == 4
        assert (f"cap: /trials: a draw of {trials * N} symbols ({trials} trials of {N}) "
                "exceeds cap 10000000"
                in capsys.readouterr().err)
        assert not out.exists()
        assert took < 1.0


def test_the_trials_cap_admits_exactly_its_symbols(tmp_path, monkeypatch):
    """trials x N equal to the cap runs; one trial more is refused."""
    monkeypatch.setattr(cli, "_HORIZON_CAP", 600)
    c = write_json(tmp_path, "c.json", COIN_SPEC)
    argv = ["estimate", "mean", "--p", c, "--q", c, "--N", "100", "--seed", "1"]
    assert main(argv + ["--trials", "6", "--outdir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--trials", "7", "--outdir", str(tmp_path / "b")]) == 4


# a size, scale, seed or count below its range, which is refused at its
# pointer before any path is drawn (5 * 10^6 symbols where one is given)
BELOW_RANGE = {
    "steele-n": (["steele", "run", "--measure", "{m}", "--n", "0", "--r", "100", "--K", "2",
                  "--eps", "0.1", "--seed", "1"], "/n: must be >= 1"),
    "steele-r": (["steele", "run", "--measure", "{m}", "--n", "5000000", "--r", "0",
                  "--K", "2", "--eps", "0.1", "--seed", "1"], "/r: must be >= 1"),
    "steele-K": (["steele", "run", "--measure", "{m}", "--n", "5000000", "--r", "100",
                  "--K", "-100", "--eps", "0.1", "--seed", "1"], "/K: must be >= 1"),
    "steele-eps": (["steele", "run", "--measure", "{m}", "--n", "5000000", "--r", "100",
                    "--K", "2", "--eps", "-1", "--seed", "1"], "/eps: must be positive"),
    "series-offset": (["series", "--measure", "{m}", "--N", "5000000", "--offset", "-1",
                       "--seed", "1"], "/offset: must be nonnegative"),
    "cross-offset": (["estimate", "cross", "--p", "{m}", "--q", "{m}", "--N", "5000000",
                      "--offset", "-1", "--seed", "1"], "/offset: must be nonnegative"),
    "relent-offset": (["estimate", "relent", "--p", "{m}", "--q", "{m}", "--N", "5000000",
                       "--offset", "-1", "--seed", "1"], "/offset: must be nonnegative"),
    "audit-n-max": (["decouple", "audit", "--measure", "{m}", "--n-max", "0", "--m-max", "1"],
                    "/n_max: must be >= 1"),
    "audit-m-max": (["decouple", "audit", "--measure", "{m}", "--n-max", "1", "--m-max", "0"],
                    "/m_max: must be >= 1"),
    "series-N": (["series", "--measure", "{m}", "--N", "0", "--seed", "1"], "/N: must be >= 1"),
    "cross-N": (["estimate", "cross", "--p", "{m}", "--q", "{m}", "--N", "-4", "--seed", "1"],
                "/N: must be >= 1"),
    "mean-trials": (["estimate", "mean", "--p", "{m}", "--q", "{m}", "--N", "5000000",
                     "--trials", "1", "--seed", "1"], "/trials: must be >= 2"),
    "sample-seed": (["sample", "--measure", "{m}", "--N", "5000000", "--seed", "-1"],
                    "/seed: must be nonnegative"),
    "sample-stream": (["sample", "--measure", "{m}", "--N", "5000000", "--seed", "1",
                       "--stream", "-2"], "/stream: must be nonnegative"),
    "check-N": (["decouple", "check", "--measure", "{m}", "--N", "0", "--seed", "1"],
                "/N: must be >= 1"),
    "validate-n-max": (["validate", "--file", "{m}", "--semantic", "--n-max", "0"],
                       "/n_max: must be >= 1"),
}


@pytest.mark.parametrize("case", list(BELOW_RANGE))
def test_a_size_below_its_range_is_refused_before_drawing(tmp_path, capsys, case):
    argv, message = BELOW_RANGE[case]
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main([m if a == "{m}" else a for a in argv] + ["--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == 2
    assert f"schema: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert took < 1.0


# every runner that draws a path, a drawn length over the cap, and the
# pointer of its refusal
DRAWN_OVER_CAP = {
    "sample": (["sample", "--measure", "{m}", "--N", "1000000000000", "--seed", "1"],
               "/N", 10**12),
    "series": (["series", "--measure", "{m}", "--N", "10000000", "--offset", "1",
                "--seed", "1", "--grid", "linear:1"], "/N", 10**7 + 1),
    "cross": (["estimate", "cross", "--p", "{m}", "--q", "{m}", "--N", "9999999",
               "--offset", "2", "--seed", "1", "--grid", "linear:1"], "/N", 10**7 + 1),
    "relent": (["estimate", "relent", "--p", "{m}", "--q", "{m}", "--N", "1000000000000",
                "--seed", "1"], "/N", 10**12),
    "mean": (["estimate", "mean", "--p", "{m}", "--q", "{m}", "--N", "1000000000000",
              "--trials", "1", "--seed", "1"], "/N", 10**12),
    "steele-K": (["steele", "run", "--measure", "{m}", "--n", "100", "--r", "1000000000",
                  "--K", "1000000", "--eps", "0.1", "--seed", "1"], "/r", 10**15 + 100),
    "steele-huge-r": (["steele", "run", "--measure", "{m}", "--n", "1000",
                       "--r", "4611686018427387904", "--K", "2", "--eps", "0.1", "--seed", "1"],
                      "/r", 2**63 + 1000),
    "steele-K-over-r": (["steele", "run", "--measure", "{m}", "--n", "100", "--r", "2",
                         "--K", "1000000000000000", "--eps", "0.1", "--seed", "1"],
                        "/K", 2 * 10**15 + 100),
    "steele-n": (["steele", "run", "--measure", "{m}", "--n", "100000000", "--r", "2",
                  "--K", "2", "--eps", "0.1", "--seed", "1"], "/n", 10**8 + 4),
    "decouple-check": (["decouple", "check", "--measure", "{m}", "--N", "1000000000000",
                        "--seed", "1"], "/N", 10**12),
}


def test_a_steele_run_of_too_many_tiles_is_refused_before_drawing(tmp_path, capsys):
    """n // r above the tile cap is exit 4 at /r, within a second; the path
    it would draw is within the drawn-length cap."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main(["steele", "run", "--measure", m, "--n", "1000000", "--r", "1", "--K", "1",
               "--eps", "0.05", "--seed", "1", "--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == 4
    assert ("cap: /r: a decomposition of up to n // r = 1000000 tiles exceeds cap 100000"
            in capsys.readouterr().err)
    assert not out.exists()
    assert took < 1.0


def test_the_runner_caps_keep_their_values():
    """Other tests patch _ENTRY_CAP down, so a changed cap would pass them."""
    assert cli._HORIZON_CAP == 10**7
    assert cli._ENTRY_CAP == 10**5


def test_the_tile_cap_admits_exactly_its_count(tmp_path, monkeypatch):
    """n // r equal to the cap runs; one tile more is refused."""
    monkeypatch.setattr(cli, "_ENTRY_CAP", 40)
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    argv = ["steele", "run", "--measure", m, "--r", "2", "--K", "2", "--eps", "0.1",
            "--seed", "1"]
    assert main(argv + ["--n", "81", "--outdir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--n", "82", "--outdir", str(tmp_path / "b")]) == 4


# a gap over the cap (exit 4), and a check or run that would compare
# nothing (exit 2): each refused at its pointer before any work
REFUSED_BEFORE_WORK = {
    "bound-tau": (["decouple", "bound", "--measure", "{m}", "--tau", "4611686018427387904"],
                  4, "cap: /tau: tau 4611686018427387904 exceeds cap 10000000"),
    "check-tau": (["decouple", "check", "--measure", "{m}", "--N", "100", "--seed", "1",
                   "--tau", "4611686018427387904"],
                  4, "cap: /tau: tau 4611686018427387904 exceeds cap 10000000"),
    "steele-tau": (["steele", "run", "--measure", "{m}", "--n", "100", "--r", "2", "--K", "2",
                    "--eps", "0.1", "--seed", "1", "--tau", "4611686018427387904"],
                   4, "cap: /tau: tau 4611686018427387904 exceeds cap 10000000"),
    "check-no-pair": (["decouple", "check", "--measure", "{m}", "--N", "5", "--seed", "1",
                       "--tau", "4"],
                      2, "schema: /N: must be >= tau + 2 = 6: at tau 4 no pair has n + tau + m <= N"),
    "steele-no-tile": (["steele", "run", "--measure", "{m}", "--n", "100", "--r", "200",
                        "--K", "1", "--eps", "0.1", "--seed", "1"],
                       2, "schema: /r: r + tau = 200 must be < n = 100: no tile"),
    "steele-r-is-n": (["steele", "run", "--measure", "{m}", "--n", "100", "--r", "100",
                       "--K", "1", "--eps", "0.1", "--seed", "1"],
                      2, "schema: /r: r + tau = 100 must be < n = 100: no tile"),
    "steele-gap-fills-n": (["steele", "run", "--measure", "{m}", "--n", "100", "--r", "2",
                            "--K", "1", "--eps", "0.1", "--seed", "1", "--tau", "98"],
                           2, "schema: /r: r + tau = 100 must be < n = 100: no tile"),
}


@pytest.mark.parametrize("case", list(REFUSED_BEFORE_WORK))
def test_a_huge_gap_or_an_empty_check_is_refused_before_work(tmp_path, capsys, case):
    argv, code, message = REFUSED_BEFORE_WORK[case]
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main([m if a == "{m}" else a for a in argv] + ["--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == code
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert took < 1.0


def test_the_gap_cap_admits_exactly_its_value(tmp_path):
    """tau = 10^7 is bounded; one more is refused."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    argv = ["decouple", "bound", "--measure", m]
    assert main(argv + ["--tau", "10000000", "--outdir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--tau", "10000001", "--outdir", str(tmp_path / "b")]) == 4


def test_the_shortest_checks_that_compare_something_run(tmp_path):
    """N = tau + 2 holds one pair, and r + tau = n - 1 fits one tile of depth one."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "check"
    assert main(["decouple", "check", "--measure", m, "--N", "6", "--seed", "1", "--tau", "4",
                 "--outdir", str(out)]) == 0
    assert np.isfinite(json.loads((out / "check.json").read_text())["max_excess"])
    out = tmp_path / "steele"
    assert main(["steele", "run", "--measure", m, "--n", "100", "--r", "97", "--K", "1",
                 "--eps", "0.1", "--seed", "1", "--tau", "2", "--outdir", str(out)]) == 0
    assert len(json.loads((out / "decomposition.json").read_text())["intervals"]) == 1


@pytest.mark.parametrize("seed, tiles", [(1, 1), (5, 0), (6, 0)])
def test_a_steele_run_that_lays_no_tile_is_refused(tmp_path, capsys, seed, tiles):
    """r + tau < n, but a good first offset may need a tile longer than
    n - 1, so whether a tile fits depends on the drawn path: such a run is
    refused at /n (exit 3) and writes nothing, where one tile fits it runs."""
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    rc = main(["steele", "run", "--measure", m, "--n", "30", "--r", "15", "--K", "3",
               "--eps", "0.01", "--seed", str(seed), "--outdir", str(out)])
    if tiles:
        assert rc == 0
        intervals = json.loads((out / "decomposition.json").read_text())["intervals"]
        assert len(intervals) == tiles
    else:
        assert rc == 3
        assert ("validation: /n: the decomposition of this path lays no tile in [1, 29]"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("case", list(DRAWN_OVER_CAP))
def test_a_drawn_length_over_the_cap_is_refused_before_drawing(tmp_path, capsys, case):
    """N (plus offset), or n + K r, above the cap is exit 4 at its pointer, within a second."""
    argv, pointer, length = DRAWN_OVER_CAP[case]
    m = write_json(tmp_path, "m.json", COIN_SPEC)
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main([m if a == "{m}" else a for a in argv] + ["--outdir", str(out)])
    took = time.perf_counter() - start
    assert rc == 4
    assert (f"cap: {pointer}: a path of {length} symbols exceeds cap 10000000"
            in capsys.readouterr().err)
    assert not out.exists()
    assert took < 1.0


def test_cli_validate_schema_only(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    assert main(["validate", "--file", m]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"ok": True, "kind": "schema-only"}


def test_cli_validate_semantic_failure(tmp_path, capsys):
    skewed = {"family": "markov", "P": WORKED_P, "start": [0.5, 0.5]}
    m = write_json(tmp_path, "m.json", skewed)
    rc = main(["validate", "--file", m, "--semantic", "--outdir", str(tmp_path / "v")])
    assert rc == 3
    err = capsys.readouterr().err
    report = json.loads(err)
    assert report["ok"] is False and report["problems"]


@pytest.mark.parametrize(
    "spec, message",
    [(WORKED_SPEC, "cap: /n_max: level 40 needs 1099511627776 words, cap is 10000000"),
     (HMM_SPEC, "cap: /n_max: level 40 needs 1099511627776 words of 2 floats, cap is 10000000")],
    ids=["markov", "hmm"],
)
def test_cli_validate_semantic_refuses_its_largest_level_first(tmp_path, capsys, spec, message):
    """The refusal names level n_max, before any level is built."""
    m = write_json(tmp_path, "m.json", spec)
    out = tmp_path / "v"
    start = time.perf_counter()
    assert main(["validate", "--file", m, "--semantic", "--n-max", "40", "--outdir", str(out)]) == 4
    took = time.perf_counter() - start
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert took < 1.0


def test_cli_validate_semantic_success(tmp_path):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "v"
    assert main(["validate", "--file", m, "--semantic", "--outdir", str(out)]) == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["ok"] is True and report["measure"].startswith("markov")


# --------------------------------------------------------------- exit codes


def test_exit_code_schema_error(tmp_path, capsys):
    bad = write_json(tmp_path, "bad.json", {"family": "markov", "P": [[0.5, 0.6], [0.5, 0.5]]})
    rc = main(["sample", "--measure", bad, "--N", "5", "--seed", "1",
               "--outdir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "schema: /P/0:" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "iid", "p": [math.nan, 0.5]},
        {"family": "markov", "P": [[0.5, 0.5], [math.nan, 0.5]]},
    ],
    ids=["iid-nan", "markov-nan"],
)
def test_non_finite_measure_exits_cleanly(tmp_path, capsys, spec):
    m = write_json(tmp_path, "m.json", spec)
    out = tmp_path / "o"
    rc = main(["sample", "--measure", m, "--N", "5", "--seed", "1", "--outdir", str(out)])
    assert rc in (2, 3)
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
    assert not (out / "trajectory.txt").exists()


def test_exit_code_config_error_unknown_grid(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", COIN_SPEC)
    rc = main(["series", "--measure", m, "--N", "50", "--seed", "1",
               "--grid", "weird", "--outdir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "schema: /grid: unknown grid spec 'weird'\n"


def test_exit_code_cap_exceeded(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    rc = main(["decouple", "audit", "--measure", m, "--n-max", "8", "--m-max", "8",
               "--cap", "16", "--outdir", str(tmp_path / "o")])
    assert rc == 4
    assert "cap:" in capsys.readouterr().err


def test_exit_code_decoupling_failure(tmp_path, capsys):
    q = write_json(tmp_path, "q.json", UNCERTIFIED_HMM_SPEC)
    p = write_json(tmp_path, "p.json", COIN_SPEC)
    rc = main(["estimate", "cross", "--p", p, "--q", q, "--N", "50", "--seed", "1",
               "--outdir", str(tmp_path / "o")])
    assert rc == 5
    err = capsys.readouterr().err
    # the start [0.5, 0.5] is not invariant, so no kernel bound holds; the
    # refusal names the flag, and the keyword for library callers
    assert "decoupling:" in err
    assert "--assume-decoupled" in err and "assume_decoupled=True" in err


def test_exit_code_missing_seed(tmp_path):
    m = write_json(tmp_path, "m.json", COIN_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--measure", m, "--N", "5"])
    assert exc.value.code == 2


# the exit-code table of the README and of the cli docstring: each error
# class's stderr label and exit code
@pytest.mark.parametrize(
    "cls, label, code",
    [
        (errors.GapsubError, "error", 1),
        (errors.ConfigError, "error", 2),
        (errors.SchemaError, "schema", 2),
        (errors.ValidationError, "validation", 3),
        (errors.ScheduleRangeError, "validation", 3),
        (errors.GapLiftError, "validation", 3),
        (errors.CapExceededError, "cap", 4),
        (errors.DecouplingFailure, "decoupling", 5),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_each_error_class_declares_its_label_and_exit_code(cls, label, code):
    assert (cls.label, cls.exit_code) == (label, code)


def test_assume_decoupled_flag_unblocks_hmm(tmp_path):
    q = write_json(tmp_path, "q.json", UNCERTIFIED_HMM_SPEC)
    p = write_json(tmp_path, "p.json", COIN_SPEC)
    out = tmp_path / "o"
    rc = main(["estimate", "cross", "--p", p, "--q", q, "--N", "50", "--seed", "1",
               "--assume-decoupled", "--outdir", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "cross"
    assert summary["certificate"] == {"source": "assumed", "constant": None, "tau": None}


# -------------------------------------------------------------------- rerun


def test_rerun_reproduces_bytes(tmp_path):
    p = write_json(tmp_path, "p.json", WORKED_SPEC)
    q = write_json(tmp_path, "q.json", UNIFORM_SPEC)
    first = tmp_path / "first"
    again = tmp_path / "again"
    rc = main(["estimate", "cross", "--p", p, "--q", q, "--N", "600", "--seed", "77",
               "--grid", "linear:100", "--outdir", str(first)])
    assert rc == 0
    rc = main(["rerun", "--manifest", str(first / "manifest.json"), "--outdir", str(again)])
    assert rc == 0
    names = json.loads((first / "manifest.json").read_text())["outputs"] + ["manifest.json"]
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_rerun_needs_config_section(tmp_path, capsys):
    stub = write_json(tmp_path, "m.json", {"tool": "gapsub"})
    rc = main(["rerun", "--manifest", stub])
    assert rc == 2
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, params, code, line",
    [
        ("sample", {"N": 20000000}, 4,
         "cap: /config/params/N: a path of 20000000 symbols exceeds cap 10000000"),
        ("sample", {"N": 0}, 2, "schema: /config/params/N: must be >= 1"),
        ("steele.run", {"n": 30, "r": 15, "K": 3, "eps": 0.01, "seed": 5}, 3,
         "validation: /config/params/n: the decomposition of this path lays no tile in [1, 29]"),
        ("sample", {"N": 5, "sedd": 2}, 2, "schema: /config/params/sedd: unknown parameter"),
    ],
    ids=["cap", "schema", "validation", "unknown-key"],
)
def test_a_rerun_refusal_points_under_config_params(tmp_path, capsys, subcommand, params,
                                                    code, line):
    """Every refusal that names a field names it in the manifest."""
    manifest = {"config": {"subcommand": subcommand,
                           "params": {"measure": WORKED_SPEC, "seed": 1, **params}}}
    stub = write_json(tmp_path, "manifest.json", manifest)
    out = tmp_path / "o"
    assert main(["rerun", "--manifest", stub, "--outdir", str(out)]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_fekete_cli_spec_errors(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", {"sequence": {"name": "cube"}, "N": 10})
    rc = main(["fekete", "check", "--spec", spec, "--outdir", str(tmp_path / "o")])
    assert rc == 2
    assert "schema: /sequence/name" in capsys.readouterr().err
    no_n = write_json(tmp_path, "s2.json", {"sequence": {"name": "sqrt"}})
    rc = main(["fekete", "check", "--spec", no_n, "--outdir", str(tmp_path / "o")])
    assert rc == 2


def test_fekete_limit_cli(tmp_path):
    spec = write_json(
        tmp_path,
        "lim.json",
        {
            "sequence": {"name": "linear", "params": {"slope": 2.5}},
            "N": 2000,
            "stride": 500,
        },
    )
    out = tmp_path / "o"
    assert main(["fekete", "limit", "--spec", spec, "--outdir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["infimum"] == 2.5 and report["argmin_n"] == 1
    series = read_series(out / "series.csv")
    assert (series.values == 2.5).all()


def test_fekete_lift_cli(tmp_path):
    spec = write_json(
        tmp_path,
        "lift.json",
        {
            "sequence": {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}},
            "sigma": {"rule": "ceil_log"},
            "table_N": 64,
        },
    )
    out = tmp_path / "o"
    assert main(["fekete", "lift", "--spec", spec, "--outdir", str(out)]) == 0
    rho = json.loads((out / "rho.json").read_text())
    assert rho["rule"] == "table" and len(rho["params"]["values"]) == 64
    # sigma_5 = ceil(log2(6)) = 3, so rho_5 = 3*3 + 2*sqrt(3)
    assert rho["params"]["values"][4] == pytest.approx(9.0 + 2.0 * math.sqrt(3.0))
    assert main(["validate", "--file", str(out / "rho.json"), "--outdir", str(out)]) == 0


@pytest.mark.parametrize(
    "extra, rc, message",
    [
        ({"table_N": 0}, 2, "schema: /table_N: must be >= 1"),
        ({"table_N": -5}, 2, "schema: /table_N: must be >= 1"),
        ({"table_N": 1e11}, 4, "cap: /table_N: table length 100000000000 exceeds cap 10000000"),
        ({"probe_N": -3}, 2, "schema: /probe_N: must be >= 1"),
    ],
    ids=["table-zero", "table-negative", "table-huge", "probe-negative"],
)
def test_fekete_lift_refuses_a_table_or_probe_out_of_range(tmp_path, capsys, extra, rc, message):
    """Each refusal comes before any table is built, so no rho.json that
    `validate` rejects is written and 1e11 allocates nothing."""
    spec = write_json(tmp_path, "lift.json", {
        "sequence": {"name": "sqrt"}, "sigma": {"rule": "ceil_log"}, **extra,
    })
    out = tmp_path / "o"
    assert main(["fekete", "lift", "--spec", spec, "--outdir", str(out)]) == rc
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sub, spec, message",
    [
        ("check", {"sequence": {"name": "sqrt"}, "N": 0}, "schema: /N: must be >= 1"),
        ("limit", {"sequence": {"name": "sqrt"}, "N": 100, "stride": 0},
         "schema: /stride: must be >= 1"),
    ],
    ids=["check-N", "limit-stride"],
)
def test_fekete_check_and_limit_refuse_a_size_below_its_range(tmp_path, capsys, sub, spec,
                                                               message):
    s = write_json(tmp_path, "s.json", spec)
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["fekete", sub, "--spec", s, "--outdir", str(out)]) == 2
    took = time.perf_counter() - start
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert took < 1.0


def test_fekete_default_caps_are_read_at_each_run(tmp_path, capsys, monkeypatch):
    """A spec with no cap takes the cap the module holds when it runs."""
    monkeypatch.setattr(cli, "_HORIZON_CAP", 50)
    monkeypatch.setattr(cli, "PAIRWISE_CAP", 40)
    s = write_json(tmp_path, "s.json", {"sequence": {"name": "sqrt"}, "N": 64})
    assert main(["fekete", "limit", "--spec", s, "--outdir", str(tmp_path / "a")]) == 4
    assert "cap: /N: horizon 64 exceeds cap 50" in capsys.readouterr().err
    assert main(["fekete", "check", "--spec", s, "--outdir", str(tmp_path / "b")]) == 4
    assert "pairwise check at N = 64 exceeds cap 40" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub, spec, message",
    [
        ("check", {"sequence": {"name": "sqrt"}, "N": 6000},
         "cap: /N: pairwise check at N = 6000 exceeds cap 5000"),
        ("check", {"sequence": {"name": "sqrt"}, "N": 64, "cap": 40},
         "cap: /N: pairwise check at N = 64 exceeds cap 40"),
        ("lift", {"sequence": {"name": "sqrt"}, "sigma": {"rule": "ceil_log"},
                  "probe_N": 20_000_000},
         "cap: /probe_N: pairwise check at N = 20000000 exceeds cap 5000"),
    ],
    ids=["check-N", "check-spec-cap", "lift-probe-N"],
)
def test_fekete_pairwise_horizon_over_its_cap_is_refused_at_its_pointer(
    tmp_path, capsys, sub, spec, message
):
    s = write_json(tmp_path, "s.json", spec)
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["fekete", sub, "--spec", s, "--outdir", str(out)]) == 4
    took = time.perf_counter() - start
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert took < 1.0


# ----------------------------------------------------- constructors as schema


def _replace(spec, path, value):
    """A deep copy of spec with the entry at path (keys and indices) set to value."""
    out = json.loads(json.dumps(spec))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


FEKETE_SPEC = {
    "sequence": {"name": "affine_sqrt", "params": {"slope": 3.0, "sqrt_coeff": 2.0}},
    "sigma": {"rule": "constant", "params": {"value": 1}},
    "rho": {"rule": "constant", "params": {"value": 50.0}},
    "N": 64,
}
TABLES = {
    **FEKETE_SPEC,
    "sigma": {"rule": "table", "params": {"values": [1] * 64}},
    "rho": {"rule": "table", "params": {"values": [50.0] * 64}},
}


# a key that its spec's builder does not read, and the pointer of its refusal
UNREAD_KEYS = [
    (("sequence", "params"), {"slope": 3.0, "sqrt_coef": 2.0}, "/sequence/params/sqrt_coef"),
    (("sequence", "parms"), {"slope": 3.0}, "/sequence/parms"),
    (("sigma",), {"rule": "ceil_log", "parms": {"value": 2}}, "/sigma/parms"),
    (("sigma",), {"rule": "ceil_log", "params": {"value": 2}}, "/sigma/params/value"),
    (("rho",), {"rule": "constant", "params": {"value": 1.0, "vlaue": 2.0}},
     "/rho/params/vlaue"),
]


@pytest.mark.parametrize("path, value, pointer", UNREAD_KEYS,
                         ids=["sequence-param", "sequence", "gap", "gap-param", "error-param"])
def test_an_unread_fekete_spec_key_is_refused(tmp_path, capsys, path, value, pointer):
    """affine_sqrt with sqrt_coef once ran with sqrt_coeff = 1, and a schedule
    with parms as if it had no params."""
    s = write_json(tmp_path, "s.json", _replace(FEKETE_SPEC, path, value))
    out = tmp_path / "o"
    assert main(["fekete", "check", "--spec", s, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"schema: {pointer}: unknown key\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, params, pointer",
    [
        ("estimate.cross", {"p": {**WORKED_SPEC, "strat": [0.5, 0.5]}, "q": WORKED_SPEC,
                            "N": 50, "seed": 1}, "/p/strat"),
        ("sample", {"measure": {**MIXTURE_SPEC, "components": [
            COIN_SPEC, {**COIN_SPEC, "P": [[0.5, 0.5], [0.5, 0.5]]}]}, "N": 5, "seed": 1},
         "/measure/components/1/P"),
    ],
    ids=["markov-start", "mixture-component"],
)
def test_an_unread_measure_key_is_refused(tmp_path, capsys, subcommand, params, pointer):
    """A Markov spec with strat once ran from the stationary start."""
    manifest = {"config": {"subcommand": subcommand, "params": params}}
    stub = write_json(tmp_path, "manifest.json", manifest)
    out = tmp_path / "o"
    assert main(["rerun", "--manifest", stub, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"schema: /config/params{pointer}: unknown key\n"
    assert not out.exists()
    m = write_json(tmp_path, "m.json", params.get("p", params.get("measure")))
    assert main(["validate", "--file", m]) == 2
    in_file = "/" + pointer.split("/", 2)[2]  # the file is the spec itself
    assert capsys.readouterr().err == f"schema: {in_file}: unknown key\n"


def test_an_unknown_key_is_refused_before_any_work(tmp_path, capsys):
    """A misspelt sigma is not read as the default gap of 0."""
    typo = {key: value for key, value in FEKETE_SPEC.items() if key != "sigma"}
    spec = write_json(tmp_path, "s.json", {**typo, "simga": {"rule": "ceil_log"}})
    out = tmp_path / "o"
    assert main(["fekete", "check", "--spec", spec, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == "schema: /simga: unknown parameter\n"
    assert not out.exists()


# a run, and a key that a sibling subcommand declares but this one does not
SIBLING_KEYS = [
    (["decouple", "bound"], "rho_const", 0.5),
    (["decouple", "check", "--N", "9", "--seed", "1"], "n_max", 4),
    (["estimate", "cross", "--N", "9", "--seed", "1"], "trials", 50),
]


@pytest.mark.parametrize("argv, key, value", SIBLING_KEYS, ids=[k for _, k, _ in SIBLING_KEYS])
def test_a_run_refuses_a_key_its_subcommand_does_not_declare(tmp_path, capsys, argv, key,
                                                             value):
    """decouple bound once ran with rho_const, and estimate cross with
    trials, ignoring them."""
    w = write_json(tmp_path, "w.json", WORKED_SPEC)
    files = ["--p", w, "--q", w] if argv[0] == "estimate" else ["--measure", w]
    first = tmp_path / "first"
    assert main([*argv, *files, "--outdir", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    config = RunConfig.from_json(manifest["config"])
    edited = RunConfig(config.subcommand, {**config.params, key: value})
    with pytest.raises(errors.SchemaError) as exc:
        run(edited, tmp_path / "direct")
    assert (exc.value.pointer, exc.value.message) == (f"/{key}", "unknown parameter")
    manifest["config"] = edited.to_json()
    stub = write_json(tmp_path, "manifest.json", manifest)
    out = tmp_path / "again"
    assert main(["rerun", "--manifest", stub, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"schema: /config/params/{key}: unknown parameter\n"
    assert not out.exists() and not (tmp_path / "direct").exists()


def test_a_fekete_spec_with_every_sibling_key_serves_all_three(tmp_path):
    """One spec file carries the keys of check, limit and lift alike."""
    spec = write_json(tmp_path, "s.json", {**FEKETE_SPEC, "tol": 1e-12, "cap": 100,
                                           "stride": 8, "probe_N": 30, "table_N": 16})
    for sub in ("check", "limit", "lift"):
        assert main(["fekete", sub, "--spec", spec, "--outdir", str(tmp_path / sub)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "cross", "--p", "{good}", "--q", "{bad}"],
        ["estimate", "cross", "--p", "{bad}", "--q", "{good}"],
        ["series", "--measure", "{good}", "--sample-from", "{bad}"],
        ["series", "--measure", "{bad}", "--sample-from", "{good}"],
    ],
    ids=["bad-q", "bad-p", "bad-sample-from", "bad-measure"],
)
def test_a_bad_measure_file_is_named_with_its_option(tmp_path, capsys, argv):
    """A bad --p file and a bad --q file once printed the same line."""
    good = write_json(tmp_path, "good.json", WORKED_SPEC)
    bad = write_json(tmp_path, "bad.json", {"family": "markov", "P": [[0.5, 0.6], [0.5, 0.5]]})
    argv = [arg.format(good=good, bad=bad) for arg in argv]
    flag = argv[argv.index(bad) - 1]
    out = tmp_path / "o"
    assert main([*argv, "--N", "9", "--seed", "1", "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"schema: /P/0: row sums to 1.1, expected 1 ({flag} {bad})\n")
    assert not out.exists()


def test_each_measure_file_is_built_once(tmp_path, monkeypatch):
    """run builds the measures it reads; the files were once built first to check them too."""
    built = []

    def spy(obj, pointer=""):
        built.append(pointer)
        return measure_from_spec(obj, pointer)

    monkeypatch.setattr(cli, "measure_from_spec", spy)
    w = write_json(tmp_path, "w.json", WORKED_SPEC)
    assert main(["estimate", "cross", "--p", w, "--q", w, "--N", "9", "--seed", "1",
                 "--outdir", str(tmp_path / "o")]) == 0
    assert built == ["/p", "/q"]


def test_validate_semantic_builds_the_measure_once(tmp_path, monkeypatch, capsys):
    """The measure was once built to check it and again by the audit's run; a
    refusal still names its pointer within the document, with no option."""
    built = []

    def spy(obj, pointer=""):
        built.append(pointer)
        return measure_from_spec(obj, pointer)

    monkeypatch.setattr(cli, "measure_from_spec", spy)
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    assert main(["validate", "--file", m, "--semantic", "--outdir", str(tmp_path / "o")]) == 0
    assert built == ["/measure"]
    bad = write_json(tmp_path, "bad.json", {"family": "markov", "P": [[0.6, 0.5], [0.5, 0.5]]})
    lines = []
    for extra in ([], ["--semantic"]):
        out = tmp_path / f"bad{len(extra)}"
        assert main(["validate", "--file", bad, *extra, "--outdir", str(out)]) == 2
        lines.append(capsys.readouterr().err)
        assert not out.exists()
    assert lines[0] == lines[1] == "schema: /P/0: row sums to 1.1, expected 1\n"


# a fekete or audit run whose schedule leaves its range, and the refusal it ends in
SIGMA_1E30 = {"rule": "ceil_power", "params": {"alpha": 0.5, "scale": 1e30}}
GAP_1E30 = "gap rule 'ceil_power' gives 1e+30 at n = 1; gap values must lie in [0, 2**62]"
RHO_INF = {"rule": "scaled_power", "params": {"alpha": 0.5, "scale": 1e308}}
ERROR_INF = ("validation: /rho: error rule 'scaled_power' gives inf at n = 4; "
             "error values must be finite and >= 0")
# each closed form at a param that overflows to +inf, and the first n where it does
OVERFLOWING_SEQUENCES = {
    "linear": ({"slope": 1e306}, 180),
    "affine_sqrt": ({"slope": 1e306}, 180),
    "sqrt": ({"scale": 1e308}, 4),
    "neg_nlogn": ({"scale": -1e308}, 2),
    "square": ({"scale": 1e306}, 14),
    "log": ({"scale": 1e308}, 6),
    "neg_inf_from": ({"start": 1000, "slope": 1e306}, 180),
}
# F_n = 1e306 n is finite to n = 64, but F_n + 1.7e308 overflows from n = 10 on
SUM_OVERFLOW = {"sequence": {"name": "linear", "params": {"slope": 1e306}},
                "rho": {"rule": "constant", "params": {"value": 1.7e308}}, "N": 64}
OUT_OF_RANGE_RUNS = {
    "limit-sigma-1e30": ("fekete.limit", {**FEKETE_SPEC, "sigma": SIGMA_1E30}, 3,
                         f"validation: /sigma: {GAP_1E30}"),
    "check-sigma-1e30": ("fekete.check", {**FEKETE_SPEC, "sigma": SIGMA_1E30}, 3,
                         f"validation: /sigma: {GAP_1E30}"),
    "audit-tau-1e30": ("decouple.audit",
                       {"measure": WORKED_SPEC, "n_max": 2, "m_max": 2, "tau": SIGMA_1E30}, 3,
                       f"validation: /config/params/tau: {GAP_1E30}"),
    "limit-sigma-2-63": ("fekete.limit",
                         {**FEKETE_SPEC, "sigma": {"rule": "constant",
                                                   "params": {"value": 2**63 - 1}}},
                         2, "schema: /sigma/params/value: must lie in [0, 2**62]"),
    "check-rho-inf": ("fekete.check", {**FEKETE_SPEC, "rho": RHO_INF}, 3, ERROR_INF),
    "limit-rho-inf": ("fekete.limit", {**FEKETE_SPEC, "rho": RHO_INF}, 3, ERROR_INF),
    **{f"{sub}-{name}-overflow": (
        f"fekete.{sub}", {"sequence": {"name": name, "params": params}, "N": 200}, 3,
        f"validation: /sequence: sequence {name!r} gives inf at n = {n}; "
        "sequence values must lie in [-inf, inf)")
       for name, (params, n) in OVERFLOWING_SEQUENCES.items() for sub in ("check", "limit")},
    **{f"{sub}-sum-overflow": (
        f"fekete.{sub}", SUM_OVERFLOW, 3,
        "validation: /rho: F_n + rho_n of sequence 'linear' gives inf at n = 10; "
        "F_n + rho_n must lie in [-inf, inf)") for sub in ("check", "limit")},
    **{f"{sub}-short-table": (
        f"fekete.{sub}", {"sequence": {"name": "table", "params": {"values": [1.0, 2.0]}},
                          "N": 5}, 3,
        "validation: /sequence: sequence table covers n <= 2, asked for n = 3")
       for sub in ("check", "limit")},
}


def test_every_closed_form_has_an_overflowing_run():
    assert set(OVERFLOWING_SEQUENCES) == set(fekete.RealSequence._rules)


@pytest.mark.parametrize("subcommand, params, rc, line", OUT_OF_RANGE_RUNS.values(),
                         ids=OUT_OF_RANGE_RUNS.keys())
def test_a_schedule_out_of_range_is_refused_before_any_report(tmp_path, capsys, subcommand,
                                                               params, rc, line):
    """fekete limit once wrote the infimum -1.08e-18 at n = 10 from a gap cast
    to -2**63, fekete check ended in a traceback, the audit said "level must
    be >= 1", and a +inf rho let fekete check report ok comparing nothing.
    A sequence or a sum F_n + rho_n that overflows is refused at its first n
    with no RuntimeWarning (an error under pytest): the sum once made fekete
    limit write a wrong infimum with exit 0, and a short sequence table once
    ended in exit 2 naming no n.  Each refusal points at the param whose
    schedule or sequence gave the value, and an overflowing F_n + rho_n at
    /rho; they once named no param."""
    command = subcommand.split(".")
    if command[0] == "fekete":
        argv = [*command, "--spec", write_json(tmp_path, "s.json", params)]
    else:
        manifest = {"config": {"subcommand": subcommand, "params": params}}
        argv = ["rerun", "--manifest", write_json(tmp_path, "manifest.json", manifest)]
    out = tmp_path / "o"
    assert main([*argv, "--outdir", str(out)]) == rc
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_schema_schedule_builds_as_either_kind():
    assert schema_validate({"rule": "ceil_log"}) == []
    assert schema_validate({"rule": "scaled_power", "params": {"alpha": 0.5}}) == []
    assert schema_validate({"rule": "ceil_power", "params": {"alpha": 2.0}})[0][0] == "/params/alpha"
    assert schema_validate({"rule": "constant", "params": {"value": -1.5}})[0][0] == "/params/value"


def test_nan_rho_no_longer_certifies_vacuously(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["fekete", "check", "--spec", write_json(tmp_path, "ok.json", FEKETE_SPEC),
                 "--outdir", str(out)]) == 0
    nan_rho = _replace(FEKETE_SPEC, ("rho", "params", "value"), math.nan)
    bad_out = tmp_path / "bad"
    rc = main(["fekete", "check", "--spec", write_json(tmp_path, "s.json", nan_rho),
               "--outdir", str(bad_out)])
    assert rc == 2
    assert "schema: /rho/params/value:" in capsys.readouterr().err
    assert not bad_out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, True], ids=["nan", "inf", "true"])
@pytest.mark.parametrize(
    "spec, path, pointer",
    [
        (COIN_SPEC, ("p", 0), "/p"),
        (WORKED_SPEC, ("P", 1, 0), "/P/1"),
        ({**WORKED_SPEC, "start": [0.5, 0.5]}, ("start", 0), "/start"),
        (HMM_SPEC, ("A", 0, 1), "/A/0"),
        (HMM_SPEC, ("E", 1, 1), "/E/1"),
        ({**HMM_SPEC, "start": [0.5, 0.5]}, ("start", 1), "/start"),
        (MIXTURE_SPEC, ("weights", 0), "/weights"),
        (MIXTURE_SPEC, ("components", 1, "p", 0), "/components/1/p"),
    ],
    ids=["iid-p", "markov-P", "markov-start", "hmm-A", "hmm-E", "hmm-start", "weights",
         "component"],
)
def test_bad_measure_entry_exits_2_with_pointer(tmp_path, capsys, spec, path, pointer, bad):
    m = write_json(tmp_path, "m.json", _replace(spec, path, bad))
    out = tmp_path / "o"
    rc = main(["sample", "--measure", m, "--N", "5", "--seed", "1", "--outdir", str(out)])
    assert rc == 2
    assert f"schema: {pointer}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"family": "iid", "p": [1.0]}, "/p"),
        ({"family": "markov", "P": [[1.0]]}, "/P"),
        ({"family": "hmm", "A": [[0.5, 0.5], [0.5, 0.5]], "E": [[1.0], [1.0]]}, "/E"),
        ({"family": "mixture", "components": [COIN_SPEC, {"family": "iid", "p": [1.0]}],
          "weights": [0.5, 0.5]}, "/components/1/p"),
    ],
    ids=["iid", "markov", "hmm", "mixture"],
)
def test_a_one_symbol_alphabet_is_refused_at_its_field(tmp_path, capsys, spec, pointer):
    """The refusal once named no field inside the file."""
    m = write_json(tmp_path, "m.json", spec)
    out = tmp_path / "o"
    rc = main(["sample", "--measure", m, "--N", "5", "--seed", "1", "--outdir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"schema: {pointer}: alphabet needs at least two symbols (--measure {m})\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (["fekete", "check", "--spec", "{s}"], "/tol"),
        (["decouple", "check", "--measure", "{m}", "--N", "20", "--seed", "1", "--tol", "-1"],
         "/tol"),
        (["rerun", "--manifest", "{v}"], "/config/params/tol"),
    ],
    ids=["fekete-check", "decouple-check", "validate-measure"],
)
def test_a_negative_tol_is_refused_at_its_param(tmp_path, capsys, argv, pointer):
    """fekete check once took a tol of -1 on the additive linear sequence and
    exited 0 with 45 violations.  validate --semantic has no --tol, so its
    run takes one from a manifest."""
    files = {
        "{s}": write_json(tmp_path, "s.json", {"sequence": {"name": "linear"}, "N": 10,
                                               "tol": -1}),
        "{m}": write_json(tmp_path, "m.json", WORKED_SPEC),
        "{v}": write_json(tmp_path, "v.json", {"config": {
            "subcommand": "validate.measure", "params": {"measure": WORKED_SPEC, "tol": -1}}}),
    }
    out = tmp_path / "o"
    assert main([files.get(a, a) for a in argv] + ["--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"schema: {pointer}: must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, True], ids=["nan", "inf", "true"])
@pytest.mark.parametrize(
    "spec, path",
    [
        (FEKETE_SPEC, ("sigma", "params", "value")),
        (FEKETE_SPEC, ("rho", "params", "value")),
        (TABLES, ("sigma", "params", "values", 3)),
        (TABLES, ("rho", "params", "values", 3)),
        (FEKETE_SPEC, ("N",)),
    ],
    ids=["sigma-value", "rho-value", "sigma-values", "rho-values", "N"],
)
def test_bad_fekete_number_exits_2_with_pointer(tmp_path, capsys, spec, path, bad):
    s = write_json(tmp_path, "s.json", _replace(spec, path, bad))
    out = tmp_path / "o"
    assert main(["fekete", "check", "--spec", s, "--outdir", str(out)]) == 2
    pointer = "/" + "/".join(map(str, path))
    assert f"schema: {pointer}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, pointer",
    [
        (("N",), "abc", "/N"),
        (("sequence", "params", "slope"), "x", "/sequence/params/slope"),
        (("sequence", "params"), [1], "/sequence/params"),
        (("rho",), {"rule": "table", "params": {"values": ["a"]}}, "/rho/params/values/0"),
        (("sigma",), {"rule": "ceil_power", "params": {"alpha": 0.5, "scale": "x"}},
         "/sigma/params/scale"),
    ],
)
def test_mistyped_fekete_params_exit_2_with_pointer(tmp_path, capsys, path, value, pointer):
    s = write_json(tmp_path, "s.json", _replace(FEKETE_SPEC, path, value))
    assert main(["fekete", "check", "--spec", s, "--outdir", str(tmp_path / "o")]) == 2
    assert f"schema: {pointer}:" in capsys.readouterr().err


def test_manifest_without_seed_exits_2_with_pointer(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", COIN_SPEC)
    first = tmp_path / "first"
    assert main(["sample", "--measure", m, "--N", "5", "--seed", "1", "--outdir", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    del manifest["config"]["params"]["seed"]
    stub = write_json(tmp_path, "manifest.json", manifest)
    assert main(["rerun", "--manifest", stub, "--outdir", str(tmp_path / "again")]) == 2
    assert "schema: /config/params/seed: missing" in capsys.readouterr().err


def test_reducible_chain_exits_2(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", {"family": "markov", "P": [[1.0, 0.0], [0.0, 1.0]]})
    rc = main(["sample", "--measure", m, "--N", "5", "--seed", "1",
               "--outdir", str(tmp_path / "o")])
    assert rc == 2
    assert "schema: /P: chain has no unique stationary law" in capsys.readouterr().err


_RATIO = "geometric grid ratio must be finite and exceed 1"
# each bad --grid and the message of its refusal at /grid
BAD_GRIDS = {
    "geometric:nan": _RATIO,
    "geometric:inf": _RATIO,
    "geometric:1.0": _RATIO,
    "geometric:abc": "bad grid spec 'geometric:abc': could not convert string to float: 'abc'",
    "linear:abc": "bad grid spec 'linear:abc': invalid literal for int() with base 10: 'abc'",
    "linear:0": "linear grid needs positive step and horizon",
    "geometric:": "unknown grid spec 'geometric:'",
    "foo": "unknown grid spec 'foo'",
}


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_bad_grid_exits_2(tmp_path, capsys, grid):
    m = write_json(tmp_path, "m.json", COIN_SPEC)
    out = tmp_path / "o"
    rc = main(["series", "--measure", m, "--N", "50", "--seed", "1", "--grid", grid,
               "--outdir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"schema: /grid: {BAD_GRIDS[grid]}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra", [["--seed", "-1"], ["--seed", "1", "--stream", "-1"]], ids=["seed", "stream"]
)
def test_negative_seed_exits_2(tmp_path, extra):
    m = write_json(tmp_path, "m.json", COIN_SPEC)
    assert main(["sample", "--measure", m, "--N", "5", *extra,
                 "--outdir", str(tmp_path / "o")]) == 2


def test_non_finite_cli_numbers_exit_2(tmp_path, capsys):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    rc = main(["decouple", "check", "--measure", m, "--N", "50", "--seed", "5",
               "--rho-const", "inf", "--outdir", str(tmp_path / "o")])
    assert rc == 2
    assert "schema: /rho_const:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (["decouple", "check", "--N", "50", "--seed", "5", "--rho-const", "-1"], "/rho_const"),
        (["decouple", "check", "--N", "50", "--seed", "5", "--tau", "-1"], "/tau"),
        (["decouple", "bound", "--tau", "-1"], "/tau"),
        (["decouple", "audit", "--n-max", "2", "--m-max", "2", "--tau", "-2"], "/tau"),
        (["steele", "run", "--n", "40", "--r", "2", "--K", "2", "--eps", "0.1", "--seed", "1",
          "--rho-const", "-1"], "/rho_const"),
        (["steele", "run", "--n", "40", "--r", "2", "--K", "2", "--eps", "0.1", "--seed", "1",
          "--tau", "-1"], "/tau"),
    ],
    ids=["check-rho", "check-tau", "bound-tau", "audit-tau", "steele-rho", "steele-tau"],
)
def test_negative_rho_const_and_tau_exit_2_with_pointer(tmp_path, capsys, argv, pointer):
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    out = tmp_path / "o"
    assert main([*argv[:2], "--measure", m, *argv[2:], "--outdir", str(out)]) == 2
    assert f"schema: {pointer}: must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, rc",
    [({"N": 4611686018427387904}, 4), ({"cap": 63}, 4), ({"cap": 64}, 0), ({}, 0)],
    ids=["huge-N", "over-cap", "at-cap", "default-cap"],
)
def test_fekete_limit_horizon_cap(tmp_path, capsys, extra, rc):
    s = write_json(tmp_path, "s.json", {**FEKETE_SPEC, **extra})
    out = tmp_path / "o"
    assert main(["fekete", "limit", "--spec", s, "--outdir", str(out)]) == rc
    assert ("cap: /N: horizon" in capsys.readouterr().err) == (rc == 4)
    assert out.exists() == (rc == 0)


def _cap_argv(tmp_path, sub: str, cap: int) -> list[str]:
    """An invocation of sub whose enumeration cap is cap."""
    if sub in ("check", "limit"):
        s = write_json(tmp_path, "s.json", {**FEKETE_SPEC, "cap": cap})
        return ["fekete", sub, "--spec", s]
    m = write_json(tmp_path, "m.json", WORKED_SPEC)
    if sub == "audit":
        return ["decouple", "audit", "--measure", m, "--n-max", "2", "--m-max", "2",
                "--cap", str(cap)]
    # validate reads no --cap flag, so the cap comes in through a manifest
    manifest = {"config": {"subcommand": "validate.measure",
                           "params": {"measure": WORKED_SPEC, "n_max": 2, "cap": cap}}}
    return ["rerun", "--manifest", write_json(tmp_path, "manifest.json", manifest)]


@pytest.mark.parametrize("cap, rc", [(-5, 2), (-1, 2), (0, 4), (10**7 + 1, 4)],
                         ids=["minus-5", "minus-1", "zero", "over-ceiling"])
@pytest.mark.parametrize("sub", ["audit", "validate", "check", "limit"])
def test_negative_cap_is_a_schema_error(tmp_path, capsys, sub, cap, rc):
    """A cap below 0 is a schema error; one above the horizon cap, which
    once started unbounded work, is refused at /cap before any."""
    out = tmp_path / "o"
    assert main([*_cap_argv(tmp_path, sub, cap), "--outdir", str(out)]) == rc
    err = capsys.readouterr().err
    assert ("/cap: must be nonnegative" in err) == (rc == 2)
    assert ("/cap: cap 10000001 exceeds cap 10000000" in err) == (cap > 10**7)
    assert err.startswith("schema:" if rc == 2 else "cap:")
    assert not out.exists()


# manifest params of each subcommand, written out by hand: the config is
# the parsed options (fekete: the spec file), so a new option or a changed
# default shows here
def _params_cases(tmp_path):
    c = write_json(tmp_path, "c.json", COIN_SPEC)
    w = write_json(tmp_path, "w.json", WORKED_SPEC)
    fekete = {**FEKETE_SPEC, "stride": 8}
    fk = write_json(tmp_path, "fk.json", fekete)
    lift = {"sequence": FEKETE_SPEC["sequence"], "sigma": {"rule": "ceil_log"}, "table_N": 8}
    lift_path = write_json(tmp_path, "lift.json", lift)
    grid = {"grid": "geometric", "assume_decoupled": False}
    est = {"p": COIN_SPEC, "q": COIN_SPEC, "N": 9, "seed": 1, "offset": 0, **grid}
    series = {"measure": COIN_SPEC, "N": 9, "seed": 1, "offset": 0, **grid}
    drawn = {"measure": WORKED_SPEC, "seed": 1, "stream": 0, "tau": 0, "rho_const": None}
    return [
        (["fekete", "check", "--spec", fk], fekete),
        (["fekete", "limit", "--spec", fk], fekete),
        (["fekete", "lift", "--spec", lift_path], lift),
        (["sample", "--measure", c, "--N", "9", "--seed", "1"],
         {"measure": COIN_SPEC, "N": 9, "seed": 1, "stream": 0}),
        (["series", "--measure", c, "--N", "9", "--seed", "1"], series),
        (["series", "--measure", c, "--sample-from", w, "--N", "9", "--seed", "1"],
         {**series, "sample_from": WORKED_SPEC}),
        (["decouple", "audit", "--measure", w, "--n-max", "2", "--m-max", "2"],
         {"measure": WORKED_SPEC, "n_max": 2, "m_max": 2, "tau": 0, "cap": 10**7}),
        (["decouple", "bound", "--measure", w], {"measure": WORKED_SPEC, "tau": 0}),
        (["decouple", "check", "--measure", w, "--N", "9", "--seed", "1"],
         {**drawn, "N": 9, "tol": 1e-10}),
        (["estimate", "cross", "--p", c, "--q", c, "--N", "9", "--seed", "1"], est),
        (["estimate", "relent", "--p", c, "--q", c, "--N", "9", "--seed", "1"], est),
        (["estimate", "mean", "--p", c, "--q", c, "--N", "9", "--trials", "2", "--seed", "1"],
         {"p": COIN_SPEC, "q": COIN_SPEC, "N": 9, "trials": 2, "seed": 1, **grid}),
        (["steele", "run", "--measure", w, "--n", "40", "--r", "4", "--K", "2", "--eps", "0.1",
          "--seed", "1"],
         {**drawn, "n": 40, "r": 4, "K": 2, "eps": 0.1, "limit": None}),
        (["validate", "--file", w, "--semantic"], {"measure": WORKED_SPEC, "n_max": 4}),
    ]


def test_manifest_param_keys_per_subcommand(tmp_path):
    """Each manifest's params, measure specs as loaded, with every default by value."""
    seen = set()
    for i, (argv, params) in enumerate(_params_cases(tmp_path)):
        out = tmp_path / f"o{i}"
        assert main([*argv, "--outdir", str(out)]) == 0, argv
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["params"] == params, argv
        seen.add(config["subcommand"])
    assert len(seen) == 13


# ------------------------------------------- malformed input never escapes

JUNK = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, None, "x", -1, 0, 0.5, 1, 2, 1.5, [], [1], {}]
)
ROWS = st.sampled_from([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0], [0.3, 0.3, 0.4]])
VECTORS = JUNK | ROWS | st.lists(JUNK | st.sampled_from([0.25, 0.5, 0.75]), max_size=3)
MATRICES = JUNK | st.lists(VECTORS, max_size=3) | st.sampled_from(
    [WORKED_P, [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
)


def _paths(obj, prefix=()):
    """Every key path into a JSON value, below the root."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutants(valid: list, values):
    """One of the valid specs, as it is or with the value at one path replaced."""
    return st.sampled_from(valid).flatmap(lambda spec: st.just(spec) | st.tuples(
        st.sampled_from(list(_paths(spec))), values
    ).map(lambda change: _replace(spec, *change)))


MEASURES = JUNK | _mutants(
    [COIN_SPEC, WORKED_SPEC, {**WORKED_SPEC, "start": [0.5, 0.5]}, HMM_SPEC,
     {**HMM_SPEC, "start": [0.5, 0.5]}, MIXTURE_SPEC],
    VECTORS | MATRICES,
) | st.recursive(
    st.fixed_dictionaries(
        {"family": st.sampled_from(["iid", "markov", "hmm", "gauss"])},
        optional={"p": VECTORS, "P": MATRICES, "A": MATRICES, "E": MATRICES, "start": VECTORS},
    ),
    lambda inner: st.fixed_dictionaries(
        {"family": st.just("mixture")},
        optional={"weights": VECTORS, "components": JUNK | st.lists(inner, max_size=3)},
    ),
    max_leaves=4,
)
PARAMS = JUNK | st.fixed_dictionaries(
    {},
    optional={k: JUNK for k in ("slope", "sqrt_coeff", "scale", "start", "value", "alpha")}
    | {"values": JUNK | st.lists(JUNK, max_size=70)},
)
SEQUENCES = JUNK | st.fixed_dictionaries(
    {"name": st.sampled_from(["linear", "affine_sqrt", "sqrt", "neg_nlogn", "square", "log",
                              "neg_inf_from", "table", "cube"])},
    optional={"params": PARAMS},
)
SCHEDULES = JUNK | st.fixed_dictionaries(
    {"rule": st.sampled_from(["constant", "ceil_power", "ceil_log", "scaled_power", "table",
                              "fancy"])},
    optional={"params": PARAMS},
)
# sizes stay small: a huge but well-typed N is a resource question, not malformed input
SIZES = JUNK | st.integers(min_value=-2, max_value=60)
FEKETE_SPECS = JUNK | _mutants(
    [
        FEKETE_SPEC,
        TABLES,
        {"sequence": {"name": "table", "params": {"values": [1.0] * 40}}, "N": 40, "stride": 8},
        {"sequence": {"name": "neg_inf_from", "params": {"start": 30, "slope": 1.0}},
         "sigma": {"rule": "ceil_power", "params": {"alpha": 0.5, "scale": 2.0}},
         "rho": {"rule": "scaled_power", "params": {"alpha": 0.5, "scale": 1.0}},
         "N": 40, "probe_N": 30, "table_N": 16},
        {"sequence": {"name": "sqrt"}, "sigma": {"rule": "ceil_log"}, "N": 40, "tol": 1e-12},
        {**FEKETE_SPEC, "sigma": SIGMA_1E30,
         "rho": {"rule": "scaled_power", "params": {"alpha": 0.5, "scale": 1e308}}},
    ],
    SIZES | SEQUENCES | SCHEDULES,
) | st.fixed_dictionaries(
    {},
    optional={"sequence": SEQUENCES, "sigma": SCHEDULES, "rho": SCHEDULES, "N": SIZES,
              "tol": JUNK, "stride": SIZES, "probe_N": SIZES, "table_N": SIZES},
)


@settings(max_examples=150, deadline=None)
@given(MEASURES)
def test_arbitrary_measure_json_exits_0_2_or_3(spec):
    with tempfile.TemporaryDirectory() as tmp:
        m = os.path.join(tmp, "m.json")
        with open(m, "w") as fh:
            json.dump(spec, fh)
        out = os.path.join(tmp, "o")
        rc = main(["sample", "--measure", m, "--N", "5", "--seed", "1", "--outdir", out])
        assert rc in (0, 2)
        assert os.path.exists(os.path.join(out, "trajectory.txt")) == (rc == 0)
        rc = main(["validate", "--file", m, "--semantic", "--outdir", out])
        assert rc in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(FEKETE_SPECS, st.sampled_from(["check", "limit", "lift"]))
def test_arbitrary_fekete_spec_exits_0_2_or_3(spec, sub):
    with tempfile.TemporaryDirectory() as tmp:
        s = os.path.join(tmp, "s.json")
        with open(s, "w") as fh:
            json.dump(spec, fh)
        assert main(["fekete", sub, "--spec", s, "--outdir", os.path.join(tmp, "o")]) in (0, 2, 3)


def _pairwise_refusal(case, tmp_path, capsys):
    """(exit code, stderr line) of one pairwise refusal at N = 6000: through the
    CLI, the line main prints; through the library, the line it would print."""
    from gapsub import GapSchedule, RealSequence, check_trajectory_subadditivity

    zero, F = ErrorSchedule.zero(), RealSequence.from_json({"name": "sqrt"})
    library = {
        "check_gapped_subadditivity": lambda: fekete.check_gapped_subadditivity(
            F, GapSchedule.zero(), zero, 6000),
        "check_trajectory_subadditivity": lambda: check_trajectory_subadditivity(
            np.zeros(6000, dtype=np.int64), IIDMeasure([0.5, 0.5]), zero, GapSchedule.zero()),
    }
    if case in library:
        with pytest.raises(errors.CapExceededError) as got:
            library[case]()
        return got.value.exit_code, f"{got.value.label}: {got.value}"
    out = tmp_path / "o"
    if case == "decouple-check":
        argv = ["decouple", "check", "--measure", write_json(tmp_path, "m.json", WORKED_SPEC),
                "--N", "6000", "--seed", "1"]
    else:
        horizon = {"sigma": {"rule": "ceil_log"}, "probe_N": 6000} if case == "fekete-lift" else {"N": 6000}
        spec = write_json(tmp_path, "s.json", {"sequence": {"name": "sqrt"}, **horizon})
        argv = ["fekete", case.split("-")[1], "--spec", spec]
    rc = main([*argv, "--outdir", str(out)])
    assert not out.exists()
    return rc, capsys.readouterr().err


PAIRWISE_REFUSALS = {
    "fekete-check": "cap: /N: pairwise check at N = 6000 exceeds cap 5000\n",
    "fekete-lift": "cap: /probe_N: pairwise check at N = 6000 exceeds cap 5000\n",
    "decouple-check": "cap: /N: pairwise check at N = 6000 exceeds cap 5000\n",
    "check_gapped_subadditivity": "cap: pairwise check at N = 6000 exceeds cap 5000",
    "check_trajectory_subadditivity": "cap: pairwise check at N = 6000 exceeds cap 5000",
}


@pytest.mark.parametrize("case", list(PAIRWISE_REFUSALS))
def test_every_pairwise_refusal_is_one_rule(case, tmp_path, capsys, monkeypatch):
    """fekete.check_pairwise_horizon is the one budget of every split check:
    each front end exits 4 with its message, the CLI pointing it at its
    horizon key, before a path is drawn or any value is evaluated."""
    from gapsub import measures, schedules

    def evaluated(*args, **kwargs):
        raise AssertionError("a value was evaluated before the pairwise refusal")

    monkeypatch.setattr(cli, "sample_trajectory", evaluated)
    monkeypatch.setattr(schedules._Schedule, "values", evaluated)
    monkeypatch.setattr(measures.ShiftMeasure, "windows", evaluated)
    assert _pairwise_refusal(case, tmp_path, capsys) == (4, PAIRWISE_REFUSALS[case])
