"""The README's examples run as written: the library example prints what it
says, and the sequence spec serves every fekete subcommand."""
from __future__ import annotations

import re
from pathlib import Path

from gapsub.cli import main

from conftest import WORKED_H

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), "README.md", "exec"), {})
    rate, h = (float(v) for v in capsys.readouterr().out.split())
    assert abs(h - WORKED_H) < 1e-15
    assert abs(rate - h) < 0.01


def test_sequence_spec_serves_every_fekete_subcommand(tmp_path):
    """The one spec file of the README runs check, limit and lift."""
    section = README.read_text().split("Deterministic sequences use a spec file", 1)[1]
    spec = tmp_path / "seq.json"
    spec.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    for sub in ("check", "limit", "lift"):
        assert main(["fekete", sub, "--spec", str(spec), "--outdir", str(tmp_path / sub)]) == 0
