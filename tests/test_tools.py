"""tools/artifact_digests.py, on which every same-bytes comparison of two
checkouts rests: it runs, and prints one digest per file an operation writes."""
from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

from gapsub import cli

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(11/[\w-]+/[\w-]+)/([\w.]+) [0-9a-f]{64}")


def test_artifact_digests_prints_one_line_per_written_file(monkeypatch, capsys):
    """At seed 11 the tool prints 39 lines, and each operation's files are its
    manifest's outputs plus manifest.json; nothing is written under bench/."""
    bench = sorted((ROOT / "bench").rglob("*"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    tool = runpy.run_path(str(ROOT / "tools" / "artifact_digests.py"))
    manifests, run = [], cli.run

    def recorded(config, out):
        manifests.append(run(config, out))
        return manifests[-1]

    monkeypatch.setattr(cli, "run", recorded)
    tool["main"]([11])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 39
    files: dict[str, list[str]] = {}
    for line in lines:
        operation, name = LINE.fullmatch(line).groups()
        files.setdefault(operation, []).append(name)
    assert len(files) == len(manifests)
    for names, manifest in zip(files.values(), manifests):
        assert names == sorted([*manifest["outputs"], "manifest.json"])
    assert sorted((ROOT / "bench").rglob("*")) == bench
