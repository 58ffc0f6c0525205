"""The README's library example runs as written and prints what it says."""
from __future__ import annotations

import re
from pathlib import Path

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
