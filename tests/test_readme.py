"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    reports = namespace["reports"]
    assert len(reports) == 100
    assert all(r.inferred_secret == 1 for r in reports)
    observation, inferred = capsys.readouterr().out.split()
    assert (observation, inferred) == (str(reports[0].observation), "1")
