"""The README's library example runs as written, and its commands parse."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from robsim.cli import build_parser

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


def readme_commands() -> list[list[str]]:
    """Each `robsim ...` command of the README's sh blocks, continuations
    joined, split into words without the program name."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "robsim":
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "sim", "analyze"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except Exception as exc:  # the parser raises on a usage error
            pytest.fail(f"README: robsim {shlex.join(argv)}: {exc}")
