"""The README's library example runs as written, its commands parse and its
config loads; the CSV schema doc lists the columns the code writes."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest
import yaml

from robsim.analysis import dump_analysis
from robsim.cli import build_parser
from robsim.core import CSV_FIELDS
from robsim.experiment import REPORT_FIELDS, SUMMARY_FIELDS, config_from_mapping, occupancy_csv

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SCHEMAS = ROOT / "docs" / "csv_schemas.md"
ANALYSIS_REPORT = ROOT / "docs" / "analysis_report.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    reports = namespace["reports"]
    assert len(reports) == 200
    assert [r.ground_truth for r in reports] == [0] * 100 + [1] * 100
    assert all(r.inferred_secret == r.ground_truth for r in reports)
    printed = capsys.readouterr().out.split()
    assert printed == [str(reports[0].observation), str(reports[-1].observation)]


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


def test_readme_config_loads(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    config = config_from_mapping(yaml.safe_load(blocks[0]), tmp_path)
    assert config.n_trials == 1000
    assert len(config.mitigation_sets) == 2


def schema_sections() -> dict[str, str]:
    """Body of each `## ` section of the schema doc, keyed by its title."""
    sections = re.split(r"^## ", SCHEMAS.read_text(), flags=re.MULTILINE)[1:]
    return dict(section.split("\n", 1) for section in sections)


def table_columns(section: str) -> list[str]:
    """The backticked names in the first cell of each table row, in order;
    a row such as `mean_s0`, `min_s0`, `max_s0` names several columns."""
    names = []
    for line in section.splitlines():
        if line.startswith("|") and not line.startswith(("| column", "|--")):
            names += re.findall(r"`([^`]+)`", line.split("|")[1])
    return names


@pytest.mark.parametrize(
    "title, fields",
    [("Trace CSV", CSV_FIELDS), ("reports.csv", REPORT_FIELDS), ("summary.csv", SUMMARY_FIELDS)],
)
def test_schema_doc_lists_the_columns_in_order(title, fields):
    assert table_columns(schema_sections()[title]) == fields


def test_schema_doc_shows_the_occupancy_header():
    (block,) = re.findall(r"```\n(.*?)```", schema_sections()["Occupancy CSV"], re.DOTALL)
    assert block.splitlines()[0] == occupancy_csv([]).strip()


def test_analysis_doc_shows_the_report_header():
    block = re.findall(r"```\n(.*?)```", ANALYSIS_REPORT.read_text(), re.DOTALL)[0]
    assert block.splitlines()[0] == dump_analysis({}, {}).strip()
