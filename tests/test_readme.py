"""The README's library quickstart and CLI examples run as written against
the package, its scenario table lists the shipped configs, and its output
schema quotes the headers the package writes."""

import re
import shlex
from pathlib import Path

from totsim import cli, scenarios
from totsim.experiment import SummaryRow
from totsim.output import columns, record_columns

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_code() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README quickstart has no python block"
    return match.group(1)


def test_quickstart_runs(capsys):
    exec(compile(quickstart_code(), str(README), "exec"), {"__name__": "quickstart"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] in ("True", "False")
    assert len(lines) > 1 and all(line.startswith("d=") for line in lines[1:])


def test_scenario_table_lists_the_shipped_scenarios():
    section = README.read_text().split("## Scenario library", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", section, re.M) == scenarios.names()


def test_output_schema_quotes_the_written_headers():
    section = README.read_text().split("## Output schema", 1)[1].split("\n## ", 1)[0]
    records, summary = re.findall(r"```\n(.*?)\n```", section, re.S)
    # The header of a lexicon that declares no slot; the README says where
    # slot columns go.
    assert records == ",".join(name for name, _, _ in record_columns(()))
    # The slot columns follow these, one per slot the lexicon declares.
    assert summary == ",".join(name for name, _, _ in columns(SummaryRow, ()))


def cli_examples() -> dict[str, list[str]]:
    """The README's `totsim <command> ...` lines as argument lists, by command."""
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("totsim ")]
    return {argv[0]: argv for argv in argvs}


def test_cli_examples_run(monkeypatch, capsys):
    monkeypatch.chdir(README.parent)  # the examples name configs/ relative to the checkout
    examples = cli_examples()
    assert cli.main(examples["validate"]) == 0
    capsys.readouterr()
    assert cli.main(examples["oracle"]) == 0
    # The oracle bullet quotes what the oracle example prints.
    quoted = re.search(r"e\.g\. `(\d+/\d+ = [\d.]+)`", README.read_text()).group(1)
    assert quoted == "57/64 = 0.890625"
    assert capsys.readouterr().out.strip() == quoted
