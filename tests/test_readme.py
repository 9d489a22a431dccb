"""The README's library quickstart runs as written against the package's
top-level exports, and its scenario table lists the shipped configs."""

import re
from pathlib import Path

from totsim import scenarios

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
