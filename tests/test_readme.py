"""The README's Python examples and complete commands run against the package as it is."""

import re
import shlex
from pathlib import Path

import pytest

from bathlink.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    assert blocks
    for block in blocks:
        # pad with blank lines so a traceback points at the README's own line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def readme_commands():
    """Each ``bathlink`` command of the README's bash block, continuation lines joined.

    Commands that elide flags with ``...`` are not complete and are left out.
    """
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```bash\n(.*?)^```", text, flags=re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines
            if line.startswith("bathlink ") and "..." not in line]


COMMANDS = readme_commands()


def test_readme_has_complete_commands():
    assert {argv[1] for argv in COMMANDS} == {
        "simulate", "heatmap", "region", "steady-state", "witness"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"{k}-{argv[1]}" for k, argv in
                                                enumerate(COMMANDS)])
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the commands name their output files relative to here
    assert main(argv[1:]) == 0
    out = argv[argv.index("--out") + 1]
    assert (tmp_path / out).stat().st_size > 0
