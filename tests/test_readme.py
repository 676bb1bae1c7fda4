"""The README's command examples stay in step with the CLI.

A flag deleted from a subcommand but left in the docs fails here.
"""

import re
from pathlib import Path

import pytest

from cdcov.cli import SCHEMAS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """Each ``cdcov ...`` command of README's ``sh`` blocks, continuation lines joined, as tokens."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.split() for line in lines if line.startswith("cdcov ")]


def test_readme_commands_name_known_subcommands():
    commands = _readme_commands()
    assert commands
    assert {c[1] for c in commands} <= set(SCHEMAS)


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_readme_flags_are_flags_of_their_subcommand(command, capsys):
    assert main([command, "--help"]) == 0
    known = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    used = {t for c in _readme_commands() if c[1] == command for t in c[2:] if t.startswith("--")}
    assert used - known == set()
