"""Every command in the README's CLI block runs, and the answers its comments
state are what the commands print."""
import shlex
from pathlib import Path

import pytest

from sswilf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# command -> the answer its README comment starts with
ANSWERS = {
    "count s --n 10": "1490564",
    "prefixes --i 2 --n 5": "21 24 42 45",
    "prefixes --i 1 --n 11 --limit 11": "1 11",
}


def cli_block() -> list[tuple[str, str]]:
    """(command, comment) for each ``wilf`` line of the block under "## CLI"."""
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = text.split("```\n", 2)[1]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        assert words[0] == "wilf", line
        lines.append((shlex.join(words[1:]), comment.strip()))
    return lines


COMMANDS = cli_block()


def test_block_holds_the_stated_answers():
    assert set(ANSWERS) <= {command for command, _ in COMMANDS}


@pytest.mark.parametrize("command, comment", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_runs(capsys, command, comment):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    if command in ANSWERS:
        assert comment.startswith(ANSWERS[command])
        assert " ".join(out.split()) == ANSWERS[command]
