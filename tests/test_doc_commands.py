"""The CLI commands the docs show must parse with today's ``build_parser()``.

Nothing is executed: each documented command line is split with shlex
(``#`` comments stripped, the line cut at the first shell operator) and
handed to argparse.  A doc that still names a removed command or flag fails
here.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
VERIFY_SKILL = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_INLINE = re.compile(r"`([^`]+)`")
_SHELL_OPERATORS = {"&", "&&", "|", "||", ";"}


def _cli_argv(command: str) -> list[str] | None:
    """The argv after ``repro`` / ``python -m repro``, or None for other commands."""
    tokens = shlex.split(command, comments=True)
    while tokens and re.fullmatch(r"[A-Z_]+=\S*", tokens[0]):
        tokens.pop(0)  # leading environment assignments (PYTHONPATH=src)
    for index, token in enumerate(tokens):
        if token in _SHELL_OPERATORS or token.startswith((">", "2>")):
            tokens = tokens[:index]
            break
    if tokens[:1] == ["repro"]:
        return tokens[1:]
    if len(tokens) >= 3 and tokens[0].startswith("python") \
            and tokens[1:3] == ["-m", "repro"]:
        return tokens[3:]
    return None


def _fenced_commands(text: str) -> list[str]:
    commands = []
    for block in _FENCE.findall(text):
        # Join backslash continuations into one logical line.
        for line in block.replace("\\\n", " ").splitlines():
            if _cli_argv(line) is not None:
                commands.append(line.strip())
    return commands


def _inline_commands(text: str) -> list[str]:
    prose = _FENCE.sub("", text)
    return [" ".join(span.split()) for span in _INLINE.findall(prose)
            if span.startswith("python -m repro ")]


def _unparseable(commands: list[str]) -> list[str]:
    failures = []
    for command in commands:
        try:
            build_parser().parse_args(_cli_argv(command))
        except SystemExit as exc:
            if exc.code != 0:  # `--help` exits 0
                failures.append(command)
    return failures


def test_readme_commands_parse(capsys):
    commands = _fenced_commands(README.read_text(encoding="utf-8"))
    assert len(commands) >= 15, commands  # the extractor still finds them
    assert _unparseable(commands) == []
    capsys.readouterr()


@pytest.mark.skipif(not VERIFY_SKILL.exists(), reason="no verify skill notes")
def test_verify_skill_commands_parse(capsys):
    text = VERIFY_SKILL.read_text(encoding="utf-8")
    commands = _fenced_commands(text) + _inline_commands(text)
    assert len(commands) >= 8, commands
    assert _unparseable(commands) == []
    capsys.readouterr()


def test_removed_command_is_caught(capsys):
    # The check bites: a doc line naming a removed command fails to parse.
    text = "```bash\nrepro enumerate -d ca-grqc   # gone\nrepro query -d ca-grqc\n```\n"
    assert _unparseable(_fenced_commands(text)) == ["repro enumerate -d ca-grqc   # gone"]
    capsys.readouterr()
