"""The README's examples run on the bundled data and print what they say."""

import re
import shlex
from pathlib import Path

import pytest

from lexsel import cli

README = Path(__file__).resolve().parents[1] / "README.md"
CUT = "  ..."  # a comment ending so shows only the start of its output line


def code_block(heading: str, lang: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """Each ``lexsel`` line of the CLI block, with the ``# `` lines under it."""
    examples: list[tuple[list[str], list[str]]] = []
    for line in code_block("## CLI", "sh").splitlines():
        if line.startswith("lexsel "):
            examples.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


def test_quick_start_prints_its_comments(capsys):
    exec(compile(code_block("## Quick start (library)", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "zhe-duan",
        "9/10 1",
        "action:%bend-action",
        "causation 1/2 1",
        "ch-of-state 1/2 4/5",
    ]


EXAMPLES = cli_examples()


def test_cli_block_has_examples():
    assert len(EXAMPLES) == 6
    assert sum(len(shown) for _, shown in EXAMPLES) == 5


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_cli_example_prints_its_comments(capsys, argv, shown):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) >= len(shown)
    for comment, line in zip(shown, out):
        if comment.endswith(CUT):
            assert line.startswith(comment[: -len(CUT)])
        else:
            assert line == comment
