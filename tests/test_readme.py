"""The README's library quick start runs on the bundled data and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "zhe-duan",
        "9/10 1",
        "action:%bend-action",
        "causation 1/2 1",
        "ch-of-state 1/2 4/5",
    ]
