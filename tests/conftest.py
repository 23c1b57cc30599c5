"""Shared test hooks: collect acceptance verdicts and print them last.

pytest captures file descriptors, so the acceptance tests cannot reliably
print while running; they record one verdict line each and the terminal
summary prints the full list after the run.  ``child_env`` lets a test
start ``python -m lexsel`` from a checkout where the package is not
installed.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict[str, str]:
    """This process's environment with ``src`` first on the child's ``PYTHONPATH``."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}

ACCEPTANCE_CRITERIA = [
    "concept-similarity-matches-brute-force",
    "concept-similarity-fixed-values",
    "near-synonym-ranking-for-branch",
    "worked-translation-suite",
    "action-tree-promotes-only-within-ties",
    "bundled-corpus-accuracy",
    "frequency-table-fixture",
    "cli-determinism",
]

_verdicts: dict[str, str] = {}


def record_verdict(name: str, ok: bool, detail: str = "") -> str:
    status = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPT {status} {name}{suffix}"
    _verdicts[name] = line
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for name in ACCEPTANCE_CRITERIA:
        line = _verdicts.get(name, f"ACCEPT FAIL {name} (no verdict recorded)")
        terminalreporter.write_line(line)
