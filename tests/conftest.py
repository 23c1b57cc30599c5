"""Shared test helpers and hooks.

The module-scoped ``store``, ``lexicon`` and ``tree`` fixtures load the
bundled data once per test module, so each module has its own memos.
``args_for`` builds a clause over the bundled ``entity`` domain,
``bundled_clauses`` the 162 clauses of the bundled corpus files, and
``matched_slots`` states which of a candidate's slots a score reads.
``child_env`` lets a test start ``python -m lexsel`` from a checkout
where the package is not installed, and ``load_lexbench`` imports a
benchmark module from ``lexbench/``.

pytest captures file descriptors, so the acceptance tests cannot reliably
print while running; they record one verdict line each and the terminal
summary prints the full list after the run.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from lexsel import (
    ArgumentStructure,
    InterRep,
    ProjectionSlot,
    Role,
    SlotStatus,
    VerbSense,
    load_corpus,
    resolve_clause,
    to_argument_structure,
)
from lexsel.bundled import (
    CORPUS_FILE,
    COUNTS_FILE,
    bundled_text,
    load_bundled_lexicon,
    load_bundled_store,
    load_bundled_tree,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
DATA = os.path.join(SRC, "lexsel", "data")  # the bundled data files
LEXBENCH = ROOT / "lexbench"


def child_env() -> dict[str, str]:
    """This process's environment with ``src`` first on the child's ``PYTHONPATH``."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def load_lexbench(name: str):
    spec = importlib.util.spec_from_file_location(f"lexbench_{name}", LEXBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def store():
    return load_bundled_store()


@pytest.fixture(scope="module")
def lexicon(store):
    return load_bundled_lexicon(store)


@pytest.fixture(scope="module")
def tree(store, lexicon):
    return load_bundled_tree(store, lexicon.nominal_domain)


def args_for(store, lexeme="break", markers=(), **mentions) -> ArgumentStructure:
    """A clause over the bundled nominal domain: ``args_for(store, e1="vase-1")``."""
    pairs = [(Role[role.upper()], mention) for role, mention in mentions.items()]
    return resolve_clause(store, "entity", lexeme, pairs, markers)


def matched_slots(inter_rep: InterRep, sense: VerbSense) -> dict[str, ProjectionSlot]:
    """The slots a candidate sense is scored on, stated apart from the matcher:
    every OBL slot, and an OPT slot whose domain the clause meaning realizes."""
    return {
        domain: slot
        for domain, slot in sense.projection.items()
        if slot.status == SlotStatus.OBL
        or (slot.status == SlotStatus.OPT and domain in inter_rep.slots)
    }


def bundled_clauses(store, lexicon) -> list[ArgumentStructure]:
    """The clauses of the bundled gold corpus, then of the bundled counts file."""
    return [
        to_argument_structure(record, store, lexicon.nominal_domain)
        for name in (CORPUS_FILE, COUNTS_FILE)
        for record in load_corpus(bundled_text(name)).records
    ]


ACCEPTANCE_CRITERIA = [
    "concept-similarity-matches-brute-force",
    "concept-similarity-fixed-values",
    "near-synonym-ranking-for-branch",
    "worked-translation-suite",
    "action-tree-promotes-only-within-ties",
    "bundled-corpus-accuracy",
    "frequency-table-fixture",
    "cli-determinism",
    "paper-comparison",
    "graded-word-similarity",
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
