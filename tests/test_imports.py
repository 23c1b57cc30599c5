"""Every name a module imports is used in that module, and a cold start stays lean."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import lexsel
from conftest import child_env

MODULES = sorted(p for p in Path(lexsel.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json, sys\nfrom os import path\nsys.exit\n"
    assert unused_imports(source) == ["line 2: json", "line 3: path"]


# each adds milliseconds to a cold start: ``dataclasses`` pulls in ``inspect`` (and
# ``ast`` and ``dis``), and ``pathlib`` pulls in ``urllib.parse``
HEAVY = ("dataclasses", "inspect", "pathlib")


def test_cold_cli_import_loads_no_heavy_module():
    probe = f"import sys, lexsel.cli; print(*[m for m in {HEAVY} if m in sys.modules])"
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []
