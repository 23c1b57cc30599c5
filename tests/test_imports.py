"""Every name a module imports is used in that module, every private name is
read, and a cold start stays lean."""

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


def _bound(statement: ast.stmt) -> set[str]:
    """The names a module-level function, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    if isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return {
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    }


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_x`` names (dunders aside) that no code in ``sources`` reads.

    A name is read where another statement of its module loads it, where any
    module imports it, or where any code takes an attribute of that name.
    """
    private, loads, elsewhere = [], set(), set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            bound = _bound(statement)
            private += [
                (module, name)
                for name in sorted(bound)
                if name.startswith("_") and not name.endswith("__")
            ]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id not in bound:
                        loads.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    elsewhere.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    elsewhere.update(alias.name for alias in node.names)
    return [
        f"{module}: {name}"
        for module, name in private
        if (module, name) not in loads and name not in elsewhere
    ]


def test_every_private_name_is_read():
    package = Path(lexsel.__file__).parent.glob("*.py")
    sources = {path.name: path.read_text(encoding="utf-8") for path in package}
    assert unread_private_names(sources) == []


def test_finds_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _f()\n"
                "class _C:\n    pass\n",
        "b.py": "from .a import _A\nimport a\n_D, _E = a._B, _A\nprint(_E)\n",
    }
    assert unread_private_names(sources) == ["a.py: _f", "a.py: _C", "b.py: _D"]


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
