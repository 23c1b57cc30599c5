"""Every name a module imports is used in that module, every private name is
read, every exported name is read outside the tests, and a cold start stays lean."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexsel
from conftest import LEXBENCH, ROOT, child_env

PACKAGE = Path(lexsel.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def _reads(source: str) -> tuple[set[str], set[str]]:
    """The names a module's statements load that they do not bind themselves, and
    the names it imports or takes as attributes."""
    loads, elsewhere = set(), set()
    for statement in ast.parse(source).body:
        bound = _bound(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in bound:
                    loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                elsewhere.update(alias.name for alias in node.names)
    return loads, elsewhere


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_x`` names (dunders aside) that no code in ``sources`` reads.

    A name is read where another statement of its module loads it, where any
    module imports it, or where any code takes an attribute of that name.
    """
    private, loads, elsewhere = [], {}, set()
    for module, source in sources.items():
        private += [
            (module, name)
            for statement in ast.parse(source).body
            for name in sorted(_bound(statement))
            if name.startswith("_") and not name.endswith("__")
        ]
        loads[module], imported = _reads(source)
        elsewhere |= imported
    return [
        f"{module}: {name}"
        for module, name in private
        if name not in loads[module] and name not in elsewhere
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


def unread_exports(exported: list[str], sources: list[str]) -> list[str]:
    """The names of ``exported`` that no code in ``sources`` reads, as ``_reads`` has it."""
    read = set()
    for source in sources:
        read.update(*_reads(source))
    return [name for name in exported if name not in read]


def test_every_exported_name_is_read_outside_the_tests():
    """Each name ``lexsel`` exports is read by a package module other than ``__init__``
    (its own definition aside), by the benchmark, or by a README code block."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [
        *(path.read_text(encoding="utf-8") for path in MODULES),
        *(path.read_text(encoding="utf-8") for path in LEXBENCH.glob("*.py")),
        *re.findall(r"```python\n(.*?)```", readme, re.S),
    ]
    assert len(exported) > 50
    assert unread_exports(exported, sources) == []


def test_finds_an_unread_export():
    sources = [
        "def f():\n    return f()\nclass C:\n    x: 'D'\n",
        "from a import g\nimport a\nprint(a.h, E)\n",
    ]
    assert unread_exports(["f", "C", "D", "g", "h", "E"], sources) == ["f", "C", "D"]


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
