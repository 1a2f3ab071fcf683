"""Every name a module imports is used in that module.

Each module of ``src/cayleymaps`` is parsed with ``ast``; an imported name
counts as used when it is read anywhere in the module (annotations
included) or listed in ``__all__``, which covers the package's
re-exports.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cayleymaps"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_module_is_scanned():
    assert {"__init__.py", "cli.py", "special.py", "autaction.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_scan_finds_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .rotations import DartStructure, realize\n"
        "__all__ = ['np']\n"
        "def f(x: int) -> int:\n"
        "    return realize(x)\n"
    )
    assert unused_imports(source) == ["DartStructure (line 3)"]
