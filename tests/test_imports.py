"""Every name a module imports is used in that module, and every name a
module defines is reached by something other than the tests.

Each module of ``src/cayleymaps`` is parsed with ``ast``; an imported name
counts as used when it is read anywhere in the module (annotations
included) or listed in ``__all__``, which covers the package's
re-exports.  ``from __future__`` imports are exempt.  A function, class
or variable defined at module level counts as reached when some file of
``src/``, ``scripts/`` or ``perfbench/`` loads it as a name or an
attribute; dunders are exempt, and so is each name of ``REACHED_BY_NAME``.
A name only the tests read is code that no command runs.

The scan works by name, not by binding: a definition counts as reached
when any reader loads any attribute of that name.  So it cannot see a
function whose name is also a common attribute: a ``perm.order`` or
``perm.semi_regular`` function would pass, since ``.order`` and
``.semi_regular`` are read all over the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cayleymaps"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
READERS = sorted(
    p for d in (ROOT / "src", ROOT / "scripts", ROOT / "perfbench") for p in d.rglob("*.py")
)
# Names reached in a way the scan cannot see, each with how.
REACHED_BY_NAME = {
    # scripts/long_runs.py imports it in SAVE_NAMED, code run by a child
    # interpreter from a string
    "fileio.save_group",
    # perfbench/test_harness.py deletes it with monkeypatch.delattr, which
    # raises if the name is missing
    "oracle.fixed_count",
}


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


def defined_names(source: str) -> dict[str, int]:
    """The functions, classes and variables a module defines at top level,
    dunders excepted, with their lines."""
    names: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node.lineno
    return {n: line for n, line in names.items() if not (n.startswith("__") and n.endswith("__"))}


def read_names(source: str) -> set[str]:
    """Every name a source loads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unread_names(modules: dict[str, str], readers: list[str], exempt=frozenset()) -> list[str]:
    read = set().union(*map(read_names, readers))
    return [
        f"{module}.{name} (line {line})"
        for module, source in sorted(modules.items())
        for name, line in defined_names(source).items()
        if name not in read and f"{module}.{name}" not in exempt
    ]


def test_every_module_level_name_is_read():
    modules = {m[:-3]: (SRC / m).read_text() for m in MODULES}
    assert unread_names(modules, [p.read_text() for p in READERS], REACHED_BY_NAME) == []


def test_the_scan_flags_a_name_only_a_test_reads():
    module = "def run():\n    return 1\ndef helper():\n    return 2\ndef kept():\n    return 3\n"
    command = "from m import run\nrun()\n"
    test = "from m import helper, run\nassert helper() + run() == 3\n"
    assert unread_names({"m": module}, [module, command]) == ["m.helper (line 3)", "m.kept (line 5)"]
    assert unread_names({"m": module}, [module, command], {"m.kept"}) == ["m.helper (line 3)"]
    assert unread_names({"m": module}, [module, command, test], {"m.kept"}) == []


def test_the_scan_finds_an_unread_name():
    module = (
        "PLUS, MINUS = 0, 1\n"
        "SIGNS = {PLUS: '+'}\n"
        "__version__ = '1'\n"
        "class Shape:\n"
        "    size: int = 0\n"
        "def area(s):\n"
        "    return s.size\n"
    )
    reader = "from m import area, MINUS\narea(MINUS)\nx.Shape = 1\n"
    assert unread_names({"m": module}, [module, reader]) == [
        "m.SIGNS (line 2)", "m.Shape (line 4)",
    ]
