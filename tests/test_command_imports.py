"""Each command loads only the modules it runs, and the package's lazy
re-exports are the objects their modules define.

Every check runs in a fresh interpreter, since this test process has long
since imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("cayleymaps", "mpmath") and m != "cayleymaps")))
"""


def fresh(code: str) -> list:
    """The JSON value the last line of ``code``'s stdout prints, run in a
    fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_only_the_cli_and_errors():
    assert fresh("import cayleymaps.cli\n" + LOADED) == ["cayleymaps.cli", "cayleymaps.errors"]


@pytest.mark.parametrize("argv", [
    ["sym-grr", "9", "--surface", "O", "--mode", "modp:1000003"],
    ["census", "formula", "fixtures:CUBE", "--surface", "O", "--mode", "modp:1000003"],
])
def test_a_modp_closed_form_loads_no_mpmath_oracle_or_maps(argv):
    code = (
        "import contextlib, io\n"
        "from cayleymaps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n" + LOADED
    )
    loaded = fresh(code)
    assert "cayleymaps.formulas" in loaded
    assert {"mpmath", "cayleymaps.oracle", "cayleymaps.maps"}.isdisjoint(loaded)


def test_every_re_export_is_its_modules_object():
    code = (
        "import importlib, json, cayleymaps\n"
        "names = sorted(cayleymaps.__all__)\n"
        "same = [getattr(cayleymaps, n) is getattr(importlib.import_module("
        "'cayleymaps.' + cayleymaps._EXPORTS[n]), n) for n in names]\n"
        "star = {}\n"
        "exec('from cayleymaps import *', star)\n"
        "print(json.dumps([names, sorted(cayleymaps._EXPORTS), same, sorted(set(star) - {'__builtins__'})]))\n"
    )
    names, exported, same, star = fresh(code)
    assert len(names) == 28 and names == exported == star
    assert all(same)
