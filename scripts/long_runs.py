"""One-off timings of long ``cayleymaps`` runs, each in a fresh interpreter.

    python3 scripts/long_runs.py                                   # the default list
    python3 scripts/long_runs.py "sym-grr 60 --surface O --mode log2" "sym-grr 50 --surface O --mode log2"
    python3 scripts/long_runs.py --src ../other-checkout/src       # another checkout's code

Each argument is one ``cayleymaps`` command line.  ``{inputs}`` in it
stands for a temporary directory of input files, each written only when
a command line names it: ``z18.group`` and ``z18.cayset`` (the cyclic
group Z_18 and the connection set {1, 9, 17}), ``d800.group``,
``d2520.group`` and ``d5040.group`` (the dihedral groups of order 800,
2520 and 5040, numbered as ``named_group("dihedral", n)`` numbers them;
29 MB and 121 MB for the two larger), and ``d800.cayset`` ({r, r^-1, s} =
{1, 399, 400}: order 800 is just under the census cap of order 812).  The
command runs as ``python -m cayleymaps.cli`` with ``--src`` (default:
this checkout's ``src``) first on ``PYTHONPATH``.  Its stdout is hashed as it streams and
never held, and one line is printed per command: exit code, wall seconds
from start to exit, the child's own peak resident set (``ru_maxrss``),
and the stdout byte count and SHA-256.  These runs take seconds each and
are not a workload of ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def write_text(text: str):
    return lambda path: Path(path).write_text(text)


def write_dihedral(order: int):
    """The table of D_order written one row at a time: r^i is element i and
    r^i s is m + i, with m = order / 2."""
    m = order // 2
    rot, ref = [str(i) for i in range(m)], [str(m + i) for i in range(m)]

    def write(path):
        with open(path, "w") as f:
            f.write(f"group {order}\n")
            for i in range(m):  # r^i r^j = r^(i+j), r^i r^j s = r^(i+j) s
                f.write(" ".join(rot[i:] + rot[:i] + ref[i:] + ref[:i]) + "\n")
            for i in range(m):  # r^i s r^j = r^(i-j) s, r^i s r^j s = r^(i-j)
                f.write(" ".join(ref[i::-1] + ref[:i:-1] + rot[i::-1] + rot[:i:-1]) + "\n")
    return write


INPUTS = {
    # Cay(Z_18 : {1, 9, 17}) has 2^18 rotation systems: the oracle realizes,
    # checks and labels every one of them
    "z18.group": write_text("group 18\n" + "".join(
        " ".join(str((g + t) % 18) for t in range(18)) + "\n" for g in range(18))),
    "z18.cayset": write_text("cayset 3\n1 9 17\n"),
    # the largest dihedral census under perm.DEFAULT_TABLE_CAP: per-class
    # statistics of R(G) on 800 vertices
    "d800.group": write_dihedral(800),
    "d800.cayset": write_text("cayset 3\n1 399 400\n"),
    # group files near the order cap: reading and validating the table is the run
    "d2520.group": write_dihedral(2520),
    "d5040.group": write_dihedral(5040),
}
DEFAULT_RUNS = [
    "sym-grr 60 --surface O --mode log2",
    "sym-grr 55 --surface L --mode log2",
    "census oracle {inputs}/z18.group {inputs}/z18.cayset --semantics dart --surface L --acting rg",
    "group check {inputs}/d2520.group",
    "census formula {inputs}/d800.group {inputs}/d800.cayset --surface L",
]
READ_BYTES = 1 << 20


def run(line: str, inputs: str, src: Path) -> str:
    argv = [arg.replace("{inputs}", inputs) for arg in shlex.split(line)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "cayleymaps.cli", *argv],
                            stdout=subprocess.PIPE, env=env)
    with proc.stdout:
        while block := proc.stdout.read(READ_BYTES):
            digest.update(block)
            size += len(block)
    # wait4 reports this child's own rusage, not the sum over all children
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (f"exit={proc.returncode} wall_s={wall:.3f} maxrss_mb={usage.ru_maxrss / 1024:.1f} "
            f"stdout_bytes={size} sha256={digest.hexdigest()} argv={line}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", nargs="*", default=DEFAULT_RUNS, metavar="COMMAND",
                   help="one cayleymaps command line, quoted")
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                   help="the directory holding the cayleymaps package")
    args = p.parse_args()
    if not (args.src / "cayleymaps" / "cli.py").is_file():
        raise SystemExit(f"long_runs.py: no cayleymaps sources under {args.src}")
    with tempfile.TemporaryDirectory() as inputs:
        for name, write in INPUTS.items():
            if any(f"{{inputs}}/{name}" in line for line in args.runs):
                write(Path(inputs, name))
        for line in args.runs:
            print(run(line, inputs, args.src.resolve()), flush=True)


if __name__ == "__main__":
    main()
