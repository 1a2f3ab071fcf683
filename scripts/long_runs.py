"""One-off timings of long ``cayleymaps`` runs, each in a fresh interpreter.

    python3 scripts/long_runs.py                                   # the default list
    python3 scripts/long_runs.py "sym-grr 60 --surface O --mode log2" "sym-grr 50 --surface O --mode log2"
    python3 scripts/long_runs.py --src ../other-checkout/src       # another checkout's code
    python3 scripts/long_runs.py --repeat 15 --src ../parent/src --src src "sym-grr 9"  # two, alternating

Each argument is one ``cayleymaps`` command line.  ``{inputs}`` in it
stands for a temporary directory of input files, each written only when
a command line names it: ``z18.group`` and ``z18.cayset`` (the cyclic
group Z_18 and the connection set {1, 9, 17}), ``d800.group``,
``d2520.group`` and ``d5040.group`` (the dihedral groups of order 800,
2520 and 5040, numbered as ``named_group("dihedral", n)`` numbers them;
29 MB and 121 MB for the two larger), ``d800.cayset`` and ``d5040.cayset``
({r, r^-1, s}), ``z5040.group`` and ``z5040.cayset`` (Z_5040 and
{1, 2, 5038, 5039}), and ``s7.group`` and ``s7.cayset`` (S_7 as
``save_group(named_group("symmetric", 7))`` writes it with the package
under ``--src``, unnamed, and
{(0 1 2)(4 5 6), its inverse, (0 3)(1 6)(2 5)}).  The command runs as
``python -m cayleymaps.cli`` with ``--src`` (default: this checkout's
``src``) first on ``PYTHONPATH``.  Its stdout is hashed as it streams and
never held, and one line is printed per run: exit code, wall seconds
from start to exit, the child's own peak resident set (``ru_maxrss``),
and the stdout byte count and SHA-256.  These runs take seconds each and
are not a workload of ``perfbench/``.

``--repeat N`` runs the command list N times, round-robin, and ``--src``
may be given more than once: every command then runs under each checkout
in turn, the first of them alternating from round to round, so that host
drift falls on all of them alike.  After the last round one summary line
per command and checkout gives the median and quartiles of its wall
seconds next to the fields of its last run.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import statistics
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


def write_cyclic(order: int):
    """The table of Z_order written one row at a time: row g is g + t."""
    elements = [str(i) for i in range(order)]

    def write(path):
        with open(path, "w") as f:
            f.write(f"group {order}\n")
            for g in range(order):
                f.write(" ".join(elements[g:] + elements[:g]) + "\n")
    return write


def write_named(kind: str, order: int):
    """The file ``save_group(named_group(kind, order))`` writes, in a child
    interpreter: a group this script built itself would stay in its own
    resident set, which every command it starts later would then report."""

    def write(path):
        subprocess.run([sys.executable, "-c", SAVE_NAMED, kind, str(order), str(path)], check=True)
    return write


SAVE_NAMED = """import sys
from cayleymaps import named_group
from cayleymaps.fileio import save_group
save_group(named_group(sys.argv[1], int(sys.argv[2])), sys.argv[3])
"""


INPUTS = {
    # Cay(Z_18 : {1, 9, 17}) has 2^18 rotation systems: the oracle realizes,
    # checks and labels every one of them
    "z18.group": write_cyclic(18),
    "z18.cayset": write_text("cayset 3\n1 9 17\n"),
    # per-class statistics of R(G) on 800 vertices
    "d800.group": write_dihedral(800),
    "d800.cayset": write_text("cayset 3\n1 399 400\n"),
    # group files near the order cap: reading and validating the table is
    # most of a group check or an H = 1 census
    "d2520.group": write_dihedral(2520),
    "d5040.group": write_dihedral(5040),
    "d5040.cayset": write_text("cayset 3\n1 2519 2520\n"),
    # 5040 classes of one element each
    "z5040.group": write_cyclic(5040),
    "z5040.cayset": write_text("cayset 4\n1 2 5038 5039\n"),
    # S_7 is searched as permutations of 7 points: about 20 s to build
    "s7.group": write_named("symmetric", 7),
    "s7.cayset": write_text("cayset 3\n843 1444 2861\n"),
}
DEFAULT_RUNS = [
    "sym-grr 60 --surface O --mode log2",
    "sym-grr 55 --surface L --mode log2",
    "census oracle {inputs}/z18.group {inputs}/z18.cayset --semantics dart --surface L --acting rg",
    "group check {inputs}/d2520.group",
    "census formula {inputs}/d800.group {inputs}/d800.cayset --surface L",
    "census formula {inputs}/d5040.group {inputs}/d5040.cayset --surface O",
    "census formula {inputs}/z5040.group {inputs}/z5040.cayset --surface O",
]
READ_BYTES = 1 << 20


def run(line: str, inputs: str, src: str) -> tuple[float, str]:
    """Runs one command line with the package under ``src``; its wall
    seconds and its report line."""
    argv = [arg.replace("{inputs}", inputs) for arg in shlex.split(line)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
    return wall, (f"exit={proc.returncode} wall_s={wall:.3f} maxrss_mb={usage.ru_maxrss / 1024:.1f} "
                  f"stdout_bytes={size} sha256={digest.hexdigest()} argv={line}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", nargs="*", default=DEFAULT_RUNS, metavar="COMMAND",
                   help="one cayleymaps command line, quoted")
    p.add_argument("--src", type=Path, action="append",
                   help="the directory holding the cayleymaps package (default: this "
                        "checkout's src); given twice or more, the checkouts alternate")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="run the command list N times, round-robin")
    args = p.parse_args()
    if args.repeat < 1:
        raise SystemExit("long_runs.py: --repeat must be at least 1")
    srcs = args.src or [Path(__file__).resolve().parent.parent / "src"]
    for src in srcs:
        if not (src / "cayleymaps" / "cli.py").is_file():
            raise SystemExit(f"long_runs.py: no cayleymaps sources under {src}")
    srcs = [str(src.resolve()) for src in srcs]
    tag = {src: f"src={src} " if len(srcs) > 1 else "" for src in srcs}
    walls = {(line, src): [] for line in args.runs for src in srcs}
    last = {}
    # the group files are written by the first checkout's package
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [srcs[0], os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as inputs:
        for name, write in INPUTS.items():
            if any(f"{{inputs}}/{name}" in line for line in args.runs):
                write(Path(inputs, name))
        for r in range(args.repeat):
            for line in args.runs:
                for src in srcs[r % len(srcs):] + srcs[:r % len(srcs)]:
                    wall, last[line, src] = run(line, inputs, src)
                    walls[line, src].append(wall)
                    print(tag[src] + last[line, src], flush=True)
    if args.repeat > 1:
        for (line, src), values in walls.items():
            q1, median, q3 = quartiles(values)
            print(f"{tag[src]}runs={len(values)} wall_s_median={median:.3f} "
                  f"wall_s_q1={q1:.3f} wall_s_q3={q3:.3f} last: {last[line, src]}", flush=True)


if __name__ == "__main__":
    main()
