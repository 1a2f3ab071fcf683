"""One-off timings of long ``cayleymaps`` runs, each in a fresh interpreter.

    python3 scripts/long_runs.py                                   # the default list
    python3 scripts/long_runs.py "sym-grr 60 --surface O --mode log2" "sym-grr 50 --surface O --mode log2"
    python3 scripts/long_runs.py --src ../other-checkout/src       # another checkout's code
    python3 scripts/long_runs.py --repeat 15 --src ../parent/src --src src "sym-grr 9"  # two, alternating
    python3 scripts/long_runs.py --check                           # the default list, outputs checked
    python3 scripts/long_runs.py --json runs.json "sym-grr 60 --surface O --mode log2"  # records kept

Each argument is one ``cayleymaps`` command line.  ``{inputs}`` in it
stands for a temporary directory of input files, each written only when
a command line names it: ``z18.group`` and ``z18.cayset`` (the cyclic
group Z_18 and the connection set {1, 9, 17}), ``z22.group`` and
``z22.cayset`` (Z_22 and {1, 11, 21}), ``z1000.group`` and
``z1000.cayset`` (Z_1000 and {1, 999}), ``d800.group``,
``d2520.group`` and ``d5040.group`` (the dihedral groups of order 800,
2520 and 5040, numbered as ``named_group("dihedral", n)`` numbers them;
29 MB and 121 MB for the two larger), ``d800.cayset`` and ``d5040.cayset``
({r, r^-1, s}), ``z5040.group``, ``z5040.cayset`` and ``z5040c.cayset``
(Z_5040, {1, 2, 5038, 5039} and {1, 5039}), ``s7.group`` and ``s7.cayset`` (S_7 as
``save_group(named_group("symmetric", 7))`` writes it with the package
under ``--src``, unnamed, and
{(0 1 2)(4 5 6), its inverse, (0 3)(1 6)(2 5)}), and ``e16.cayset`` (a
spanning set of (Z_2)^16: the 16 unit vectors and their sum).  The command runs as
``python -m cayleymaps.cli`` with ``--src`` (default: this checkout's
``src``) first on ``PYTHONPATH``.  Its stdout is hashed as it streams and
never held, and one line is printed per run: exit code, wall seconds
from start to exit, the child's own peak resident set (``ru_maxrss``),
and the stdout byte count and SHA-256.  These runs take seconds each (the
Z_22 oracle over a minute) and are not a workload of ``perfbench/``.

``--repeat N`` runs the command list N times, round-robin, and ``--src``
may be given more than once: every command then runs under each checkout
in turn, the first of them alternating from round to round, so that host
drift falls on all of them alike.  After the last round one summary line
per command and checkout gives the median and quartiles of its wall
seconds next to the fields of its last run.

``--json PATH`` writes every run as one JSON record to PATH (a list,
rewritten after each run): the command line, the checkout's ``src``
directory and source commit (``git describe --always --dirty`` there,
null outside a git checkout), the host (Python and numpy versions, CPU
count), and the run's exit code, wall seconds, ``ru_maxrss`` in KiB, and
stdout byte count and SHA-256.

``--check`` compares every run's exit code and stdout SHA-256 with those
recorded for it in ``DEFAULT_RUNS`` (a command line with no record is
refused before anything runs), and after the last run names each run that
differs and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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
    # Cay(Z_22 : {1, 11, 21}): 2^22 rotation systems, the default oracle cap
    "z22.group": write_cyclic(22),
    "z22.cayset": write_text("cayset 3\n1 11 21\n"),
    # the 1000-cycle: its automorphism search assigns 1000 vertices in turn
    "z1000.group": write_cyclic(1000),
    "z1000.cayset": write_text("cayset 2\n1 999\n"),
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
    # a cycle: 2 keys, but the lift of R(G) to its flags is over the table cap
    "z5040c.cayset": write_text("cayset 2\n1 5039\n"),
    # S_7 is searched as permutations of 7 points: about 20 s to build
    "s7.group": write_named("symmetric", 7),
    "s7.cayset": write_text("cayset 3\n843 1444 2861\n"),
    # a fixed spanning set of (Z_2)^16: the 16 unit vectors and their sum
    "e16.cayset": write_text("cayset 17\n" + " ".join(str(1 << i) for i in range(16)) + " 65535\n"),
}
# The default command lines, each with the exit code and stdout SHA-256
# that ``--check`` expects of it (recorded at commit 40600c6).
DEFAULT_RUNS = {
    "sym-grr 60 --surface O --mode log2":
        (0, "321cef2eef94be1ca89a3cb99db2064ae9845d329da60f7aa0dbc5f453af4ecd"),
    "sym-grr 55 --surface L --mode log2":
        (0, "598964b894e0a82498ba7689688b909333d6abba440fce403a26cd448f88a77d"),
    "census oracle {inputs}/z18.group {inputs}/z18.cayset --semantics dart --surface L --acting rg":
        (0, "621628788d36560c1a40f1f21d52ee2c1e157144b1401b9a20954b35da023dc7"),
    "census oracle {inputs}/z22.group {inputs}/z22.cayset --semantics dart --surface L --acting rg":
        (0, "5abffa33dac76f6bc7a396386f06aae80e65d539f274012e309328d01b81bf2e"),
    # the orientable SIGMA ground set of Z_18, capped by its own 2^18 keys;
    # after the surface and semantics lines its stdout is the dart run's
    "census oracle {inputs}/z18.group {inputs}/z18.cayset --semantics sigma --surface O --acting rg":
        (0, "0ee1f4f97943ff6004b63352f269555399d1af9c584dcf19d3bc519e5504eb88"),
    "group check {inputs}/d2520.group":
        (0, "f164a53b1187fc7437f8271ce71b9cdd5ee4a631dc9b75626e7ee4652a763215"),
    "census formula {inputs}/d800.group {inputs}/d800.cayset --surface L":
        (0, "dda3e04ff0e6182850e525ecb768d3590b006705681404db5c16e15c90c64627"),
    "census formula {inputs}/d5040.group {inputs}/d5040.cayset --surface O":
        (0, "4052757677b97ceb4a29a84ced8db4df06d74d80b83673394fbd950b46acaa40"),
    "census formula {inputs}/z5040.group {inputs}/z5040.cayset --surface O":
        (0, "1bc97df499e7b3a33a2445eb6fc11bb2fc9222140b703de3f088f18910ff6b6c"),
    # the remaining censuses at the order cap (recorded at commit 8543a45)
    "census formula {inputs}/d5040.group {inputs}/d5040.cayset --surface L":
        (0, "eed0571051a5c56fbd8837a589e1a439d77a9398ba418ada5cbf461d36b4f57d"),
    "census formula {inputs}/s7.group {inputs}/s7.cayset --surface O":
        (0, "104195e096e7626aff09a5ecb1fe93d2822a1c4627fda720402b688987d3ef43"),
    "census formula {inputs}/s7.group {inputs}/s7.cayset --surface L":
        (0, "7229d11fe5a73fcf9ebde3e001f056899d2863f7977b6c31fc06291a342d699e"),
    # refused by the ground-set cap (6^5040 rotation systems) and by the
    # table cap on the lift of R(G) (recorded at commit c73a1aa; the first
    # re-recorded when the bound came to follow the surface, whose own
    # bound its message now prints, not 6^5040 2^5041)
    "verify {inputs}/z5040.group {inputs}/z5040.cayset":
        (2, "d81b27753acf93ceb8c9d9abd1bf57bb89a557300354a7fb6d6f27a0692a7e22"),
    "verify {inputs}/z5040.group {inputs}/z5040c.cayset":
        (2, "0201bcf338ff1ac655946f1d1fedda31d8edbfdbb0c089f997146f3649223133"),
    # the exact-mode caps of the closed forms: about a million digits each
    # (recorded at commit 3c00adb)
    "sym-grr 10 --surface O --mode exact":
        (0, "cda4092c34b4f46b4963917c8a554ed99aa37363d48d23b2dfa7c57d6573c5b7"),
    "elem2 16 {inputs}/e16.cayset --surface L --mode exact":
        (0, "175f9eeb4d52470c7e8a9ecb2fc92cd3bdd2d3a3f98e7e5fb4387068735cd971"),
    # the automorphism search 1000 vertices deep and the decomposition of
    # its 2000 maps; the search recursed once per vertex and crashed on the
    # recursion limit (exit 1, no error token) before it kept its own stack
    "cayley check {inputs}/z1000.group {inputs}/z1000.cayset --aut-cap 1000":
        (0, "215a3a67c12d2d813654600f4e638d8cf86b689f0657038261483edc6da7db8e"),
}
READ_BYTES = 1 << 20


def run(line: str, inputs: str, src: str) -> tuple[dict, str]:
    """Runs one command line with the package under ``src``; its record
    (without the source commit and host) and its report line."""
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
    code, sha = os.waitstatus_to_exitcode(status), digest.hexdigest()
    record = {"argv": line, "src": src, "exit": code, "wall_s": wall,
              "ru_maxrss_kb": usage.ru_maxrss, "stdout_bytes": size, "sha256": sha}
    return record, (f"exit={code} wall_s={wall:.3f} maxrss_mb={usage.ru_maxrss / 1024:.1f} "
                    f"stdout_bytes={size} sha256={sha} argv={line}")


def source_commit(src: str) -> str | None:
    """``git describe --always --dirty`` in ``src``, or None outside a git
    checkout or without git."""
    try:
        proc = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host() -> dict:
    """The versions the commands run under, read without importing numpy."""
    from importlib.metadata import version

    return {"python": platform.python_version(), "numpy": version("numpy"), "cpu_count": os.cpu_count()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", nargs="*", default=list(DEFAULT_RUNS), metavar="COMMAND",
                   help="one cayleymaps command line, quoted")
    p.add_argument("--src", type=Path, action="append",
                   help="the directory holding the cayleymaps package (default: this "
                        "checkout's src); given twice or more, the checkouts alternate")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="run the command list N times, round-robin")
    p.add_argument("--check", action="store_true",
                   help="compare each run's exit code and stdout SHA-256 with DEFAULT_RUNS; "
                        "exit 1 if any differs")
    p.add_argument("--json", type=Path, metavar="PATH",
                   help="write one JSON record per run to PATH")
    args = p.parse_args()
    if args.repeat < 1:
        raise SystemExit("long_runs.py: --repeat must be at least 1")
    if args.check:
        for line in args.runs:
            if line not in DEFAULT_RUNS:
                raise SystemExit(f"long_runs.py: --check: no expected output recorded for {line!r}")
    srcs = args.src or [Path(__file__).resolve().parent.parent / "src"]
    for src in srcs:
        if not (src / "cayleymaps" / "cli.py").is_file():
            raise SystemExit(f"long_runs.py: no cayleymaps sources under {src}")
    srcs = [str(src.resolve()) for src in srcs]
    tag = {src: f"src={src} " if len(srcs) > 1 else "" for src in srcs}
    walls = {(line, src): [] for line in args.runs for src in srcs}
    last, differ, records = {}, [], []
    commits = {src: source_commit(src) for src in srcs}
    machine = host()
    # the group files are written by the first checkout's package
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [srcs[0], os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as inputs:
        for name, write in INPUTS.items():
            if any(f"{{inputs}}/{name}" in line for line in args.runs):
                write(Path(inputs, name))
        for r in range(args.repeat):
            for line in args.runs:
                for src in srcs[r % len(srcs):] + srcs[:r % len(srcs)]:
                    record, last[line, src] = run(line, inputs, src)
                    walls[line, src].append(record["wall_s"])
                    print(tag[src] + last[line, src], flush=True)
                    if args.check and (record["exit"], record["sha256"]) != DEFAULT_RUNS[line]:
                        differ.append(tag[src] + last[line, src])
                    if args.json is not None:
                        records.append(dict(record, commit=commits[src], host=machine))
                        args.json.write_text(json.dumps(records, indent=1) + "\n")
    if args.repeat > 1:
        for (line, src), values in walls.items():
            q1, median, q3 = quartiles(values)
            print(f"{tag[src]}runs={len(values)} wall_s_median={median:.3f} "
                  f"wall_s_q1={q1:.3f} wall_s_q3={q3:.3f} last: {last[line, src]}", flush=True)
    if args.check:
        for line in differ:
            print(f"differs: {line}", flush=True)
        print(f"check: {len(differ)} of {len(args.runs) * len(srcs) * args.repeat} runs differ", flush=True)
        if differ:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
