"""Seeded inputs for the benchmark: group tables, connection sets, job lists.

Everything here is stdlib-only and independent of ``cayleymaps``: Cayley
tables, inverse closure and the generation check are built by this module's
own code, and files are written in the package's plain-text formats
(``group <n>`` plus rows, ``cayset <k>`` plus members).

Draws are stratified.  Each workload is a fixed list of slots, and a slot
fixes the family and the size of its instance because those set the cost of
a job (ground-set size on ``oracle``, |G|^3 on ``formula``, partition count
and bit length on ``closed-form``).  The seed draws everything else: the
connection set, surfaces, modes, moduli and ``--kv``.  Nothing is filtered
on whether ``cayleymaps`` accepts an input; the only rejection is this
module's own "is a generating, inverse-closed set" test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("oracle", "formula", "closed-form")
MODULI = (1_000_003, 1_000_033, 998_244_353, 2_147_483_647)


# ---------------------------------------------------------------------------
# Groups as Cayley tables (element 0 is the identity)
# ---------------------------------------------------------------------------

def cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(order: int) -> list[list[int]]:
    """Element i + m*f stands for r^i s^f; (r^i s^f)(r^j s^g) = r^(i +- j) s^(f+g)."""
    m = order // 2
    table = [[0] * order for _ in range(order)]
    for i in range(m):
        for f in (0, 1):
            for j in range(m):
                for g in (0, 1):
                    k = (i + (j if f == 0 else -j)) % m
                    table[i + m * f][j + m * g] = k + m * (f ^ g)
    return table


def elem2_times_cyclic(a: int, m: int) -> list[list[int]]:
    """(Z_2)^a x Z_m with (v, x) encoded as v*m + x."""
    n = (1 << a) * m
    return [
        [((u // m) ^ (w // m)) * m + (u % m + w % m) % m for w in range(n)]
        for u in range(n)
    ]


def direct_product(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """(a, b) encoded as a*|B| + b."""
    nb = len(B)
    return [
        [A[a1][a2] * nb + B[b1][b2] for a2 in range(len(A)) for b2 in range(nb)]
        for a1 in range(len(A))
        for b1 in range(nb)
    ]


def inverse(table: list[list[int]], g: int) -> int:
    return table[g].index(0)


def element_order(table: list[list[int]], g: int) -> int:
    k, acc = 1, g
    while acc != 0:
        acc = table[acc][g]
        k += 1
    return k


def generates(table: list[list[int]], S) -> bool:
    """Breadth-first closure of {0} under right multiplication by S."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in S:
                y = table[x][s]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == len(table)


def inverse_closure(table: list[list[int]], S) -> tuple[int, ...]:
    return tuple(sorted(set(S) | {inverse(table, s) for s in S}))


def random_connection_set(
    rng: random.Random, table: list[list[int]], degree: int, involutions_only: bool = False
) -> tuple[int, ...]:
    """A uniformly drawn generating, inverse-closed set of the given degree."""
    n = len(table)
    invols = [g for g in range(1, n) if table[g][g] == 0]
    pairs = sorted({inverse_closure(table, [g]) for g in range(1, n) if table[g][g] != 0})
    splits = [
        (i, (degree - i) // 2)
        for i in range(degree % 2, degree + 1, 2)
        if i <= len(invols) and (degree - i) // 2 <= len(pairs)
        and not (involutions_only and i != degree)
    ]
    for _ in range(10_000):
        i, p = rng.choice(splits)
        S = inverse_closure(table, rng.sample(invols, i) + [g for pr in rng.sample(pairs, p) for g in pr])
        if len(S) == degree and generates(table, S):
            return S
    raise ValueError(f"no generating set of degree {degree} found")


@dataclass(frozen=True)
class Instance:
    """A Cayley graph Cay(G : S) as written to disk."""

    name: str
    family: str
    table: list[list[int]] = field(repr=False)
    S: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def element(self, label: str) -> int:
        """The element a CLI output label names."""
        return self.names.index(label) if self.names else int(label)

    @property
    def order(self) -> int:
        return len(self.table)


FAMILIES = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "z2xcyclic": lambda n: elem2_times_cyclic(1, n // 2),
    "z2sqxcyclic": lambda n: elem2_times_cyclic(2, n // 4),
    "dihedral30xcyclic": lambda n: direct_product(dihedral(30), cyclic(n // 30)),
}


def draw_instance(rng, name: str, families, order: int, degree: int, **kw) -> Instance:
    family = rng.choice(families)
    table = FAMILIES[family](order)
    return Instance(name, family, table, random_connection_set(rng, table, degree, **kw))


def write_group(table: list[list[int]], path: Path) -> None:
    lines = [f"group {len(table)}"] + [" ".join(map(str, row)) for row in table]
    path.write_text("\n".join(lines) + "\n")


def write_cayset(S, path: Path) -> None:
    path.write_text(f"cayset {len(S)}\n" + " ".join(map(str, S)) + "\n")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One CLI call.  ``id`` is stable across seeds; ``info`` feeds the checks."""

    id: str
    argv: tuple[str, ...]
    info: dict = field(default_factory=dict, compare=False)


@dataclass
class Plan:
    workload: str
    seed: int
    jobs: list[Job]
    instances: dict[str, Instance]


class _Planner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.plan = Plan(workload, seed, [], {})

    def add_instance(self, inst: Instance) -> list[str]:
        """Writes the pair of files; returns the CLI source arguments."""
        self.plan.instances[inst.name] = inst
        g, s = self.workdir / f"{inst.name}.grp", self.workdir / f"{inst.name}.set"
        write_group(inst.table, g)
        write_cayset(inst.S, s)
        return [str(g), str(s)]

    def job(self, id: str, argv, kv: bool | None = None, **info) -> None:
        if kv is None:
            kv = self.rng.random() < 0.3
        argv = list(argv) + (["--kv"] if kv else [])
        self.plan.jobs.append(Job(id, tuple(argv), dict(info, kv=kv)))

    def mode(self) -> str:
        m = self.rng.choice(("exact", "log2", "modp"))
        return f"modp:{self.rng.choice(MODULI)}" if m == "modp" else m


def _oracle(b: _Planner) -> None:
    # The cube: the ROADMAP's pinned values and its 8192-key sigma L run.
    cube = ["fixtures:CUBE"]
    b.job("cube-verify-O", ["verify", *cube, "--surface", "O"], check="verify", inst="CUBE", surface="O")
    b.job("cube-verify-L", ["verify", *cube, "--surface", "L"], check="verify", inst="CUBE", surface="L")
    b.job("cube-oracle-O-rg", ["census", "oracle", *cube, "--surface", "O", "--acting", "rg"],
          check="oracle", inst="CUBE", surface="O", semantics="sigma", acting="rg")
    b.job("cube-oracle-O-full", ["census", "oracle", *cube, "--surface", "O", "--acting", "full"],
          check="oracle", inst="CUBE", surface="O", semantics="sigma", acting="full")
    b.job("cube-formula-N", ["census", "formula", *cube, "--surface", "N"],
          check="formula", inst="CUBE", surface="N")
    cube_set = b.workdir / "cube-elem2.set"
    write_cayset((1, 2, 4), cube_set)
    b.job("cube-elem2-O", ["elem2", "3", str(cube_set), "--surface", "O"],
          check="elem2", n=3, S=(1, 2, 4), surface="O", mode="exact")

    # Seeded degree-3 Cayley graphs: one per vertex count.  The vertex count
    # fixes every ground-set size, so cost does not depend on the draw.
    families = ("cyclic", "dihedral", "z2xcyclic")
    slots = {
        4: [("verify", "O", "sigma", "rg"), ("oracle", "O", "sigma", "rg"), ("oracle", "L", "raw", "rg")],
        6: [("verify", "O", "sigma", "rg"), ("oracle", "O", "sigma", "rg"),
            ("oracle", "N", "sigma", "rg"), ("oracle", "L", "sigma", "rg")],
        8: [("verify", "O", "sigma", "rg"), ("oracle", "O", "sigma", "rg"), ("oracle", "L", "dart", "rg")],
    }
    for v, jobs in slots.items():
        inst = draw_instance(b.rng, f"g{v}", families, v, 3)
        src = b.add_instance(inst)
        for kind, surface, semantics, acting in jobs:
            if kind == "verify":
                b.job(f"g{v}-verify-{surface}", ["verify", *src, "--surface", surface],
                      check="verify", inst=inst.name, surface=surface)
            else:
                b.job(f"g{v}-oracle-{surface}-{semantics}-{acting}",
                      ["census", "oracle", *src, "--surface", surface,
                       "--semantics", semantics, "--acting", acting],
                      check="oracle", inst=inst.name, surface=surface,
                      semantics=semantics, acting=acting)


def _formula(b: _Planner) -> None:
    # (name, families of equal cost, order, degree, surfaces run)
    slots = [
        ("ab96", ("cyclic", "z2xcyclic", "z2sqxcyclic"), 96, 4, "ONL"),
        ("dih120", ("dihedral",), 120, 3, "ONL"),
        ("prod120", ("dihedral30xcyclic",), 120, 5, "ONL"),
        ("cyc60", ("cyclic",), 60, 3, "L"),
        ("cyc150", ("cyclic",), 150, 4, "O"),
    ]
    for name, families, order, degree, surfaces in slots:
        inst = draw_instance(b.rng, name, families, order, degree)
        src = b.add_instance(inst)
        for surface in surfaces:
            mode = b.mode()
            b.job(f"{name}-{surface}", ["census", "formula", *src, "--surface", surface, "--mode", mode],
                  check="formula", inst=name, surface=surface, mode=mode)


def _closed_form(b: _Planner) -> None:
    rng = b.rng
    # sym-grr: exact-capable sizes in all three modes; log2 sizes are fixed
    # because their cost grows with the partition count.
    for n, surface in ((9, "O"), (7, "L")):
        for mode in ("exact", "log2", f"modp:{rng.choice(MODULI)}"):
            b.job(f"sym{n}-{surface}-{mode.split(':')[0]}", ["sym-grr", str(n), "--surface", surface, "--mode", mode],
                  check="sym", n=n, surface=surface, mode=mode)
    n = rng.randint(4, 8)
    b.job("symsmall-O-exact", ["sym-grr", str(n), "--surface", "O"], check="sym", n=n, surface="O", mode="exact")
    mode = f"modp:{rng.choice(MODULI)}"
    b.job("sym10-O-modp", ["sym-grr", "10", "--surface", "O", "--mode", mode], check="sym", n=10, surface="O", mode=mode)
    # --kv multiplies the 37,338-row table of n = 40, so it is not drawn there
    b.job("sym40-O-log2", ["sym-grr", "40", "--surface", "O", "--mode", "log2"], kv=False,
          check="sym", n=40, surface="O", mode="log2")
    b.job("sym25-L-log2", ["sym-grr", "25", "--surface", "L", "--mode", "log2"],
          check="sym", n=25, surface="L", mode="log2")
    b.job("sym24-O-log2", ["sym-grr", "24", "--surface", "O", "--mode", "log2"],
          check="sym", n=24, surface="O", mode="log2")

    # elem2: a drawn spanning set of the fixed size, in every mode.
    # The surface of e14 is fixed: its term sizes, hence its cost, depend on it.
    for name, n, modes, surface in (("e14", 14, ("exact", "log2", "modp"), "L"),
                                    ("esmall", rng.randint(8, 12), ("exact", "modp"), rng.choice("ONL"))):
        k = n + 1
        S = _spanning_set(rng, n, k)
        path = b.workdir / f"{name}.set"
        write_cayset(S, path)
        for mode in modes:
            if mode == "modp":
                mode = f"modp:{rng.choice(MODULI)}"
            b.job(f"{name}-{mode.split(':')[0]}",
                  ["elem2", str(n), str(path), "--surface", surface, "--mode", mode],
                  check="elem2", n=n, S=S, surface=surface, mode=mode)

    # three-inv on a drawn dihedral group, every surface, plus --compare.
    order = 2 * rng.randint(12, 40)
    table = dihedral(order)
    S = random_connection_set(rng, table, 3, involutions_only=True)
    src = b.add_instance(Instance("dih3", "dihedral", table, S))
    for surface in "ONL":
        mode = b.mode()
        b.job(f"dih3-{surface}", ["three-inv", *src, "--surface", surface, "--mode", mode],
              check="three-inv", inst="dih3", surface=surface, mode=mode)
    b.job("dih3-compare", ["three-inv", *src, "--surface", "L", "--mode", "log2", "--compare"],
          check="three-inv", inst="dih3", surface="L", mode="log2")


def _spanning_set(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """k distinct non-zero vectors of (Z_2)^n, drawn until their GF(2) rank is n."""
    while True:
        S = set(rng.sample(range(1, 1 << n), k))
        basis: list[int] = []
        for s in S:
            v = s
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        if len(basis) == n:
            return tuple(sorted(S))


_PLANNERS = {"oracle": _oracle, "formula": _formula, "closed-form": _closed_form}


def build_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Writes the workload's input files under ``workdir`` and returns its jobs."""
    if workload not in _PLANNERS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    b = _Planner(workload, seed, workdir)
    _PLANNERS[workload](b)
    return b.plan
