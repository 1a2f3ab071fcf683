"""Output checks.  None of them trusts a job's output alone.

Each job's stdout is parsed (plain and ``--kv`` forms alike) and compared
with an independent recomputation from the generated group table, with
other jobs of the same run (O + N = L, exact against residue and log2,
census orbits against verify orbits), or with values pinned by the
package's documentation (the cube).  ``check_plan`` returns one verdict per
job: ``ok``, ``refused`` (a ``NonIntegralExponent`` refusal that the
recomputation confirms: the closed form really has a non-integral exponent
on that input), or ``failed: <cause>``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations

from gen import Instance, element_order, elem2_times_cyclic, inverse

REFUSAL = "NonIntegralExponent"
# The cube: Cay((Z_2)^3 : {1, 2, 4}), as the fixture builds it.
CUBE = Instance("CUBE", "z2sqxcyclic", elem2_times_cyclic(2, 2), (1, 2, 4),
                tuple(format(a, "03b") for a in range(8)))
PINNED = {("CUBE", "O"): (46, 46), ("CUBE", "L"): (928, 1184)}


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_PLAIN_TABLES = {"element": "fixed", "orbit": "orbit", "t": "violation"}


def _table_name(headers: list[str]) -> str:
    if headers[:2] == ["partition", "printed"]:
        return "l-table"
    if headers[:2] == ["class", "assumed-l"]:
        return "compare"
    return _PLAIN_TABLES.get(headers[0], "class")


def parse(out: str, kv: bool) -> tuple[dict, dict]:
    """(fields, tables): tables map a name to a list of row dicts."""
    fields: dict[str, str] = {}
    tables: dict[str, list[dict]] = {}
    if kv:
        for line in out.splitlines():
            key, _, val = line.partition("=")
            parts = key.split(".")
            if len(parts) == 3 and parts[1].isdigit():
                rows = tables.setdefault(parts[0], [])
                i = int(parts[1])
                while len(rows) <= i:
                    rows.append({})
                rows[i][parts[2]] = val
            else:
                fields[key] = val
        return fields, tables
    for block in out.strip("\n").split("\n\n"):
        lines = block.split("\n")
        if re.match(r"^[\w-]+: ", lines[0]):
            for line in lines:
                key, _, val = line.partition(": ")
                fields[key] = val
            continue
        headers = lines[0].split()
        starts, pos = [], 0
        for h in headers:
            pos = lines[0].index(h, pos)
            starts.append(pos)
            pos += len(h)
        bounds = list(zip(starts, starts[1:] + [None]))
        tables[_table_name(headers)] = [
            {h: line[a:b].strip() for h, (a, b) in zip(headers, bounds)} for line in lines[1:]
        ]
    return fields, tables


# ---------------------------------------------------------------------------
# Independent arithmetic
# ---------------------------------------------------------------------------

def log2_int(x: int) -> float:
    b = x.bit_length()
    if b <= 1000:
        return math.log2(x)
    return math.log2(x >> (b - 64)) + (b - 64)


def close(printed: str, value: float, rel: float = 1e-11) -> bool:
    return abs(float(printed) - value) <= rel * max(1.0, abs(value))


def check_count(fields: dict, exact: int, mode: str, prefix: str = "total") -> None:
    """The printed total in any mode against a known exact value."""
    if mode == "exact":
        expect(int(fields[prefix]) == exact, f"{prefix} {fields[prefix]} != {exact}")
        expect(close(fields[f"{prefix}-log2"], log2_int(exact)), f"{prefix}-log2 disagrees with log2(exact)")
    elif mode == "log2":
        expect(close(fields[f"{prefix}-log2"], log2_int(exact)), f"{prefix}-log2 disagrees with log2(exact)")
    else:
        p = int(mode.split(":")[1])
        expect(int(fields[f"{prefix}-prime"]) == p, "wrong prime")
        expect(int(fields[f"{prefix}-residue"]) == exact % p, f"residue != exact mod {p}")


def conjugacy_classes(table) -> list[list[int]]:
    n = len(table)
    inv = [inverse(table, g) for g in range(n)]
    seen, out = set(), []
    for g in range(n):
        if g not in seen:
            cls = sorted({table[table[t][g]][inv[t]] for t in range(n)})
            seen.update(cls)
            out.append(cls)
    return out


def class_census(inst: Instance) -> dict[int, dict]:
    """Per element g: the published per-class data of R(g) acting on
    Cay(G : S) (order, l, branch, alpha as a Fraction), keyed by every
    member of g's conjugacy class."""
    T, S, V = inst.table, set(inst.S), inst.order
    E = V * len(S) // 2
    inv = [inverse(T, g) for g in range(V)]
    out: dict[int, dict] = {}
    for cls in conjugacy_classes(T):
        g = cls[0]
        o = element_order(T, g)
        l = 0
        if o % 2 == 0:
            h = g
            for _ in range(o // 2 - 1):
                h = T[h][g]
            l = sum(1 for t in range(V) if T[T[t][h]][inv[t]] in S)
        row = {
            "size": len(cls), "order": o, "l": l,
            "branch": "Delta" if o % 2 == 0 and l > 0 else "Theta",
            "alpha": Fraction(E + l - V, o),
        }
        for x in cls:
            out[x] = row
    return out


def phi(row: dict, surface: str, k: int, V: int) -> int:
    base = math.factorial(k - 1) ** (V // row["order"])
    a = int(row["alpha"])
    return {"O": base, "L": base << a, "N": ((1 << a) - 1) * base}[surface]


def formula_total(inst: Instance, surface: str) -> int | None:
    """Exact census total under R(G); None where the closed form's exponent
    is not a non-negative integer (the program must refuse)."""
    cc = class_census(inst)
    rows = {id(r): r for r in cc.values()}.values()
    if any(r["alpha"].denominator != 1 or r["alpha"] < 0 for r in rows):
        return None
    total = sum(r["size"] * phi(r, surface, len(inst.S), inst.order) for r in rows)
    q, rem = divmod(total, inst.order)
    expect(rem == 0, "independent class sum not divisible by |G|")
    return q


def check_class_rows(inst: Instance, rows: list[dict], surface: str, phi_col: str) -> None:
    cc = class_census(inst)
    expect(sum(int(r["size"]) for r in rows) == inst.order, "class sizes do not sum to |G|")
    expect(len(rows) == len({id(r) for r in cc.values()}), "wrong number of classes")
    for r in rows:
        want = cc[inst.element(r["class"])]
        got = (int(r["size"]), int(r["order"]), int(r["l"]), r["branch"], Fraction(r.get("alpha", want["alpha"])))
        expect(got == (want["size"], want["order"], want["l"], want["branch"], want["alpha"]),
               f"class {r['class']}: {got} != recomputed")
        expect(int(r[phi_col]) == phi(want, surface, len(inst.S), inst.order), f"class {r['class']}: wrong phi")


def automorphism_count(inst: Instance) -> int:
    """|Aut(Cay(G : S))| by brute force; used on graphs of at most 8 vertices."""
    V = inst.order
    edges = {frozenset((t, inst.table[s][t])) for t in range(V) for s in inst.S}
    return sum(
        1 for p in permutations(range(V))
        if all(frozenset(p[x] for x in e) in edges for e in edges)
    )


def ground_set_size(inst: Instance, surface: str, semantics: str) -> int:
    """Degree-3 ground sets: 2 rotations per vertex; 2^(E-V+1) twist classes."""
    V = inst.order
    E = 3 * V // 2
    rot = 2 ** V
    if semantics == "raw":
        expect(surface == "L", "raw sizes are only known for L")
        return 8 ** V
    if semantics == "dart":
        return 0 if surface == "N" else rot
    twists = 2 ** (E - V + 1)
    return {"O": rot, "L": rot * twists, "N": rot * (twists - 1)}[surface]


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def _verify(job, fields, tables, inst, ctx) -> None:
    surface = job.info["surface"]
    formula, orbits = int(fields["formula-total"]), int(fields["oracle-orbits"])
    exact = formula_total(inst, surface)
    expect(exact is not None, "answered although an exponent is non-integral")
    check_class_rows(inst, tables["class"], surface, "formula")
    expect(formula == exact, "formula-total differs from recomputation")
    burnside = sum(int(r["size"]) * int(r["oracle"]) for r in tables["class"])
    expect(burnside == orbits * inst.order, "oracle-orbits is not the Burnside mean of the oracle column")
    if surface == "O":
        expect(formula == orbits, f"O-side formula {formula} != oracle {orbits}")
    if (inst.name, surface) in PINNED:
        expect((formula, orbits) == PINNED[inst.name, surface], f"pinned cube values changed: {formula}, {orbits}")
    ctx["orbits"][inst.name, surface, "verify"] = (orbits, job.id)
    ctx["totals"][inst.name, surface] = (formula, job.id)


def _oracle(job, fields, tables, inst, ctx) -> None:
    surface, semantics, acting = job.info["surface"], job.info["semantics"], job.info["acting"]
    orbits, size = int(fields["orbit-count"]), int(fields["acting-size"])
    want_size = inst.order if acting == "rg" else automorphism_count(inst)
    expect(size == want_size, f"acting-size {size} != {want_size}")
    fixed = tables.get("fixed", [])
    expect(len(fixed) == size, "fixed table does not list every element")
    expect(sum(int(r["fixed"]) for r in fixed) == orbits * size, "Burnside mean disagrees with orbit-count")
    gs = int(fields["ground-set"])
    expect(gs == ground_set_size(inst, surface, semantics), f"ground-set {gs} has the wrong size")
    rows = tables.get("orbit", [])
    expect(len(rows) == orbits, "orbit table length != orbit-count")
    expect(sum(int(r["size"]) for r in rows) == gs, "orbit sizes do not partition the ground set")
    V, E = inst.order, inst.order * len(inst.S) // 2
    for r in rows:
        faces = [int(x) for x in r["face-lengths"].split(",")]
        expect((int(r["vertices"]), int(r["edges"]), int(r["faces"])) == (V, E, len(faces)), "orbit inventory size")
        expect(int(r["chi"]) == V - E + len(faces) and sum(faces) == 2 * E, "orbit inventory faces")
        if surface != "L" and semantics == "sigma":
            expect(r["orientable"] == ("true" if surface == "O" else "false"), "orbit on the wrong surface")
    if acting == "rg":
        ctx["orbits"][inst.name, surface, semantics] = (orbits, job.id)


def _formula(job, fields, tables, inst, ctx) -> None:
    surface, mode = job.info["surface"], job.info.get("mode", "exact")
    exact = formula_total(inst, surface)
    expect(exact is not None, "answered although an exponent is non-integral")
    check_class_rows(inst, tables["class"], surface, "phi")
    expect(int(fields["acting-size"]) == inst.order, "acting-size != |G|")
    check_count(fields, exact, mode)
    if mode == "exact":
        ctx["totals"][inst.name, surface] = (int(fields["total"]), job.id)


def _elem2(job, fields, tables, inst, ctx) -> None:
    info = job.info
    expect((int(fields["n"]), int(fields["k"])) == (info["n"], len(info["S"])), "n or k echoed wrong")
    key = ("elem2", info["n"], info["S"], info["surface"])
    if info["mode"] == "exact":
        ctx["totals"][key] = (int(fields["total"]), job.id)
    ctx["deferred"].append((job, fields, key))


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def sym_orientable_total(n: int) -> int:
    """sum over cycle types of n!/z * 2^(n!/lcm), divided by n!."""
    nf = math.factorial(n)
    total = 0
    for part in _partitions(n):
        z = 1
        for c in set(part):
            m = part.count(c)
            z *= c ** m * math.factorial(m)
        total += nf // z << nf // math.lcm(*part)
    q, r = divmod(total, nf)
    expect(r == 0, "independent sym sum not divisible by n!")
    return q


def _partition_count(n: int) -> int:
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            p[m] += p[m - k]
    return p[n]


def _sym(job, fields, tables, inst, ctx) -> None:
    n, surface, mode = job.info["n"], job.info["surface"], job.info["mode"]
    rows = tables["class"]
    nf = math.factorial(n)
    expect(len(rows) == _partition_count(n), "not one row per partition")
    expect(sum(int(r["size"]) for r in rows) == nf, "class sizes do not sum to n!")
    if surface == "O":
        expect(all(int(r["exponent"]) == nf // int(r["order"]) for r in rows), "exponent != n!/order")
        if n <= 10:
            check_count(fields, sym_orientable_total(n), mode)
        else:
            # the identity term 2^(n!)/n! dominates every other by 2^(n!/2)
            expect(close(fields["total-log2"], nf - math.log2(nf), 1e-13), "log2 off the dominant term")
        return
    key = ("sym", n, surface)
    if mode == "exact":
        ctx["totals"][key] = (int(fields["total"]), job.id)
    if n > 10:
        expect(close(fields["total-log2"], 1.5 * nf - math.log2(nf), 1e-13), "log2 off the dominant term")
    else:
        ctx["deferred"].append((job, fields, key))


def three_involution_exponents(inst: Instance, surface: str) -> list[tuple[Fraction, int]]:
    V = inst.order
    out = []
    for cls in conjugacy_classes(inst.table):
        o = element_order(inst.table, cls[0])
        base = Fraction(V, o)
        alpha = Fraction(3 * V, 2 * o) if o % 2 == 0 else Fraction(V, 2 * o)
        if surface in "LN":
            out.append((alpha + base, len(cls)))
        if surface in "ON":
            out.append((base, len(cls) if surface == "O" else -len(cls)))
    return out


def _three_inv(job, fields, tables, inst, ctx) -> None:
    surface, mode = job.info["surface"], job.info["mode"]
    T, V = inst.table, inst.order
    violations = [(t, x) for x in inst.S for t in range(V) if t not in (0, x) and T[t][x] == T[x][t]]
    expect(fields["hypothesis-ok"] == ("false" if violations else "true"), "hypothesis-ok is wrong")
    expect(len(tables.get("violation", [])) == len(violations), "violation list is wrong")
    terms = three_involution_exponents(inst, surface)
    if mode == "log2":
        value = sum(m * 2.0 ** float(e - max(e for e, _ in terms)) for e, m in terms)
        expect(close(fields["total-log2"], math.log2(value) + float(max(e for e, _ in terms)) - math.log2(V), 1e-9),
               "log2 total disagrees with the displayed formula")
    else:
        num = sum(m << int(e) for e, m in terms)
        q, r = divmod(num, V)
        expect(r == 0, "three-involution sum not divisible by |G|")
        check_count(fields, q, mode)
        if mode == "exact":
            ctx["totals"][inst.name, "three-inv", surface] = (q, job.id)
    if "compare" in tables:
        cc = class_census(inst)
        for r in tables["compare"]:
            want = cc[inst.element(r["class"])]
            got = (int(r["true-l"]), Fraction(r["true-alpha"]), int(r["phi"]))
            expect(got == (want["l"], want["alpha"], phi(want, surface, 3, V)), f"compare row {r['class']} wrong")


# ---------------------------------------------------------------------------
# Refusals, cross-job checks, verdicts
# ---------------------------------------------------------------------------

def refusal_justified(job, inst: Instance | None) -> bool:
    """Whether the published closed form really has a non-integral exponent
    on this job's input, so that NonIntegralExponent is the expected answer."""
    check, surface = job.info["check"], job.info.get("surface")
    if check in ("verify", "formula"):
        return formula_total(inst, surface) is None
    if check == "three-inv":
        displayed = job.info["mode"] != "log2" and any(
            e.denominator != 1 for e, _ in three_involution_exponents(inst, surface))
        compared = "--compare" in job.argv and any(
            r["alpha"].denominator != 1 or r["alpha"] < 0 for r in class_census(inst).values())
        return displayed or compared
    return False


_CHECKS = {
    "verify": _verify, "oracle": _oracle, "formula": _formula,
    "elem2": _elem2, "sym": _sym, "three-inv": _three_inv,
}


def _cross_job(ctx: dict) -> list[tuple[str, str]]:
    """(job id, cause) for every disagreement between jobs of one run."""
    bad = []
    orbits, totals = ctx["orbits"], ctx["totals"]
    for (inst, surface, kind), (n, _) in orbits.items():
        rg = orbits.get((inst, surface, "sigma"))
        if kind == "verify" and rg and rg[0] != n:
            bad.append((rg[1], f"census oracle --acting rg orbits {rg[0]} != verify oracle-orbits {n}"))
    triples = [
        ("orbit counts", [orbits.get((inst, s, "sigma")) for s in "ONL"]) for inst in {k[0] for k in orbits}
    ] + [
        ("exact totals", [totals.get(base + (s,)) for s in "ONL"]) for base in {k[:-1] for k in totals}
    ]
    for what, (o, nn, ll) in triples:
        if None not in (o, nn, ll) and o[0] + nn[0] != ll[0]:
            bad.append((ll[1], f"{what}: O {o[0]} + N {nn[0]} != L {ll[0]}"))
    for job, fields, key in ctx["deferred"]:
        if key in totals:
            try:
                check_count(fields, totals[key][0], job.info["mode"])
            except CheckFailed as e:
                bad.append((job.id, f"disagrees with {totals[key][1]}: {e}"))
    elem2 = totals.get(("elem2", 3, (1, 2, 4), "O"))
    if elem2 and (elem2[0], totals.get(("CUBE", "O"), (46,))[0]) != (46, 46):
        bad.append((elem2[1], "elem2 3 {1,2,4} --surface O and the cube's O census are not both 46"))
    return bad


def check_plan(plan, results: dict[str, tuple[int, str]]) -> dict[str, str]:
    """Verdict per job id from its (exit code, stdout)."""
    instances = dict(plan.instances, CUBE=CUBE)
    ctx: dict = {"orbits": {}, "totals": {}, "deferred": []}
    verdicts = {}
    for job in plan.jobs:
        rc, out = results[job.id]
        inst = instances.get(job.info.get("inst"))
        try:
            if rc != 0:
                token = out.rstrip("\n").rsplit("error-token: ", 1)[-1]
                expect(token == REFUSAL and rc == 1, f"exit {rc}, error-token {token}")
                expect(refusal_justified(job, inst), "refused although every exponent is integral")
                verdicts[job.id] = f"refused: {REFUSAL}, and the recomputed exponent is non-integral"
                continue
            fields, tables = parse(out, job.info["kv"])
            _CHECKS[job.info["check"]](job, fields, tables, inst, ctx)
            verdicts[job.id] = "ok"
        except (CheckFailed, KeyError, ValueError, IndexError, TypeError) as e:
            cause = str(e) if isinstance(e, CheckFailed) else f"unparsable output ({type(e).__name__}: {e})"
            verdicts[job.id] = f"failed: {cause}"
    for job_id, cause in _cross_job(ctx):
        verdicts[job_id] = f"failed: {cause}"
    return verdicts
