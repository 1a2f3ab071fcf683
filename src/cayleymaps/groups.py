"""Finite groups as dense multiplication tables.

Element 0 is always the identity; every downstream id convention (flag ids,
file formats) leans on that. Tables are validated on construction: Latin
square, identity row/column, associativity via Light's test over a greedily
chosen generating set (naive triple checking is cubic and hopeless near the
order cap), and two-sided inverses.

The validated table is the group: ``table[a, b]`` is the product a*b, a
read-only integer array of ``perm.row_dtype`` width.  Row ``g`` is the
left-regular permutation ``t -> g t`` read by :mod:`cayleymaps.perm`
(its order, powers and cycles are those of g) and column ``h`` is the right
translation ``t -> t h``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParameter, CapExceeded, NotAGroup
from .perm import PermGroup, cycle_labels, cycles, row_dtype

DEFAULT_GROUP_CAP = 5040


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """``table`` and ``inverses`` are read-only arrays, so groups are
    compared by identity."""

    order: int
    table: np.ndarray
    inverses: np.ndarray
    names: tuple[str, ...] | None = None

    def mul(self, a: int, b: int) -> int:
        """Product a*b (row a, column b)."""
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def name_of(self, g: int) -> str:
        if self.names is not None:
            return self.names[g]
        return str(g)


def _greedy_generators(table: np.ndarray) -> list[int]:
    """Small generating set: keep adding the least element outside the
    closure.  The table is not yet known to be associative, so the closure
    is taken under all pairwise products (a generating set of the magma)."""
    inside = np.zeros(table.shape[0], dtype=bool)
    inside[0] = True
    gens: list[int] = []
    while not inside.all():
        g = int(np.argmin(inside))
        gens.append(g)
        inside[g] = True
        members = np.flatnonzero(inside)
        while True:
            inside[table[np.ix_(members, members)]] = True
            grown = np.flatnonzero(inside)
            if len(grown) == len(members) or len(grown) == len(inside):  # closed, or all
                break
            members = grown
    return gens


def check_order_cap(n: int) -> None:
    """Refuse a group of order ``n`` above ``DEFAULT_GROUP_CAP``."""
    if n > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"group order {n} exceeds cap {DEFAULT_GROUP_CAP}")


def build_group_from_table(
    raw_table: Sequence[Sequence[int]] | np.ndarray,
    *,
    names: Sequence[str] | None = None,
) -> FiniteGroup:
    """Validate a multiplication table (nested sequences or an integer
    array) and wrap it as a FiniteGroup."""
    n = len(raw_table)
    if n == 0:
        raise NotAGroup("empty table")
    check_order_cap(n)
    if isinstance(raw_table, np.ndarray) and raw_table.dtype.kind in "iu":
        T = raw_table  # checked in its own width, then narrowed: no int64 copy
    else:
        try:
            T = np.asarray(raw_table, dtype=np.int64)
        except OverflowError:  # entries beyond int64, refused as out of range below
            T = np.asarray(raw_table, dtype=object)
    if T.shape != (n, n):
        raise NotAGroup(f"table is not square: shape {T.shape}")
    if T.min() < 0 or T.max() >= n:
        bad = np.argwhere((T < 0) | (T >= n))[0]
        raise NotAGroup(
            f"entry out of range at ({bad[0]},{bad[1]})",
            witness=(int(bad[0]), int(bad[1])),
        )
    T = T.astype(row_dtype(n))

    # Latin square: each row and column is a permutation of 0..n-1.
    idx = np.arange(n)
    # (columns are sorted as the rows of a transposed copy: at order 5040 a
    # strided sort along axis 0 takes 0.46 s, the copy and sort 0.32 s)
    for rows, kind in ((T, "row"), (T.T, "column")):
        ok = (np.sort(np.ascontiguousarray(rows), axis=1) == idx).all(axis=1)
        if not ok.all():
            which = int(np.flatnonzero(~ok)[0])
            raise NotAGroup(f"{kind} {which} is not a permutation", witness=(which,))

    # Identity pinned at 0.
    if not (T[0] == idx).all() or not (T[:, 0] == idx).all():
        which = int(np.flatnonzero(T[0] != idx)[0]) if not (T[0] == idx).all() else int(
            np.flatnonzero(T[:, 0] != idx)[0]
        )
        raise NotAGroup(f"element 0 is not the identity (witness {which})", witness=(0, which))

    # Light's associativity test: a*(g*c) == (a*g)*c for generators g.
    # (each row of T gathered by row g: at order 5040 ``np.take`` along the
    # rows takes 0.03 s, the fancy column gather ``T[:, T[g]]`` 0.19 s)
    for g in _greedy_generators(T):
        left = np.take(T, T[g], axis=1)  # (a, c) -> a*(g*c)
        right = T[T[:, g]]               # (a, c) -> (a*g)*c
        if not (left == right).all():
            a, c = (int(x) for x in np.argwhere(left != right)[0])
            raise NotAGroup(
                f"non-associative triple ({a},{g},{c}): "
                f"{a}*({g}*{c})={int(left[a, c])} but ({a}*{g})*{c}={int(right[a, c])}",
                witness=(a, g, c),
            )

    # Two-sided inverses (Latin square guarantees the solve; check both sides).
    inverses = np.argmax(T == 0, axis=1).astype(T.dtype)
    one_sided = np.flatnonzero(T[inverses, idx] != 0)
    if len(one_sided):
        g = int(one_sided[0])
        raise NotAGroup(f"one-sided inverse at {g}", witness=(g, int(inverses[g])))

    names_t = tuple(names) if names is not None else None
    if names_t is not None and len(names_t) != n:
        raise BadParameter(f"expected {n} names, got {len(names_t)}")
    T.flags.writeable = inverses.flags.writeable = False
    return FiniteGroup(order=n, table=T, inverses=inverses, names=names_t)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise BadParameter(f"cyclic order must be >= 1, got {n}")
    if n > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"cyclic({n}) has order {n} > cap {DEFAULT_GROUP_CAP}")
    a = np.arange(n)
    return build_group_from_table((a[:, None] + a) % n, names=[f"g{i}" for i in range(n)])


def _dihedral(order: int) -> FiniteGroup:
    # Element i + m*f: rotation r^i for f=0, reflection r^i s for f=1.
    if order < 2 or order % 2:
        raise BadParameter(f"dihedral order must be even and >= 2, got {order}")
    if order > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"dihedral({order}) has order {order} > cap {DEFAULT_GROUP_CAP}")
    m = order // 2
    i, f = np.arange(order) % m, np.arange(order) // m
    # (i,f)*(j,g) applies (j,g) first: r^i s^f r^j s^g = r^(i + (-1)^f j) s^(f+g).
    k = (i[:, None] + np.where(f[:, None] == 0, i, -i)) % m
    names = [f"r{i}" for i in range(m)] + [f"s{i}" for i in range(m)]
    return build_group_from_table(k + m * (f[:, None] ^ f), names=names)


def _cycle_name(p, labels) -> str:
    """Cycle notation of a permutation, fixed points omitted."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(p, labels) if len(c) > 1]
    return "".join(parts) if parts else "()"


def _symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise BadParameter(f"symmetric degree must be >= 1, got {n}")
    if math.factorial(n) > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"symmetric({n}) has order {math.factorial(n)} > cap {DEFAULT_GROUP_CAP}")
    group = PermGroup(list(itertools.permutations(range(n))))  # identity sorts first
    names = [_cycle_name(p, labels) for p, labels in zip(group.rows.tolist(), cycle_labels(group.rows))]
    return build_group_from_table(group.table, names=names)


def _elementary_abelian_2(n: int) -> FiniteGroup:
    if n < 1:
        raise BadParameter(f"rank must be >= 1, got {n}")
    order = 1 << n
    if order > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"elementary_abelian_2({n}) has order {order} > cap {DEFAULT_GROUP_CAP}")
    a = np.arange(order)
    names = [format(i, f"0{n}b") for i in range(order)]
    return build_group_from_table(a[:, None] ^ a, names=names)


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """Pair-encoded product: element (a, b) gets index a*|B| + b."""
    n = A.order * B.order
    if n > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"product order {n} > cap {DEFAULT_GROUP_CAP}")
    nb = B.order
    # entry ((a1, b1), (a2, b2)) = a1a2 * |B| + b1b2, formed in int64
    table = A.table.astype(np.int64)[:, None, :, None] * nb + B.table[None, :, None, :]
    names = [f"({A.name_of(a)},{B.name_of(b)})" for a in range(A.order) for b in range(nb)]
    return build_group_from_table(table.reshape(n, n), names=names)


def named_group(family: str, params) -> FiniteGroup:
    """Families: cyclic(n), dihedral(order), symmetric(n),
    elementary_abelian_2(rank), direct_product((G, H))."""
    if family == "cyclic":
        return _cyclic(int(params))
    if family == "dihedral":
        return _dihedral(int(params))
    if family == "symmetric":
        return _symmetric(int(params))
    if family == "elementary_abelian_2":
        return _elementary_abelian_2(int(params))
    if family == "direct_product":
        try:
            A, B = params
        except (TypeError, ValueError):
            raise BadParameter("direct_product expects a pair of groups")
        if not isinstance(A, FiniteGroup) or not isinstance(B, FiniteGroup):
            raise BadParameter("direct_product expects FiniteGroup operands")
        return direct_product(A, B)
    raise BadParameter(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

def subgroup_closure(G: FiniteGroup, gens: Sequence[int]) -> list[int]:
    """Subgroup generated by gens, as a sorted element list: a breadth-first
    search under right multiplication by the generators."""
    gens = np.asarray(gens, dtype=np.intp)
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while len(frontier):
        reached = np.zeros(G.order, dtype=bool)
        reached[G.table[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(reached & ~inside)
        inside[frontier] = True
    return np.flatnonzero(inside).tolist()
