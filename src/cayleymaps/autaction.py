"""Graph automorphisms and their lift to flags.

A vertex permutation preserving adjacency lifts canonically to the flag
space: (g, s, sign) goes to (image of g, conjugated generator, same sign).
The lift commutes with both involutions and is functorial, so a vertex
group acts on maps by flag conjugation.

An automorphism is a tuple of vertex images, and an acting group is one
``perm.PermGroup`` of them, built where it is formed; ``extend_to_flags``
lifts all its rows at once, in row order.  The module reads only
``cayley``, ``groups`` and ``perm``.

R(G) is regular on the vertices, so Aut Γ = R(G)·Aut(Γ)_0, and Γ is a GRR
iff the stabilizer Aut(Γ)_0 of vertex 0 is trivial (Sabidussi 1958; Godsil
1981).  Only that stabilizer is searched; the order of Aut Γ, a complement
H of R(G) × H and the products R(G)·Aut(Γ)_0 are read off G's table, and
no code lists Aut Γ by search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cayley import CayleySet, FlagSpace, Graph
from .errors import BadParameter, CapExceeded, InternalInconsistency
from .groups import FiniteGroup, subgroup_closure
from .perm import PermGroup, _row_keys, divisor_powers

DEFAULT_GRAPH_AUT_CAP = 64


@dataclass(frozen=True)
class AutDecomposition:
    complement: tuple[tuple[int, ...], ...] | None
    is_direct_product: bool
    is_grr: bool


# ---------------------------------------------------------------------------
# Automorphism group search
# ---------------------------------------------------------------------------

def vertex_stabilizer(
    graph: Graph, cap: int = DEFAULT_GRAPH_AUT_CAP
) -> list[tuple[int, ...]]:
    """Aut(Γ)_0, the automorphisms fixing vertex 0, by backtracking over
    vertex images, as sorted vertex maps.  On a Cayley graph R(G) is
    regular, so Aut Γ = R(G)·Aut(Γ)_0 and |Aut Γ| = |G|·|Aut(Γ)_0|: the
    rest of the group is read off G's table, never searched.

    Vertex 0 is sent to itself and the others are assigned in BFS order, so
    each has a mapped parent, and its candidates are the common neighbours
    of its mapped neighbours' images.
    """
    n = graph.vertex_count
    if n > cap:
        raise CapExceeded(f"graph has {n} vertices, automorphism cap is {cap}")
    adj = [set(nb) for nb in graph.adjacency]

    # BFS order from vertex 0; connectivity is a precondition.
    order = [0]
    seen = {0}
    for v in order:
        for u in graph.adjacency[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
    if len(order) != n:
        raise BadParameter("graph is not connected")

    results: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def candidates(v: int):
        """The common neighbourhood of the mapped neighbours' images."""
        pool = None
        for u in graph.adjacency[v]:
            if image[u] != -1:
                cand = adj[image[u]]
                pool = cand if pool is None else pool & cand
        return iter(pool)

    # one candidate iterator per assigned position, deepest last, so the
    # search depth is not bounded by the interpreter's recursion limit; the
    # positions before one stay mapped while its iterator lives, so every
    # candidate it yields is adjacent to the images of its mapped neighbours
    stack = [iter((0,))]
    while stack:
        pos = len(stack) - 1
        v = order[pos]
        if image[v] != -1:  # undo this position's previous choice
            used[image[v]] = False
            image[v] = -1
        for w in stack[pos]:
            if not used[w]:
                break
        else:  # no candidate left: backtrack
            stack.pop()
            continue
        image[v] = w
        used[w] = True
        if pos + 1 == n:
            results.append(tuple(image))
        else:
            stack.append(candidates(order[pos + 1]))
    results.sort()
    return results


def right_regular(G: FiniteGroup) -> PermGroup:
    """R(G): the |G| translations t ↦ th, the columns of the validated table,
    read off it with no search, so no table cap applies: G's order cap
    (checked when G was built) bounds it.  Row h is the translation by h,
    since it sends the identity to h, so the rows are already sorted; r_a
    after r_b is r_{ba}, so the composition table is the group table
    transposed, which is also the row stack, and the inverses are G's."""
    columns = np.ascontiguousarray(G.table.T)
    columns.flags.writeable = False
    return PermGroup.of_table(columns, columns, G.inverses)


# ---------------------------------------------------------------------------
# The R(G) x H decomposition
# ---------------------------------------------------------------------------

def _subgroups_of_order(G: FiniteGroup, elements: list[int], m: int) -> list[frozenset]:
    """All subgroups of exact order m of G inside ``elements``, as sets of
    element ids, in the order the search first meets them.  A subgroup of
    order m holds only elements whose order divides m, and no other element
    is tried."""
    order = divisor_powers(G.table).order.tolist()
    found: dict[frozenset, None] = {}

    def grow(current: frozenset, pool: list[int]) -> None:
        if len(current) == m:
            found[current] = None
            return
        for i, g in enumerate(pool):
            if g in current:
                continue
            closed = subgroup_closure(G, [*current, g])
            if len(closed) > m or m % len(closed):
                continue
            grow(frozenset(closed), pool[i + 1:])

    grow(frozenset({0}), sorted(x for x in set(elements) - {0} if m % order[x] == 0))
    return list(found)


def decompose(G: FiniteGroup, S: CayleySet, m: int) -> AutDecomposition:
    """Search for a complement H with Aut Γ = R(G) × H (commuting, trivial
    intersection), given m = |Aut(Γ)_0| = |Aut Γ| / |G|.  H centralizes
    R(G), and a map commuting with every right translation is the left
    translation λ_x: t ↦ xt by its image x of the identity.  Edges join t
    to s·t, so λ_x is an automorphism iff x S x⁻¹ = S, and it lies in R(G)
    iff x is central: both are read off the table, whose rows and columns
    are read only for the members of the subgroups of order m.  H's members
    are rows of the table."""
    identity = tuple(range(G.order))
    if m == 1:
        return AutDecomposition(complement=(identity,), is_direct_product=True, is_grr=True)

    T, members = G.table, np.array(S.members)
    conjugates = np.sort(T[T[:, members], G.inverses[:, None]], axis=1)  # row x: x S x⁻¹
    kept = np.flatnonzero((conjugates == members).all(axis=1))
    complement = None
    if len(kept) % m == 0:
        # of several complements, the first in the iteration order of the
        # set of subgroups held as frozensets of their rows is returned
        subgroups = {frozenset(map(tuple, T[list(sub)].tolist()))
                     for sub in _subgroups_of_order(G, kept.tolist(), m)}
        for sub in subgroups:
            # x is central iff its row is its column: only the identity's is
            if sum((T[:, row[0]] == row).all() for row in sub) == 1:
                complement = tuple(sorted(sub))
                break
    return AutDecomposition(
        complement=complement, is_direct_product=complement is not None, is_grr=False
    )


def product_group(G: FiniteGroup, complement: Sequence[Sequence[int]]) -> PermGroup:
    """R(G)H: all products r∘h of a right translation r and a member h of
    the complement, distinct when the intersection is trivial."""
    H = np.asarray(complement)
    products = G.table.T[:, H].reshape(-1, G.order)  # (r, h): r[h[v]]
    # equal rows sort next to each other; a sort of the rows' byte keys,
    # unlike np.unique(axis=0), does not import numpy.ma
    keys = np.sort(_row_keys(products))
    if (keys[1:] == keys[:-1]).any():
        raise InternalInconsistency("regular part and complement overlap")
    return PermGroup(products.tolist())


# ---------------------------------------------------------------------------
# Lifting to flags
# ---------------------------------------------------------------------------

def extend_to_flags(rows, F: FlagSpace) -> np.ndarray:
    """Canonical sign-preserving lift of Cayley-graph automorphisms, given as
    an ``(m, |G|)`` stack of vertex maps, to an ``(m, flags)`` stack of flag
    maps in the same order: flag (g, s, sign) goes to
    (θ(g), θ(sg)θ(g)^{-1}, sign).  The lift is an injective homomorphism."""
    G, members = F.group, np.array(F.cayset.members)
    T = G.table
    vm = np.asarray(rows, dtype=np.int64)
    images = T[vm[:, T[members]], G.inverses[vm][:, None]]  # (θ, s, g) -> image of s at g
    rank = np.full(G.order, -1)
    rank[members] = np.arange(len(members))
    image_rank = rank[images].transpose(0, 2, 1)  # (θ, g, j)
    if (image_rank < 0).any():
        a, g, j = (int(x) for x in np.argwhere(image_rank < 0)[0])
        raise InternalInconsistency(
            f"image of generator {int(members[j])} at vertex {g} leaves the "
            f"connection set: {int(images[a, j, g])}"
        )
    darts = vm[:, :, None] * len(members) + image_rank  # flag id = 2*dart + sign
    return (2 * darts[..., None] + np.arange(2)).reshape(len(vm), -1)
