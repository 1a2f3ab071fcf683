"""Graph automorphisms and their lift to flags.

A vertex permutation preserving adjacency lifts canonically to the flag
space: (g, s, sign) goes to (image of g, conjugated generator, same sign).
The lift commutes with both involutions and is functorial, so a vertex
group acts on maps by flag conjugation.

An automorphism is a tuple of vertex images, and an acting group is one
``perm.PermGroup`` of them, built where it is formed; ``extend_to_flags``
lifts all its rows at once, in row order.  The module reads only
``cayley``, ``groups`` and ``perm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cayley import FlagSpace, Graph
from .errors import BadParameter, CapExceeded, InternalInconsistency
from .groups import FiniteGroup, subgroup_closure
from .perm import PermGroup, divisor_powers

DEFAULT_GRAPH_AUT_CAP = 64


@dataclass(frozen=True)
class AutDecomposition:
    complement: tuple[tuple[int, ...], ...] | None
    is_direct_product: bool
    is_grr: bool


# ---------------------------------------------------------------------------
# Automorphism group search
# ---------------------------------------------------------------------------

def graph_automorphism_group(
    graph: Graph, cap: int = DEFAULT_GRAPH_AUT_CAP
) -> list[tuple[int, ...]]:
    """Full automorphism group by backtracking over vertex images, as sorted
    vertex maps (a list, so groups beyond the ``PermGroup`` table cap can be
    counted and decomposed).

    Vertices are assigned in BFS order so each new vertex has a mapped
    neighbor constraining its image; degree mismatch prunes immediately.
    """
    n = graph.vertex_count
    if n > cap:
        raise CapExceeded(f"graph has {n} vertices, automorphism cap is {cap}")
    adj = [set(nb) for nb in graph.adjacency]
    deg = [len(nb) for nb in graph.adjacency]

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
        """Images must match degree and be adjacent to every mapped neighbor;
        the pool is the common neighborhood of the mapped neighbors' images."""
        pool = None
        for u in graph.adjacency[v]:
            if image[u] != -1:
                cand = adj[image[u]]
                pool = cand if pool is None else pool & cand
        return iter(pool if pool is not None else range(n))

    # one candidate iterator per assigned position, deepest last, so the
    # search depth is not bounded by the interpreter's recursion limit
    stack = [candidates(order[0])]
    while stack:
        pos = len(stack) - 1
        v = order[pos]
        if image[v] != -1:  # undo this position's previous choice
            used[image[v]] = False
            image[v] = -1
        for w in stack[pos]:
            if used[w] or deg[w] != deg[v]:
                continue
            for u in graph.adjacency[v]:
                if image[u] != -1 and image[u] not in adj[w]:
                    break
            else:  # w is adjacent to every mapped neighbor's image
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

def _subgroups_of_order(
    G: FiniteGroup, elements: list[tuple[int, ...]], m: int
) -> list[frozenset]:
    """All subgroups of exact order m inside a (small) group of left
    translations t ↦ xt.  A translation is known by its image x of the
    identity, and x after y is the translation by xy, so it has the order
    of x in G; a subgroup of order m holds only elements whose order
    divides m, and no other element is tried."""
    maps = {vm[0]: vm for vm in elements}
    order = divisor_powers(G.table).order.tolist()
    found: set[frozenset] = set()

    def grow(current: frozenset, pool: list[int]) -> None:
        if len(current) == m:
            found.add(frozenset(maps[x] for x in current))
            return
        for i, g in enumerate(pool):
            if g in current:
                continue
            closed = subgroup_closure(G, [*current, g])
            if len(closed) > m or m % len(closed):
                continue
            grow(frozenset(closed), pool[i + 1:])

    # the map of x starts with x, so sorting the x sorts the maps
    grow(frozenset({0}), sorted(x for x in set(maps) - {0} if m % order[x] == 0))
    return list(found)


def decompose(full: Sequence[tuple[int, ...]], G: FiniteGroup) -> AutDecomposition:
    """Search for a complement H with full = R(G) × H (commuting, trivial
    intersection); H is sought inside the centralizer of R(G), where the
    direct-product hypothesis forces it to live.  A map commuting with every
    right translation is the left translation t ↦ xt by its image x of the
    identity, so the centralizer is read off the rows of the table."""
    full_set = set(full)
    reg_set = set(map(tuple, G.table.T.tolist()))
    if not reg_set <= full_set:
        raise BadParameter("supplied group does not contain the right translations")
    if len(full_set) % G.order:
        raise InternalInconsistency("group order not divisible by |R(G)|")

    is_grr = len(full_set) == G.order
    identity = tuple(range(G.order))
    if is_grr:
        return AutDecomposition(complement=(identity,), is_direct_product=True, is_grr=True)

    m = len(full_set) // G.order
    rows = G.table.tolist()
    centralizer = [a for a in full if list(a) == rows[a[0]]]
    complement = None
    if len(centralizer) % m == 0:
        for sub in _subgroups_of_order(G, centralizer, m):
            if len(sub & reg_set) == 1:  # only the identity
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
    if len(np.unique(products, axis=0)) != len(products):
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
