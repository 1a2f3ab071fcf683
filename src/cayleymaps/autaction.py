"""Graph automorphisms, their lift to flags, and equivariant map construction.

A vertex permutation preserving adjacency lifts canonically to the flag
space: (g, s, sign) goes to (image of g, conjugated generator, same sign).
The lift commutes with both involutions and is functorial, so a vertex
group acts on maps by flag conjugation.

An automorphism is a tuple of vertex images, and an acting group is one
``perm.PermGroup`` of them, built where it is formed; ``extend_to_flags``
lifts all its rows at once, in row order.  Only the stable-map
construction reads ``rotations`` (and through it ``maps``), which it imports
when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cayley import FlagSpace, Graph
from .errors import (
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    NotSemiRegular,
)
from .groups import FiniteGroup, subgroup_closure
from .perm import PermGroup, cycle_labels, semi_regular

if TYPE_CHECKING:
    from .maps import MapPermutation
    from .rotations import RotationSystem

DEFAULT_GRAPH_AUT_CAP = 64


@dataclass(frozen=True)
class AutDecomposition:
    complement: tuple[tuple[int, ...], ...] | None
    is_direct_product: bool
    is_grr: bool


@dataclass(frozen=True)
class StableMap:
    """A map stabilized by a semi-regular graph automorphism.

    commutes records whether conjugation by the lifted automorphism fixes
    the flag permutation exactly; the rotation system is stabilized in
    either case.
    """

    map: MapPermutation
    rotation_system: RotationSystem
    signs: tuple[int, ...]
    twists: int
    commutes: bool


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

    def extend(pos: int) -> None:
        if pos == len(order):
            results.append(tuple(image))
            return
        v = order[pos]
        # Images must match degree and be adjacent to every mapped neighbor.
        candidates = None
        for u in graph.adjacency[v]:
            if image[u] != -1:
                cand = adj[image[u]]
                candidates = cand if candidates is None else candidates & cand
        pool = candidates if candidates is not None else range(n)
        for w in pool:
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in graph.adjacency[v]:
                if image[u] != -1 and image[u] not in adj[w]:
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                extend(pos + 1)
                image[v] = -1
                used[w] = False

    extend(0)
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
    identity, and x after y is the translation by xy."""
    maps = {vm[0]: vm for vm in elements}
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
    grow(frozenset({0}), sorted(set(maps) - {0}))
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


def vertex_orbits(theta: Sequence[int]) -> list[list[int]]:
    """Orbits of theta on the vertices, each sorted, ordered by least vertex."""
    orbits: dict[int, list[int]] = {}
    for v, least in enumerate(cycle_labels(theta).tolist()):
        orbits.setdefault(least, []).append(v)
    return list(orbits.values())


def conjugate_flag_permutation(
    P: Sequence[int], flag_map: Sequence[int]
) -> tuple[int, ...]:
    out = [0] * len(P)
    for f in range(len(P)):
        out[flag_map[f]] = flag_map[P[f]]
    return tuple(out)


def construct_stable_map(
    theta: Sequence[int],
    F: FlagSpace,
    orientable: bool = False,
) -> StableMap:
    """Map stabilized by theta: rotations chosen on orbit representatives and
    pushed around each vertex orbit by the lifted automorphism.

    The default construction uses the plus side of every dart, which the
    sign-preserving lift fixes pointwise, so conjugation fixes P exactly.
    The orientable variant forces every edge untwisted; exact fixing then
    needs an equivariant splitting of the edge sides, which an edge orbit
    whose ends are swapped rules out — in that case only the rotation
    system (hence the embedding class) is stabilized, and commutes reports
    it.
    """
    from .rotations import (
        build_dart_structure,
        canonical_rotation,
        dart_map_of_flag_map,
        realize_signed,
        transport_rotation_system,
        twists_of_signs,
    )

    if not semi_regular(theta):
        raise NotSemiRegular("automorphism has unequal vertex orbit lengths")
    D = build_dart_structure(F)
    flag_map = extend_to_flags([theta], F)[0].tolist()
    dart_map = dart_map_of_flag_map(D, flag_map)

    rho: list[tuple[int, ...] | None] = [None] * D.vertex_count
    for orbit in vertex_orbits(theta):
        rep = min(orbit)
        rho[rep] = canonical_rotation(tuple(D.darts_at(rep)))
        v, current = rep, rho[rep]
        for _ in range(len(orbit) - 1):
            current = tuple(dart_map[d] for d in current)
            v = theta[v]
            rho[v] = canonical_rotation(current)
    rotation_system: RotationSystem = tuple(rho)  # type: ignore[arg-type]

    if not orientable:
        signs = tuple([0] * (2 * D.edge_count))
        commutes = True
    else:
        # Equivariant proper signs per edge orbit when the action permits.
        signs_l = [-1] * (2 * D.edge_count)
        commutes = True
        for e in range(D.edge_count):
            if signs_l[D.edge_ends[e][0]] != -1:
                continue
            d1, d2 = D.edge_ends[e]
            signs_l[d1], signs_l[d2] = 0, 1
            a, b = dart_map[d1], dart_map[d2]
            while signs_l[a] == -1:
                signs_l[a], signs_l[b] = 0, 1
                a, b = dart_map[a], dart_map[b]
            if signs_l[a] != 0:
                commutes = False
                break
        if not commutes:
            # Fall back to any proper splitting; the class is still fixed.
            signs_l = [-1] * (2 * D.edge_count)
            for d1, d2 in D.edge_ends:
                signs_l[d1], signs_l[d2] = 0, 1
        signs = tuple(signs_l)

    M = realize_signed(D, rotation_system, signs)
    conj = conjugate_flag_permutation(M.P, flag_map)
    exact = conj == M.P
    if commutes and not exact:
        raise InternalInconsistency("stable map construction failed to commute")
    if transport_rotation_system(D, dart_map, rotation_system) != rotation_system:
        raise InternalInconsistency("stable map rotation system not stabilized")
    return StableMap(
        map=M,
        rotation_system=rotation_system,
        signs=signs,
        twists=twists_of_signs(D, signs),
        commutes=exact,
    )
