"""Graph automorphisms, their lift to flags, and equivariant map construction.

A vertex permutation preserving adjacency lifts canonically to the flag
space: (g, s, sign) goes to (image of g, conjugated generator, same sign).
The lift commutes with both involutions and is functorial, so a vertex
group acts on maps by flag conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cayley import FlagSpace, Graph
from .errors import (
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    NotSemiRegular,
)
from .groups import FiniteGroup
from .maps import MapPermutation
from .perm import cycle_labels, semi_regular
from .rotations import (
    RotationSystem,
    build_dart_structure,
    canonical_rotation,
    dart_map_of_flag_map,
    realize_signed,
    transport_rotation_system,
    twists_of_signs,
)

DEFAULT_GRAPH_AUT_CAP = 64


@dataclass(frozen=True)
class GraphAutomorphism:
    vertex_map: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.vertex_map[v]


@dataclass(frozen=True)
class AutDecomposition:
    full_group: tuple[GraphAutomorphism, ...]
    regular_part: tuple[GraphAutomorphism, ...]
    complement: tuple[GraphAutomorphism, ...] | None
    is_direct_product: bool
    is_grr: bool


@dataclass(frozen=True)
class ExtendedAutomorphism:
    source: GraphAutomorphism
    flag_map: tuple[int, ...]


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


def is_graph_automorphism(graph: Graph, vm: Sequence[int]) -> bool:
    adj = [set(nb) for nb in graph.adjacency]
    for v in range(graph.vertex_count):
        if {vm[u] for u in graph.adjacency[v]} != adj[vm[v]]:
            return False
    return True


# ---------------------------------------------------------------------------
# Automorphism group search
# ---------------------------------------------------------------------------

def graph_automorphism_group(
    graph: Graph, cap: int = DEFAULT_GRAPH_AUT_CAP
) -> list[GraphAutomorphism]:
    """Full automorphism group by backtracking over vertex images.

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
    return [GraphAutomorphism(vm) for vm in results]


def right_regular(G: FiniteGroup, graph: Graph | None = None) -> list[GraphAutomorphism]:
    """The |G| translations t ↦ th (the columns of the table), optionally
    checked against a graph."""
    out = []
    for h, vm in enumerate(G.table.T.tolist()):
        if graph is not None and not is_graph_automorphism(graph, vm):
            raise InternalInconsistency(f"right translation by {h} breaks adjacency")
        out.append(GraphAutomorphism(tuple(vm)))
    return out


# ---------------------------------------------------------------------------
# The R(G) x H decomposition
# ---------------------------------------------------------------------------

def _subgroups_of_order(elements: list[tuple[int, ...]], m: int) -> list[frozenset]:
    """All subgroups of exact order m inside a (small) group of left
    translations t ↦ xt.  A translation is known by its image x of the
    identity, and x after y is the translation by (the map of x)[y]."""
    maps = {vm[0]: vm for vm in elements}
    found: set[frozenset] = set()

    def close(gens: frozenset) -> frozenset | None:
        group = {0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = maps[a][g]
                if b not in group:
                    if len(group) >= m:
                        return None
                    group.add(b)
                    frontier.append(b)
        return frozenset(group)

    def grow(current: frozenset, pool: list[int]) -> None:
        if len(current) == m:
            found.add(frozenset(maps[x] for x in current))
            return
        for i, g in enumerate(pool):
            if g in current:
                continue
            closed = close(frozenset(current | {g}))
            if closed is None or len(closed) > m or m % len(closed):
                continue
            grow(closed, pool[i + 1:])

    # the map of x starts with x, so sorting the x sorts the maps
    grow(frozenset({0}), sorted(set(maps) - {0}))
    return [s for s in found if len(s) == m]


def decompose(full: list[GraphAutomorphism], G: FiniteGroup) -> AutDecomposition:
    """Search for a complement H with full = R(G) × H (commuting, trivial
    intersection); H is sought inside the centralizer of R(G), where the
    direct-product hypothesis forces it to live.  A map commuting with every
    right translation is the left translation t ↦ xt by its image x of the
    identity, so the centralizer is read off the rows of the table."""
    full_maps = [a.vertex_map for a in full]
    full_set = set(full_maps)
    regular = right_regular(G)
    reg_set = {a.vertex_map for a in regular}
    if not reg_set <= full_set:
        raise BadParameter("supplied group does not contain the right translations")
    if len(full_set) % G.order:
        raise InternalInconsistency("group order not divisible by |R(G)|")

    is_grr = len(full_set) == G.order
    identity = tuple(range(G.order))
    if is_grr:
        return AutDecomposition(
            full_group=tuple(full),
            regular_part=tuple(regular),
            complement=(GraphAutomorphism(identity),),
            is_direct_product=True,
            is_grr=True,
        )

    m = len(full_set) // G.order
    rows = G.table.tolist()
    centralizer = [a for a in full_maps if list(a) == rows[a[0]]]
    complement = None
    if len(centralizer) % m == 0:
        for sub in _subgroups_of_order(centralizer, m):
            if len(sub & reg_set) == 1:  # only the identity
                complement = tuple(GraphAutomorphism(vm) for vm in sorted(sub))
                break
    return AutDecomposition(
        full_group=tuple(full),
        regular_part=tuple(regular),
        complement=complement,
        is_direct_product=complement is not None,
        is_grr=False,
    )


def product_group(
    regular: Sequence[GraphAutomorphism], complement: Sequence[GraphAutomorphism]
) -> list[GraphAutomorphism]:
    """All products r∘h, in sorted order; distinct when the intersection is
    trivial."""
    R = np.array([r.vertex_map for r in regular])
    H = np.array([h.vertex_map for h in complement])
    products = set(map(tuple, R[:, H].reshape(-1, R.shape[1]).tolist()))  # (r, h): r[h[v]]
    if len(products) != len(regular) * len(complement):
        raise InternalInconsistency("regular part and complement overlap")
    return [GraphAutomorphism(vm) for vm in sorted(products)]


# ---------------------------------------------------------------------------
# Lifting to flags
# ---------------------------------------------------------------------------

def extend_to_flags(theta: GraphAutomorphism, F: FlagSpace) -> ExtendedAutomorphism:
    """Canonical sign-preserving lift of a Cayley-graph automorphism: flag
    (g, s, sign) goes to (θ(g), θ(sg)θ(g)^{-1}, sign)."""
    G, members = F.group, np.array(F.cayset.members)
    T = G.table
    vm = np.array(theta.vertex_map)
    images = T[vm[T[members]], G.inverses[vm]]  # (s, g) -> image of s at g
    rank = np.full(G.order, -1)
    rank[members] = np.arange(len(members))
    image_rank = rank[images].T  # (g, j)
    if (image_rank < 0).any():
        g, j = (int(x) for x in np.argwhere(image_rank < 0)[0])
        raise InternalInconsistency(
            f"image of generator {int(members[j])} at vertex {g} leaves the "
            f"connection set: {int(images[j, g])}"
        )
    darts = vm[:, None] * len(members) + image_rank  # flag id = 2*dart + sign
    flag_map = (2 * darts[:, :, None] + np.arange(2)).ravel()
    return ExtendedAutomorphism(source=theta, flag_map=tuple(flag_map.tolist()))


def is_semi_regular(theta: GraphAutomorphism) -> bool:
    """All vertex orbits of theta have the same length."""
    return bool(semi_regular(theta.vertex_map))


def vertex_orbits(theta: GraphAutomorphism) -> list[list[int]]:
    """Orbits of theta on the vertices, each sorted, ordered by least vertex."""
    orbits: dict[int, list[int]] = {}
    for v, least in enumerate(cycle_labels(theta.vertex_map).tolist()):
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
    theta: GraphAutomorphism,
    F: FlagSpace,
    base_rotations: RotationSystem | None = None,
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
    if not is_semi_regular(theta):
        raise NotSemiRegular("automorphism has unequal vertex orbit lengths")
    D = build_dart_structure(F)
    ext = extend_to_flags(theta, F)
    dart_map = dart_map_of_flag_map(D, ext.flag_map)

    rho: list[tuple[int, ...] | None] = [None] * D.vertex_count
    for orbit in vertex_orbits(theta):
        rep = min(orbit)
        if base_rotations is not None:
            cycle = base_rotations[rep]
        else:
            cycle = tuple(D.darts_at(rep))
        rho[rep] = canonical_rotation(cycle)
        v, current = rep, rho[rep]
        for _ in range(len(orbit) - 1):
            current = tuple(dart_map[d] for d in current)
            v = theta(v)
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
    conj = conjugate_flag_permutation(M.P, ext.flag_map)
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
