"""Rotation systems with edge twists on Cayley flag spaces.

A map on the Cayley graph is specified by a cyclic order of the darts at
each vertex together with a sign at each dart end; the flag permutation
cycles same-signed flags forward and opposite-signed flags backward, which
makes alpha-conjugation invert it by construction.  Two sign assignments
give the same map exactly when they differ by flipping every sign at some
set of vertices, so the per-edge twist bit (set when the two end signs
agree) matters only through its class modulo the vertex-flip coboundary.
Each class is read off a spanning forest, Kruskal's in edge-id order, as
its one member untwisted on the forest.  This is GF(2) row reduction with
lowest-bit pivots and back-substitution: a pivot is an edge whose incidence
column lower-numbered edges do not span, which is a Kruskal forest edge,
and a reduced mask is the coset member clear on every pivot.

Nothing here moves a key: ``oracle.KeySpace.compile`` takes an
automorphism's action on codes from the dart and edge bijections it
induces, read off its flag bijection below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cayley import FlagSpace, quadricells
from .errors import BadParameter, NotCayleyLabeled
from .maps import MapPermutation

# A rotation system: one tuple of dart ids per vertex, each rotated so its
# least dart comes first.
RotationSystem = tuple[tuple[int, ...], ...]

PLUS_SIGN = 0
MINUS_SIGN = 1


@dataclass(frozen=True)
class DartStructure:
    """Dart and edge indexing for a Cayley flag space.

    Dart d covers flags 2d and 2d+1; edges are quadricells in increasing
    order of least flag, edge e having end darts edge_ends[e] = (d1, d2)
    with d1 < d2.
    """

    flag_space: FlagSpace
    degree: int
    vertex_count: int
    edge_ends: tuple[tuple[int, int], ...]
    dart_edge: tuple[int, ...]
    dart_mate: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edge_ends)

    def vertex_of(self, dart: int) -> int:
        return dart // self.degree

    def darts_at(self, vertex: int) -> range:
        return range(vertex * self.degree, (vertex + 1) * self.degree)


def build_dart_structure(F: FlagSpace) -> DartStructure:
    if F.source != "cayley":
        raise NotCayleyLabeled("dart structure requires a Cayley-labelled flag space")
    k = len(F.cayset.members)
    nv = F.group.order
    ends = []
    dart_edge = [-1] * (F.flag_count // 2)
    dart_mate = [-1] * (F.flag_count // 2)
    for e, (x, _ax, bx, _abx) in enumerate(quadricells(F)):
        d1, d2 = x // 2, bx // 2
        ends.append((d1, d2))
        dart_edge[d1] = dart_edge[d2] = e
        dart_mate[d1], dart_mate[d2] = d2, d1
    return DartStructure(
        flag_space=F,
        degree=k,
        vertex_count=nv,
        edge_ends=tuple(ends),
        dart_edge=tuple(dart_edge),
        dart_mate=tuple(dart_mate),
    )


def vertex_rotations(D: DartStructure, vertex: int) -> Iterator[tuple[int, ...]]:
    """All (degree-1)! canonical cyclic orders of the darts at a vertex."""
    darts = list(D.darts_at(vertex))
    first, rest = darts[0], darts[1:]
    for tail in itertools.permutations(rest):
        yield (first,) + tail


# ---------------------------------------------------------------------------
# Realizing a flag permutation
# ---------------------------------------------------------------------------

def realize_signed(
    D: DartStructure, rho: RotationSystem, signs: Sequence[int]
) -> MapPermutation:
    """Flag permutation of the rotation system rho with dart-end signs.

    At each vertex the flags matching their dart's sign follow the cyclic
    order and the mismatched flags run against it.
    """
    n = D.flag_space.flag_count
    P = [0] * n
    for cycle in rho:
        m = len(cycle)
        for i in range(m):
            d, dn = cycle[i], cycle[(i + 1) % m]
            with_d = 2 * d + signs[d]
            against_d = 2 * d + (1 - signs[d])
            with_dn = 2 * dn + signs[dn]
            against_dn = 2 * dn + (1 - signs[dn])
            P[with_d] = with_dn
            P[against_dn] = against_d
    return MapPermutation(flag_space=D.flag_space, P=tuple(P))


def signs_of_twists(D: DartStructure, twists: int) -> tuple[int, ...]:
    """Canonical sign assignment realizing a twist mask: every lower end
    dart gets plus, the mate agrees exactly on twisted edges."""
    signs = [PLUS_SIGN] * (2 * D.edge_count)
    for e, (_d1, d2) in enumerate(D.edge_ends):
        signs[d2] = PLUS_SIGN if (twists >> e) & 1 else MINUS_SIGN
    return tuple(signs)


def realize(D: DartStructure, rho: RotationSystem, twists: int) -> MapPermutation:
    return realize_signed(D, rho, signs_of_twists(D, twists))


# ---------------------------------------------------------------------------
# Twist classes modulo vertex flips
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistClasses:
    """Twist masks modulo vertex switching, read off a spanning forest.

    The classes are the cosets of the cut space, one per element of the
    cycle space (Gross and Tucker, 1987); a spanning forest gives them
    directly (Diestel, Graph Theory, 1.9).  ``pivots`` is Kruskal's forest
    in edge-id order and ``reduce`` gives a class's one member untwisted on
    it.  These are the pivots and reduced masks of GF(2) row reduction with
    lowest-bit pivots and back-substitution: a pivot there is an edge whose
    incidence column lower-numbered edges do not span, exactly a Kruskal
    forest edge, and a reduced mask is the coset member clear on every pivot.
    """

    edge_count: int
    pivots: tuple[int, ...]  # the forest edges, ascending
    free: tuple[int, ...]    # the other edges, ascending
    walk: tuple[tuple[int, int], ...]  # forest edge, edges at its child end; parents first

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def class_count(self) -> int:
        return 1 << (self.edge_count - self.rank)

    def reduce(self, twists: int) -> int:
        """Canonical class representative: switch vertices along the forest,
        each after its parent, until every forest edge is untwisted."""
        for e, star in self.walk:
            if (twists >> e) & 1:
                twists ^= star
        return twists


def build_twist_classes(D: DartStructure) -> TwistClasses:
    V = D.vertex_count
    # Kruskal's forest in edge-id order, by union-find with path halving
    root = list(range(V))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    pivots, free = [], []
    forest: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    for e, (d1, d2) in enumerate(D.edge_ends):
        u, w = D.vertex_of(d1), D.vertex_of(d2)
        ru, rw = find(u), find(w)
        if ru == rw:
            free.append(e)
        else:
            root[ru] = rw
            pivots.append(e)
            forest[u].append((e, w))
            forest[w].append((e, u))
    # each tree walked from its union-find root; a Cayley graph has no loops,
    # so the edges at a vertex are distinct bits of the mask summed for it
    walk, stack = [], [(v, -1) for v in range(V) if root[v] == v]
    while stack:
        u, via = stack.pop()
        for e, w in forest[u]:
            if e != via:
                walk.append((e, sum(1 << D.dart_edge[d] for d in D.darts_at(w))))
                stack.append((w, e))
    return TwistClasses(D.edge_count, tuple(pivots), tuple(free), tuple(walk))


# ---------------------------------------------------------------------------
# Dart and edge bijections induced by a flag bijection
# ---------------------------------------------------------------------------

def dart_map_of_flag_map(D: DartStructure, flag_map: Sequence[int]) -> tuple[int, ...]:
    """Induced dart bijection of a sign-preserving flag bijection."""
    n2 = D.flag_space.flag_count // 2
    out = [0] * n2
    for d in range(n2):
        img = flag_map[2 * d]
        if img & 1:
            raise BadParameter("flag bijection does not preserve dart sides")
        out[d] = img // 2
    return tuple(out)


def edge_map_of_dart_map(D: DartStructure, dart_map: Sequence[int]) -> tuple[int, ...]:
    out = [0] * D.edge_count
    for e, (d1, _d2) in enumerate(D.edge_ends):
        out[e] = D.dart_edge[dart_map[d1]]
    return tuple(out)
