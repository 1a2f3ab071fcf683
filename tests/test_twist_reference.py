"""Twist classes read off a spanning forest, against a GF(2) elimination.

``eliminated`` row-reduces the vertex incidence vectors with lowest-bit
pivots and back-substitution.  Its pivots are the edges whose incidence
columns lower-numbered edges do not span, Kruskal's forest in edge-id
order, and its reduced mask is the coset member clear on every pivot, the
forest normalization: ``build_twist_classes`` must give the same pivots,
rank, class count and reduced masks.
"""

import random

import pytest

from cayleymaps.cayley import build_flag_space, validate_cayley_set
from cayleymaps.errors import CaySetInvalid
from cayleymaps.fixtures import fixture
from cayleymaps.groups import named_group
from cayleymaps.rotations import build_dart_structure, build_twist_classes


def eliminated(D):
    """The pivots, ascending, and the reduction of GF(2) elimination over
    the vertex vectors of D."""
    rows = []
    for v in range(D.vertex_count):
        vec = 0
        for d in D.darts_at(v):
            vec |= 1 << D.dart_edge[d]
        rows.append(vec)
    basis, pivots = [], []
    for vec in rows:
        for row, p in zip(basis, pivots):
            if (vec >> p) & 1:
                vec ^= row
        if vec:
            basis.append(vec)
            pivots.append((vec & -vec).bit_length() - 1)
    # back-substitute so each pivot appears in exactly one row
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j and (basis[j] >> pivots[i]) & 1:
                basis[j] ^= basis[i]
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    basis = [basis[i] for i in order]
    pivots = [pivots[i] for i in order]

    def reduce(twists):
        for row, p in zip(basis, pivots):
            if (twists >> p) & 1:
                twists ^= row
        return twists

    return tuple(pivots), reduce


def random_cayley_space(family, order, rng):
    """The flag space of a Cayley graph on the group with a random
    connection set of 2 to 5 elements, drawn until one is valid."""
    G = named_group(family, order)
    for _ in range(200):
        S = set(rng.sample(range(1, order), min(order - 1, rng.randint(1, 3))))
        S |= {G.inv(s) for s in S}
        if len(S) > 5:
            continue
        try:
            return build_flag_space(G, validate_cayley_set(G, sorted(S)))
        except CaySetInvalid:
            continue
    raise AssertionError(f"no connection set drawn for {family}({order})")


def assert_matches_elimination(F, rng):
    D = build_dart_structure(F)
    T = build_twist_classes(D)
    pivots, reduce = eliminated(D)
    E = D.edge_count
    assert T.pivots == pivots
    assert T.free == tuple(e for e in range(E) if e not in set(pivots))
    assert T.rank == len(pivots) == D.vertex_count - 1
    assert T.class_count == 1 << (E - len(pivots))
    masks = [0, (1 << E) - 1] + [1 << e for e in range(E)] + [rng.getrandbits(E) for _ in range(30)]
    for mask in masks:
        assert T.reduce(mask) == reduce(mask), mask


@pytest.mark.parametrize("name", ["K3", "C4", "C5", "CUBE"])
def test_forest_matches_elimination_on_fixtures(name):
    assert_matches_elimination(fixture(name).flag_space, random.Random(name))


@pytest.mark.parametrize(
    "family,order",
    [("cyclic", n) for n in range(3, 41)] + [("dihedral", n) for n in range(4, 41, 2)],
)
def test_forest_matches_elimination_on_seeded_cayley_graphs(family, order):
    rng = random.Random(f"{family}-{order}")
    assert_matches_elimination(random_cayley_space(family, order, rng), rng)


def test_forest_pivots_on_a_long_cycle():
    # Cay(Z_2000 : {1, 1999}) is one cycle, and its last edge closes it
    G = named_group("cyclic", 2000)
    D = build_dart_structure(build_flag_space(G, validate_cayley_set(G, (1, 1999))))
    T = build_twist_classes(D)
    assert T.free == (1999,)
    assert T.pivots == tuple(range(1999))
    assert T.class_count == 2
