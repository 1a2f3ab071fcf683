import inspect
import itertools
import random
import sys

import networkx as nx
import numpy as np
import pytest

from cayleymaps.autaction import (
    decompose,
    extend_to_flags,
    graph_automorphism_group,
    product_group,
    right_regular,
)
from cayleymaps.cayley import build_cayley_graph, build_flag_space, validate_cayley_set
from cayleymaps.errors import CapExceeded, CayleymapsError, InternalInconsistency
from cayleymaps.fixtures import FIXTURE_NAMES, fixture
from cayleymaps.groups import direct_product, named_group
from cayleymaps.perm import PermGroup, cycle_labels, divisor_powers

CAYLEY_FIXTURES = tuple(n for n in FIXTURE_NAMES if n != "FIG1")


def after(a, b):
    """The vertex map a after b."""
    return tuple(a[v] for v in b)


def translations(G):
    """The rows of R(G) as vertex-map tuples; row h is the translation by h."""
    return [tuple(r) for r in right_regular(G).rows.tolist()]


def orbit_sizes(vm):
    """The sizes of the vertex orbits of one vertex map, ascending."""
    sizes = np.bincount(cycle_labels(vm))
    return sorted(sizes[sizes > 0].tolist())


def is_graph_automorphism(graph, vm) -> bool:
    adj = [set(nb) for nb in graph.adjacency]
    for v in range(graph.vertex_count):
        if {vm[u] for u in graph.adjacency[v]} != adj[vm[v]]:
            return False
    return True


def nx_automorphism_count(graph) -> int:
    """Independent count via VF2."""
    H = nx.Graph()
    H.add_nodes_from(range(graph.vertex_count))
    H.add_edges_from(graph.edges())
    matcher = nx.algorithms.isomorphism.GraphMatcher(H, H)
    return sum(1 for _ in matcher.isomorphisms_iter())


# ---------------------------------------------------------------------------
# Regular representation and the search
# ---------------------------------------------------------------------------

def test_right_regular_is_a_semiregular_automorphism_group():
    fx = fixture("CUBE")
    graph = build_cayley_graph(fx.group, fx.cayset)
    reg = translations(fx.group)
    assert len(reg) == fx.group.order
    maps = set(reg)
    for a in reg:
        assert is_graph_automorphism(graph, a)
        assert len(set(orbit_sizes(a))) == 1  # semi-regular
        for b in reg:
            assert after(a, b) in maps
    # R(h) sends the identity vertex to h
    for h, a in enumerate(reg):
        assert a[0] == h


@pytest.mark.parametrize(
    "name,expect", [("K3", 6), ("C4", 8), ("C5", 10), ("CUBE", 48)]
)
def test_automorphism_group_sizes_match_networkx(name, expect):
    fx = fixture(name)
    graph = build_cayley_graph(fx.group, fx.cayset)
    full = graph_automorphism_group(graph)
    assert len(full) == expect
    assert nx_automorphism_count(graph) == expect
    maps = set(full)
    assert len(maps) == len(full)
    for a in full:
        assert is_graph_automorphism(graph, a)
        assert tuple(np.argsort(a).tolist()) in maps  # the inverse


def test_automorphism_cap():
    fx = fixture("CUBE")
    graph = build_cayley_graph(fx.group, fx.cayset)
    with pytest.raises(CapExceeded):
        graph_automorphism_group(graph, cap=4)


def test_automorphism_search_is_not_bounded_by_the_recursion_limit():
    # the search goes one vertex deeper per assigned vertex: Cay(Z_200 :
    # {1, 199}) takes it 200 levels down, under a limit that leaves it
    # fewer than 100 frames
    G = named_group("cyclic", 200)
    graph = build_cayley_graph(G, validate_cayley_set(G, (1, 199)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        full = graph_automorphism_group(graph, cap=200)
    finally:
        sys.setrecursionlimit(limit)
    assert len(full) == 400  # the dihedral group of the 200-cycle
    assert full == sorted(full) and full[0] == tuple(range(200))
    assert all(is_graph_automorphism(graph, a) for a in full[::37])


def test_decompose_on_fixtures_finds_no_complement():
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        graph = build_cayley_graph(fx.group, fx.cayset)
        dec = decompose(graph_automorphism_group(graph), fx.group)
        assert not dec.is_grr
        assert not dec.is_direct_product
        assert dec.complement is None


def test_decompose_grr_branch():
    # when the search returns only the translations the instance is a GRR
    # and the complement is the trivial group
    G = named_group("cyclic", 5)
    dec = decompose(translations(G), G)
    assert dec.is_grr and dec.is_direct_product
    assert len(dec.complement) == 1


def test_decompose_on_a_genuine_grr():
    # {r1, r5, s0, s1, s3} in the dihedral group of order 12 came out of an
    # exhaustive search over inverse-closed generating sets: the full
    # automorphism group of its Cayley graph is just the translations
    G = named_group("dihedral", 12)
    S = validate_cayley_set(G, (1, 5, 6, 7, 9))
    graph = build_cayley_graph(G, S)
    full = graph_automorphism_group(graph)
    assert len(full) == 12
    dec = decompose(full, G)
    assert dec.is_grr and dec.is_direct_product
    assert len(dec.complement) == 1


@pytest.mark.parametrize("G,members,expected", [
    (named_group("dihedral", 12), (1, 5, 7), (10, 9, 8, 7, 6, 11, 4, 3, 2, 1, 0, 5)),
    (direct_product(named_group("cyclic", 2), named_group("dihedral", 6)), (3, 7, 8),
     (9, 11, 10, 6, 8, 7, 3, 5, 4, 0, 2, 1)),
])
def test_decompose_keeps_its_choice_among_complements(G, members, expected):
    # two order-2 subgroups of the centralizer of R(G) meet R(G) trivially
    # here; the one returned is pinned from the tuple implementation
    graph = build_cayley_graph(G, validate_cayley_set(G, members))
    dec = decompose(graph_automorphism_group(graph), G)
    assert list(dec.complement) == [tuple(range(12)), expected]


def test_product_group_generates_the_dihedral_action():
    G = named_group("cyclic", 4)
    negation = tuple((-x) % 4 for x in range(4))
    prod = product_group(G, [tuple(range(4)), negation])
    assert len(prod) == 8
    graph = build_cayley_graph(G, validate_cayley_set(G, (1, 3)))
    assert {tuple(a) for a in prod.rows.tolist()} == set(graph_automorphism_group(graph))


def test_product_group_refuses_a_repeated_product():
    # a complement meeting R(G) beyond the identity makes two products r h
    # equal; the refusal is why R(G)H always has |G||H| rows
    G = named_group("cyclic", 4)
    shift = translations(G)[1]
    for complement in ([tuple(range(4)), shift], [tuple(range(4)), tuple(range(4))]):
        with pytest.raises(InternalInconsistency, match="regular part and complement overlap"):
            product_group(G, complement)


# ---------------------------------------------------------------------------
# Flag lift
# ---------------------------------------------------------------------------

def test_extended_automorphism_commutes_with_alpha_beta():
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        F = fx.flag_space
        for fm in extend_to_flags(right_regular(fx.group).rows, F).tolist():
            assert sorted(fm) == list(range(F.flag_count))
            for f in range(F.flag_count):
                assert fm[F.alpha[f]] == F.alpha[fm[f]]
                assert fm[F.beta[f]] == F.beta[fm[f]]
                assert fm[f] % 2 == f % 2  # sign-preserving


def _seeded_dihedral_degree3(seed):
    """Cay(D_8 : S) for a seeded inverse-closed generating S of size 3."""
    rng = random.Random(seed)
    G = named_group("dihedral", 8)
    while True:
        members = set()
        while len(members) < 3:
            g = rng.randrange(1, G.order)
            members |= {g, int(G.inverses[g])}
        if len(members) == 3:
            try:
                return G, validate_cayley_set(G, tuple(sorted(members)))
            except CayleymapsError:
                pass


def test_extension_is_a_homomorphism():
    # on the full automorphism groups: lift(a after b) = lift(a) after
    # lift(b) for every pair, and distinct vertex maps lift to distinct
    # flag maps, so the vertex table is the table of the lifts
    cube = fixture("CUBE")
    for G, S in ((cube.group, cube.cayset), _seeded_dihedral_degree3(1)):
        F = build_flag_space(G, S)
        full = graph_automorphism_group(build_cayley_graph(G, S))
        lifts = extend_to_flags(full, F)
        for a, b in itertools.product(range(len(full)), repeat=2):
            ab = extend_to_flags([after(full[a], full[b])], F)[0]
            assert (lifts[a][lifts[b]] == ab).all()
        assert len({tuple(row) for row in lifts.tolist()}) == len(full)
        # the same, read through the acting group's table
        group = PermGroup(full)
        lifts = extend_to_flags(group.rows, F)
        assert (lifts[:, lifts] == lifts[group.table]).all()


def test_vertex_orbits_of_translations():
    # every vertex orbit of the translation by g has g's order as its size
    for G in (named_group("elementary_abelian_2", 3), named_group("dihedral", 12)):
        orders = divisor_powers(G.table).order
        for g in range(1, G.order):
            o = int(orders[g])
            assert orbit_sizes(right_regular(G).element(g)) == [o] * (G.order // o)
