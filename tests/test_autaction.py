import inspect
import itertools
import random
import sys

import networkx as nx
import numpy as np
import pytest

from cayleymaps.autaction import (
    _subgroups_of_order,
    decompose,
    extend_to_flags,
    product_group,
    right_regular,
    vertex_stabilizer,
)
from cayleymaps.cayley import build_cayley_graph, build_flag_space, validate_cayley_set
from cayleymaps.errors import CapExceeded, CayleymapsError, InternalInconsistency
from cayleymaps.fixtures import FIXTURE_NAMES, fixture
from cayleymaps.groups import direct_product, named_group, subgroup_closure
from cayleymaps.oracle import acting_group
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
    H.add_edges_from((u, v) for u, nb in enumerate(graph.adjacency) for v in nb if u < v)
    matcher = nx.algorithms.isomorphism.GraphMatcher(H, H)
    return sum(1 for _ in matcher.isomorphisms_iter())


def reference_automorphisms(graph) -> list[tuple[int, ...]]:
    """The whole of Aut Γ by backtracking over vertex images in BFS order,
    as sorted vertex maps: every vertex, 0 included, tries every image of
    its degree that is adjacent to its mapped neighbours' images.  The
    reference for ``vertex_stabilizer`` and the products R(G)·Aut(Γ)_0."""
    n = graph.vertex_count
    adj = [set(nb) for nb in graph.adjacency]
    deg = [len(nb) for nb in graph.adjacency]
    order, seen = [0], {0}
    for v in order:
        for u in graph.adjacency[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
    assert len(order) == n
    results, image, used = [], [-1] * n, [False] * n

    def candidates(v):
        pool = None
        for u in graph.adjacency[v]:
            if image[u] != -1:
                pool = adj[image[u]] if pool is None else pool & adj[image[u]]
        return iter(pool if pool is not None else range(n))

    stack = [candidates(order[0])]
    while stack:
        pos = len(stack) - 1
        v = order[pos]
        if image[v] != -1:
            used[image[v]] = False
            image[v] = -1
        for w in stack[pos]:
            if used[w] or deg[w] != deg[v]:
                continue
            if all(image[u] == -1 or image[u] in adj[w] for u in graph.adjacency[v]):
                break
        else:
            stack.pop()
            continue
        image[v] = w
        used[w] = True
        if pos + 1 == n:
            results.append(tuple(image))
        else:
            stack.append(candidates(order[pos + 1]))
    return sorted(results)


def reference_decompose(full, G):
    """(is_grr, is_direct_product, complement) of a listed Aut Γ: the
    complement is sought among its maps that commute with R(G), as tuples,
    the first in the iteration order of the set of subgroups found that
    meets R(G) only in the identity."""
    full_set = set(full)
    reg_set = set(map(tuple, G.table.T.tolist()))
    assert reg_set <= full_set and len(full_set) % G.order == 0
    if len(full_set) == G.order:
        return True, True, (tuple(range(G.order)),)
    m = len(full_set) // G.order
    rows = G.table.tolist()
    centralizer = [a for a in full if list(a) == rows[a[0]]]
    if len(centralizer) % m == 0:
        for sub in unpruned_subgroups_of_order(G, centralizer, m):
            if len(sub & reg_set) == 1:
                return False, True, tuple(sorted(sub))
    return False, False, None


def unpruned_subgroups_of_order(G, elements, m):
    """The subgroups of order m among left translations given as tuples,
    trying every element, whatever its order."""
    maps = {vm[0]: vm for vm in elements}
    found = set()

    def grow(current, pool):
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

    grow(frozenset({0}), sorted(set(maps) - {0}))
    return list(found)


def products(G, stab) -> list[tuple[int, ...]]:
    """R(G)·stab: every r∘h, as sorted vertex maps."""
    return sorted(map(tuple, G.table.T[:, np.array(stab)].reshape(-1, G.order).tolist()))


def as_tuple(dec):
    return dec.is_grr, dec.is_direct_product, dec.complement


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
    stab = vertex_stabilizer(graph)
    assert fx.group.order * len(stab) == expect
    assert nx_automorphism_count(graph) == expect
    maps = set(stab)
    assert len(maps) == len(stab)
    for a in stab:
        assert a[0] == 0
        assert is_graph_automorphism(graph, a)
        assert tuple(np.argsort(a).tolist()) in maps  # the inverse
    assert products(fx.group, stab) == reference_automorphisms(graph)


def test_automorphism_cap():
    fx = fixture("CUBE")
    graph = build_cayley_graph(fx.group, fx.cayset)
    with pytest.raises(CapExceeded):
        vertex_stabilizer(graph, cap=4)


def test_automorphism_search_is_not_bounded_by_the_recursion_limit():
    # the search goes one vertex deeper per assigned vertex: Cay(Z_200 :
    # {1, 199}) takes it 200 levels down, under a limit that leaves it
    # fewer than 100 frames
    G = named_group("cyclic", 200)
    graph = build_cayley_graph(G, validate_cayley_set(G, (1, 199)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        stab = vertex_stabilizer(graph, cap=200)
    finally:
        sys.setrecursionlimit(limit)
    # the identity and the reflection t -> -t of the 200-cycle
    assert stab == [tuple(range(200)), tuple((-t) % 200 for t in range(200))]
    assert len(products(G, stab)) == 400  # the dihedral group of the 200-cycle


def test_decompose_on_fixtures_finds_no_complement():
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        graph = build_cayley_graph(fx.group, fx.cayset)
        dec = decompose(fx.group, fx.cayset, len(vertex_stabilizer(graph)))
        assert not dec.is_grr
        assert not dec.is_direct_product
        assert dec.complement is None


def test_decompose_grr_branch():
    # a trivial stabilizer makes the instance a GRR, and the complement is
    # the trivial group
    G = named_group("cyclic", 5)
    dec = decompose(G, validate_cayley_set(G, (1, 4)), 1)
    assert dec.is_grr and dec.is_direct_product
    assert len(dec.complement) == 1


def test_decompose_on_a_genuine_grr():
    # {r1, r5, s0, s1, s3} in the dihedral group of order 12 came out of an
    # exhaustive search over inverse-closed generating sets: the full
    # automorphism group of its Cayley graph is just the translations
    G = named_group("dihedral", 12)
    S = validate_cayley_set(G, (1, 5, 6, 7, 9))
    graph = build_cayley_graph(G, S)
    stab = vertex_stabilizer(graph)
    assert stab == [tuple(range(12))]
    assert len(reference_automorphisms(graph)) == 12
    dec = decompose(G, S, len(stab))
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
    S = validate_cayley_set(G, members)
    dec = decompose(G, S, len(vertex_stabilizer(build_cayley_graph(G, S))))
    assert list(dec.complement) == [tuple(range(12)), expected]


def prism(m):
    """Cay(D_2m : {r, r^-1, s}), with r^i numbered i and r^i s numbered m + i."""
    return named_group("dihedral", 2 * m), (1, m - 1, m)


@pytest.mark.parametrize("G,members", [
    *((named_group("cyclic", n), (1, n - 1)) for n in random.Random(70).sample(range(3, 61), 8)),
    *(prism(m) for m in (3, 4, 5, 6, 7, 9)),
    (direct_product(named_group("cyclic", 2), named_group("dihedral", 6)), (3, 7, 8)),
])
def test_complement_search_skips_elements_whose_order_does_not_divide_m(G, members):
    graph = build_cayley_graph(G, validate_cayley_set(G, members))
    full = reference_automorphisms(graph)
    m = len(full) // G.order
    rows = G.table.tolist()
    centralizer = [a for a in full if list(a) == rows[a[0]]]
    found = _subgroups_of_order(G, [a[0] for a in centralizer], m)
    assert len(set(found)) == len(found)
    assert {frozenset(map(tuple, G.table[sorted(sub)].tolist())) for sub in found} == set(
        unpruned_subgroups_of_order(G, centralizer, m))
    assert all(len(sub) == m for sub in found)


def hypercube(k):
    """Q_k = Cay((Z_2)^k : the unit vectors)."""
    return named_group("elementary_abelian_2", k), tuple(1 << i for i in range(k))


def seeded_cayley_sets(G, degree, count, seed):
    """Up to ``count`` distinct inverse-closed generating sets of G of size
    ``degree``, from 200 seeded draws."""
    rng = random.Random(seed)
    found = []
    for _ in range(200):
        if len(found) == count:
            break
        members = set()
        while len(members) < degree:
            g = rng.randrange(1, G.order)
            members |= {g, int(G.inverses[g])}
        if len(members) != degree or tuple(sorted(members)) in found:
            continue
        try:
            found.append(validate_cayley_set(G, tuple(sorted(members))).members)
        except CayleymapsError:
            pass
    return [(G, members) for members in found]


SMALL_GROUPS = (
    *(named_group("cyclic", n) for n in (8, 10, 12)),
    *(named_group("dihedral", n) for n in (8, 10, 12)),
    direct_product(named_group("cyclic", 2), named_group("cyclic", 4)),
    direct_product(named_group("cyclic", 2), named_group("dihedral", 6)),
)
CROSS_CHECKED = (
    *((fixture(name).group, fixture(name).cayset.members) for name in CAYLEY_FIXTURES),
    *(prism(m) for m in range(3, 13)),
    *(hypercube(k) for k in (3, 4, 5)),
    *((named_group("cyclic", n), (1, n - 1)) for n in random.Random(71).sample(range(3, 61), 8)),
    *(case for i, G in enumerate(SMALL_GROUPS) for degree in (3, 4)
      for case in seeded_cayley_sets(G, degree, 3, 10 * i + degree)),
)


@pytest.mark.parametrize("G,members", CROSS_CHECKED)
def test_stabilizer_and_decomposition_match_the_whole_group_search(G, members):
    # R(G)·Aut(Γ)_0 is the whole searched group, of networkx's order, and
    # the decomposition read off the table is the listed group's
    S = validate_cayley_set(G, members)
    graph = build_cayley_graph(G, S)
    stab = vertex_stabilizer(graph)
    full = reference_automorphisms(graph)
    assert stab == [a for a in full if a[0] == 0]
    assert products(G, stab) == full
    assert len(full) == nx_automorphism_count(graph)
    assert as_tuple(decompose(G, S, len(stab))) == reference_decompose(full, G)


@pytest.mark.parametrize("G,members", [
    *((fixture(name).group, fixture(name).cayset.members) for name in CAYLEY_FIXTURES),
    *(prism(m) for m in (3, 5, 6)),
    (direct_product(named_group("cyclic", 2), named_group("dihedral", 6)), (3, 7, 8)),
    (named_group("dihedral", 12), (1, 5, 6, 7, 9)),
])
def test_acting_groups_match_the_searched_group(G, members):
    # the full group is the listed one; R(G) x H is the product with the
    # listed group's complement, searched into a table even when H = 1 (the
    # D_12 GRR), where the acting group is R(G) read off G's table
    S = validate_cayley_set(G, members)
    full = reference_automorphisms(build_cayley_graph(G, S))
    _, is_direct_product, complement = reference_decompose(full, G)
    expected = {
        "full": PermGroup(full),
        "rgxh": product_group(G, complement) if is_direct_product else right_regular(G),
    }
    for which, group in expected.items():
        acting = acting_group(G, S, which)
        assert (acting.rows == group.rows).all()
        assert (acting.table == group.table).all()
        assert (acting.inverse == group.inverse).all()


def test_product_group_generates_the_dihedral_action():
    G = named_group("cyclic", 4)
    negation = tuple((-x) % 4 for x in range(4))
    prod = product_group(G, [tuple(range(4)), negation])
    assert len(prod) == 8
    graph = build_cayley_graph(G, validate_cayley_set(G, (1, 3)))
    assert [tuple(a) for a in prod.rows.tolist()] == reference_automorphisms(graph)
    assert vertex_stabilizer(graph) == [tuple(range(4)), negation]


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
        full = products(G, vertex_stabilizer(build_cayley_graph(G, S)))
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
