"""The array-backed oracle against a plain-tuple copy of per-key transport.

The reference below enumerates keys with ``itertools.product``, realizes
each key on its own, moves keys one at a time and partitions them with a
union-find, as the oracle did before key codes; the oracle must agree with
it on every ground set, fixed count, orbit and inventory.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from cayleymaps import fixture, named_group, validate_cayley_set
from cayleymaps.autaction import extend_to_flags, right_regular
from cayleymaps.cayley import build_flag_space
from cayleymaps.errors import CapExceeded, CayleymapsError, InternalInconsistency
from cayleymaps.groups import direct_product
from cayleymaps.maps import MapInventory
from cayleymaps.oracle import (
    DART,
    DEFAULT_ORACLE_CAP,
    RAW,
    SEMANTICS,
    SIGMA,
    KeySpace,
    acting_group,
    burnside_count,
    enumerate_embeddings,
    fixed_count,
    ground_set_bound,
)
from cayleymaps.rotations import (
    build_dart_structure,
    build_twist_classes,
    dart_map_of_flag_map,
    edge_map_of_dart_map,
    realize,
    realize_signed,
    vertex_rotations,
)

# keys x acting elements moved one at a time by the reference, per case
REFERENCE_BUDGET = 40_000


# ---------------------------------------------------------------------------
# Reference: tuples, per-key transport and union-find
# ---------------------------------------------------------------------------

def _cycles(p):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def _orbit_count(n, perms):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for i in range(n):
            ra, rb = find(i), find(p[i])
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in range(n)})


def _pairs(cycles, conj):
    by_set = {frozenset(c): c for c in cycles}
    pairs, used = [], set()
    for c in cycles:
        if frozenset(c) in used:
            continue
        mate = by_set[frozenset(conj[f] for f in c)]
        used |= {frozenset(c), frozenset(mate)}
        pairs.append((c, mate))
    return tuple(pairs)


def _orientable(F, P):
    ab = [F.alpha[F.beta[f]] for f in range(F.flag_count)]
    return _orbit_count(F.flag_count, [P, ab]) == 2


def reference_inventory(F, P):
    n = F.flag_count
    vertices = _pairs(_cycles(P), F.alpha)
    faces = _pairs(_cycles([P[F.alpha[F.beta[f]]] for f in range(n)]), F.beta)
    chi = len(vertices) - n // 4 + len(faces)
    orientable = _orientable(F, P)
    return MapInventory(
        vertex_count=len(vertices),
        edge_count=n // 4,
        face_count=len(faces),
        face_lengths=tuple(sorted(len(pair[0]) for pair in faces)),
        euler_characteristic=chi,
        orientable=orientable,
        genus=(2 - chi) // 2 if orientable else 2 - chi,
    )


def representatives(T):
    """Every twist class's reduced mask: the sets of free edges, in
    ``itertools.product`` order over the free edges ascending."""
    for bits in itertools.product((0, 1), repeat=len(T.free)):
        yield sum(1 << e for e, bit in zip(T.free, bits) if bit)


def reference_ground_set(F, semantics, surface):
    """(keys, flag permutations) in enumeration order."""
    D = build_dart_structure(F)
    T = build_twist_classes(D)
    rotations = [tuple(vertex_rotations(D, v)) for v in range(D.vertex_count)]
    keys, perms = [], []
    if semantics == RAW:
        per_vertex = []
        for v in range(D.vertex_count):
            darts = list(D.darts_at(v))
            choices = []
            for rot in rotations[v]:
                for bits in itertools.product((0, 1), repeat=len(darts) - 1):
                    signs = dict(zip(darts[1:], bits))
                    signs[darts[0]] = 0
                    choices.append((rot, tuple(signs[d] for d in darts)))
            per_vertex.append(choices)
        for combo in itertools.product(*per_vertex):
            rho = tuple(c[0] for c in combo)
            P = realize_signed(D, rho, tuple(s for c in combo for s in c[1])).P
            if surface == "L" or _orientable(F, P) == (surface == "O"):
                keys.append(P)
                perms.append(P)
    elif semantics == SIGMA:
        reps = {"O": [0], "N": [t for t in representatives(T) if t]}.get(
            surface, list(representatives(T)))
        for rho in itertools.product(*rotations):
            for t in reps:
                keys.append((rho, t))
                perms.append(realize(D, rho, t).P)
    elif surface != "N":
        for rho in itertools.product(*rotations):
            keys.append(rho)
            perms.append(realize(D, rho, 0).P)
    return keys, perms


def transport_rotation_system(D, dart_map, rho):
    """A rotation system moved along a dart bijection, each vertex's image
    rotated so its least dart comes first."""
    out = [None] * D.vertex_count
    for cycle in rho:
        image = [dart_map[d] for d in cycle]
        i = image.index(min(image))
        out[D.vertex_of(image[0])] = tuple(image[i:] + image[:i])
    return tuple(out)


def transport_twists(edge_map, twists):
    """A twist mask moved along an edge bijection."""
    return sum(1 << f for e, f in enumerate(edge_map) if (twists >> e) & 1)


def reference_act(F, semantics, flag_map):
    D = build_dart_structure(F)
    T = build_twist_classes(D)
    dart_map = dart_map_of_flag_map(D, flag_map)
    edge_map = edge_map_of_dart_map(D, dart_map)
    if semantics == RAW:
        def act(key):
            out = [0] * len(flag_map)
            for f in range(len(flag_map)):
                out[flag_map[f]] = flag_map[key[f]]
            return tuple(out)
    elif semantics == SIGMA:
        def act(key):
            rho, t = key
            return (transport_rotation_system(D, dart_map, rho),
                    T.reduce(transport_twists(edge_map, t)))
    else:
        def act(key):
            return transport_rotation_system(D, dart_map, key)
    return act


def reference_burnside(F, semantics, flag_maps, keys, perms):
    index = {key: i for i, key in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    fixed = []
    for fm in flag_maps:
        act = reference_act(F, semantics, fm)
        images = [index[act(key)] for key in keys]
        fixed.append(sum(1 for i, j in enumerate(images) if i == j))
        for i, j in enumerate(images):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    fixed = tuple(fixed)
    orbits = {}
    for i in range(len(keys)):
        orbits.setdefault(find(i), []).append(i)
    leads = sorted(min(members) for members in orbits.values())
    sizes = tuple(len(orbits[find(i)]) for i in leads)
    inventories = tuple(reference_inventory(F, perms[i]) for i in leads)
    return fixed, len(orbits), sizes, tuple(perms[i] for i in leads), inventories


# ---------------------------------------------------------------------------
# Seeded small Cayley graphs
# ---------------------------------------------------------------------------

def _random_group(rng):
    family = rng.choice(("cyclic", "dihedral", "product"))
    if family == "cyclic":
        return named_group("cyclic", rng.choice((4, 6, 8)))
    if family == "dihedral":
        return named_group("dihedral", rng.choice((6, 8)))
    return direct_product(named_group("cyclic", 2), named_group("cyclic", rng.choice((2, 4))))


def _random_cayset(rng, G, degree):
    """An inverse-closed generating set of the given size, or None."""
    for _ in range(200):
        members = set()
        while len(members) < degree:
            g = rng.randrange(1, G.order)
            members |= {g, G.inverses[g]}
        if len(members) != degree:
            continue
        try:
            return validate_cayley_set(G, tuple(sorted(members)))
        except CayleymapsError:
            continue
    return None


def _acting_sets(G, S, F):
    out = {"rg": right_regular(G)}
    try:
        out["full"] = acting_group(G, S, "full")
    except CapExceeded:
        pass
    return out


def _cases(seed):
    """A seeded graph and every (semantics, surface, acting) case on it
    that the reference can move key by key within the budget.  Seed 0 is
    K5 = Cay(Z_5 : {1, 2, 3, 4}), the one degree-4 graph of order <= 8
    whose ground sets fit; the other seeds draw degree-3 graphs."""
    rng = random.Random(seed)
    while True:
        if seed == 0:
            G = named_group("cyclic", 5)
            S = validate_cayley_set(G, (1, 2, 3, 4))
        else:
            G = _random_group(rng)
            S = _random_cayset(rng, G, 3)
        if S is None:
            continue
        F = build_flag_space(G, S)
        acting = _acting_sets(G, S, F)
        cases = [
            (semantics, surface, which)
            for semantics in SEMANTICS
            for surface in "ONL"
            for which in acting
            if ground_set_bound(F, semantics, "L") * len(acting[which]) <= REFERENCE_BUDGET
        ]
        if cases:
            return F, acting, cases


@pytest.mark.parametrize("seed", range(10))
def test_oracle_matches_tuple_reference(seed):
    F, acting_sets, cases = _cases(seed)
    for semantics, surface, which in cases:
        acting = acting_sets[which]
        keys, perms = reference_ground_set(F, semantics, surface)
        gs = enumerate_embeddings(F, semantics, surface)
        assert len(gs.keys) == len(keys)
        # a DART ground set is keyed in SIGMA's orientable space
        assert tuple(gs.keys) == (tuple((rho, 0) for rho in keys) if semantics == DART else tuple(keys))
        maps = gs.representatives_of(gs.space.realize(gs.codes))
        assert tuple(M.P for M in maps) == tuple(perms)

        flag_maps = extend_to_flags(acting.rows, F).tolist()
        fixed, count, sizes, reps, invs = reference_burnside(F, semantics, flag_maps, keys, perms)
        oc = burnside_count(acting, gs)
        case = (seed, semantics, surface, which)
        assert oc.fixed_counts == fixed, case
        assert oc.orbit_count == count, case
        assert oc.orbit_sizes == sizes, case
        assert tuple(M.P for M, _ in oc.orbits) == reps, case
        assert tuple(inv for _, inv in oc.orbits) == invs, case
        assert tuple(oc.orbit_inventories) == invs, case
        assert [fixed_count(fm, gs) for fm in flag_maps[:3]] == list(fixed[:3]), case


def test_seeded_cases_cover_every_semantics_and_degree():
    seen = set()
    for seed in range(10):
        F, _, cases = _cases(seed)
        degree = F.flag_count // (2 * F.group.order)
        seen |= {(semantics, surface, which, degree) for semantics, surface, which in cases}
    assert {c[0] for c in seen} == set(SEMANTICS)
    assert {c[1] for c in seen} == set("ONL")
    assert {c[2] for c in seen} == {"rg", "full"}
    assert {c[3] for c in seen} == {3, 4}


@pytest.mark.parametrize("source", ["K3", "C4", "C5", "CUBE", *range(10)])
def test_ground_set_bound_is_the_key_space_size(source):
    # the bound the cap is checked against is the size of the key space
    # enumerated, counted here from the built rotations and twist classes
    # and, where the space is swept, from its keys; larger spaces are
    # built without the sweep
    F = fixture(source).flag_space if isinstance(source, str) else _cases(source)[0]
    D = build_dart_structure(F)
    T = build_twist_classes(D)
    k, V = D.degree, D.vertex_count
    rotations = sum(1 for _ in vertex_rotations(D, 0))
    expected = {
        (RAW, surface): (rotations << (k - 1)) ** V for surface in "ONL"
    } | {
        (SIGMA, "O"): rotations ** V,
        (SIGMA, "N"): rotations ** V * (T.class_count - 1),
        (SIGMA, "L"): rotations ** V * T.class_count,
    } | {(DART, surface): rotations ** V for surface in "ONL"}
    for semantics in SEMANTICS:
        swept = {}
        for surface in "ONL":
            bound = ground_set_bound(F, semantics, surface)
            case = (source, semantics, surface)
            assert bound == expected[semantics, surface], case
            if bound > DEFAULT_ORACLE_CAP:
                with pytest.raises(CapExceeded, match=f"ground set bound {bound} exceeds"):
                    enumerate_embeddings(F, semantics, surface)
            elif bound <= REFERENCE_BUDGET:
                gs = enumerate_embeddings(F, semantics, surface)
                assert gs.space.size == bound, case
                swept[surface] = len(gs.keys)
            else:
                assert KeySpace(D, T, semantics, surface).size == bound, case
        if semantics == SIGMA:
            assert all(swept[s] == expected[SIGMA, s] for s in swept), source
        elif semantics == DART:
            assert all(swept[s] == (0 if s == "N" else rotations ** V) for s in swept), source
        elif swept:
            # every signed rotation system is a map, on O or on N
            assert swept["O"] + swept["N"] == swept["L"] == expected[RAW, "L"], source


def test_empty_dart_ground_set():
    fx = fixture("CUBE")
    gs = enumerate_embeddings(fx.flag_space, DART, "N")
    assert len(gs.keys) == 0 and gs.representatives_of(gs.space.realize(gs.codes)) == []
    oc = burnside_count(right_regular(fx.group), gs)
    assert oc.fixed_counts == (0,) * 8
    assert (oc.orbit_count, oc.orbit_sizes, tuple(oc.orbits)) == (0, (), ())


def test_missing_transported_key_is_an_internal_inconsistency():
    fx = fixture("C4")
    gs = enumerate_embeddings(fx.flag_space, RAW, "O")
    acting = right_regular(fx.group)
    oc = burnside_count(acting, gs)
    # drop the least key of an orbit with other members, which move onto it
    dropped = oc.leads[np.flatnonzero(np.array(oc.orbit_sizes) > 1)[0]]
    keep = np.arange(len(gs.codes)) != dropped
    holed = dataclasses.replace(
        gs,
        codes=gs.codes[keep],
        euler_characteristic=gs.euler_characteristic[keep],
        orientable=gs.orientable[keep],
    )
    assert len(holed.keys) == len(gs.keys) - 1
    with pytest.raises(InternalInconsistency, match="missing from the ground set"):
        burnside_count(acting, holed)


def test_twist_transport_is_a_class_bijection():
    fx = fixture("CUBE")
    gs = enumerate_embeddings(fx.flag_space, SIGMA, "N")
    full = acting_group(fx.group, fx.cayset, "full")
    for flag_map in extend_to_flags(full.rows, fx.flag_space).tolist():
        act = gs.space.compile(flag_map)
        assert sorted(act.twist_image.tolist()) == list(range(gs.space.twists))
