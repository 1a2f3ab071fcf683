import itertools

import numpy as np
import pytest

import cayleymaps
from cayleymaps import perm
from cayleymaps.cayley import build_flag_space, validate_cayley_set
from cayleymaps.errors import AxiomViolation, BadParameter
from cayleymaps.fixtures import fixture
from cayleymaps.groups import named_group
from cayleymaps.maps import (
    MapPermutation,
    inventories,
    inventory,
    is_orientable,
    map_automorphisms,
    orientation_preserving_automorphisms,
    validate_map,
)
from cayleymaps.rotations import (
    build_dart_structure,
    build_twist_classes,
    realize,
    realize_signed,
    signs_of_twists,
    vertex_rotations,
)


def k3_space():
    G = named_group("cyclic", 3)
    return build_flag_space(G, validate_cayley_set(G, (1, 2)))


def default_rotation(D):
    return tuple(tuple(D.darts_at(v)) for v in range(D.vertex_count))


def representatives(T):
    """Every twist class's reduced mask: the sets of free edges, in
    ``itertools.product`` order over the free edges ascending."""
    for bits in itertools.product((0, 1), repeat=len(T.free)):
        yield sum(1 << e for e, bit in zip(T.free, bits) if bit)


def twists_of_signs(D, signs):
    """The twist mask of a sign assignment: bit e is set where the two end
    signs of edge e agree."""
    return sum(1 << e for e, (d1, d2) in enumerate(D.edge_ends) if signs[d1] == signs[d2])


def conjugate(P, flag_map):
    """The flag permutation P carried along the flag bijection flag_map."""
    out = [0] * len(P)
    for f in range(len(P)):
        out[flag_map[f]] = flag_map[P[f]]
    return tuple(out)


# ---------------------------------------------------------------------------
# Map axioms
# ---------------------------------------------------------------------------

def test_axiom_ii_checked_first():
    F = k3_space()
    D = build_dart_structure(F)
    P = list(realize(D, default_rotation(D), 0).P)
    P[0], P[1] = P[1], P[0]
    with pytest.raises(AxiomViolation) as ei:
        validate_map(F, P)
    assert ei.value.axiom == "ii" and ei.value.witness == 0


def test_axiom_i_alpha_is_not_a_map():
    F = k3_space()
    with pytest.raises(AxiomViolation) as ei:
        validate_map(F, F.alpha)
    assert ei.value.axiom == "i"


def test_axiom_iii_identity_is_not_transitive():
    F = k3_space()
    with pytest.raises(AxiomViolation) as ei:
        validate_map(F, tuple(range(F.flag_count)))
    assert ei.value.axiom == "iii"


def test_axiom_witnesses_are_pinned():
    # Crafted breaks of a valid cube map; the batch kernel finds the first
    # failing check and the one-row walk names the same witness and message
    # as a flag-by-flag check.
    F = fixture("CUBE").flag_space
    D = build_dart_structure(F)
    P = list(realize(D, default_rotation(D), 0).P)
    swapped = P[:]
    swapped[30], swapped[31] = swapped[31], swapped[30]
    # P = alpha on vertex 3's flags keeps axiom (ii) and puts the first
    # alpha-pair inside one cycle at flag 18
    alpha_at_3 = P[:18] + list(F.alpha[18:24]) + P[24:]
    cases = [
        (swapped, "ii", 30, "map axiom (ii) fails at flag 30"),
        (alpha_at_3, "i", 18, "map axiom (i) fails at flag 18"),
        (list(range(F.flag_count)), "iii", 0, "group <alpha,beta,P> is not transitive"),
    ]
    for Q, axiom, witness, message in cases:
        with pytest.raises(AxiomViolation) as ei:
            validate_map(F, Q)
        assert (ei.value.axiom, ei.value.witness, str(ei.value)) == (axiom, witness, message)
    duplicated = P[:]
    duplicated[5] = duplicated[4]
    with pytest.raises(BadParameter, match="^P is not a permutation of the flags$"):
        validate_map(F, duplicated)
    out_of_range = P[:-1] + [F.flag_count]
    with pytest.raises(BadParameter, match="^P is not a permutation of the flags$"):
        validate_map(F, out_of_range)


def test_a_stack_fails_like_its_first_failing_row():
    # a stack is checked whole, but its first failing row alone names the
    # axiom and witness, exactly as when that row is validated by itself
    F = fixture("CUBE").flag_space
    D = build_dart_structure(F)
    P = list(realize(D, default_rotation(D), 0).P)
    swapped = P[:]
    swapped[30], swapped[31] = swapped[31], swapped[30]
    alpha_at_3 = P[:18] + list(F.alpha[18:24]) + P[24:]
    duplicated = P[:]
    duplicated[5] = duplicated[4]
    identity = list(range(F.flag_count))
    # a valid stack returns the surfaces of its rows: the default rotation
    # system of the cube is a torus with four faces
    surfaces = validate_map(F, np.array([P, P]))
    assert (surfaces.vertex_count.tolist(), surfaces.face_count.tolist(),
            surfaces.sides.tolist(), surfaces.euler_characteristic.tolist()) == (
        [8, 8], [4, 4], [2, 2], [0, 0])
    faces = np.array(P)[np.array(F.alpha)[np.array(F.beta)]]
    assert (surfaces.face_labels == perm.cycle_labels(faces)).all()
    for first, later in itertools.permutations([swapped, alpha_at_3, duplicated, identity], 2):
        with pytest.raises((AxiomViolation, BadParameter)) as alone:
            validate_map(F, first)
        with pytest.raises(type(alone.value)) as stacked:
            validate_map(F, np.array([P, first, P, later]))
        assert str(stacked.value) == str(alone.value)
        if isinstance(alone.value, AxiomViolation):
            assert (stacked.value.axiom, stacked.value.witness) == (
                alone.value.axiom, alone.value.witness)


def test_non_permutation_rejected():
    F = k3_space()
    with pytest.raises(BadParameter):
        validate_map(F, [0] * F.flag_count)
    with pytest.raises(BadParameter):
        validate_map(F, [0, 1])


# ---------------------------------------------------------------------------
# Inventory
# ---------------------------------------------------------------------------

def test_fig1_inventory():
    M = fixture("FIG1").map
    inv = inventory(M)
    assert inv.vertex_count == 4
    assert inv.edge_count == 6
    assert inv.face_count == 2
    assert inv.face_lengths == (4, 8)
    assert inv.euler_characteristic == 0
    assert inv.orientable
    assert inv.genus == 1


def test_k3_untwisted_is_the_sphere():
    F = k3_space()
    D = build_dart_structure(F)
    M = realize(D, default_rotation(D), 0)
    inv = inventory(M)
    assert (inv.vertex_count, inv.edge_count, inv.face_count) == (3, 3, 2)
    assert inv.face_lengths == (3, 3)
    assert inv.euler_characteristic == 2
    assert inv.orientable and inv.genus == 0


def test_k3_all_plus_signs_is_the_projective_plane():
    # literal all-plus signs twist every edge: chi = 1, crosscap 1
    F = k3_space()
    D = build_dart_structure(F)
    M = realize_signed(D, default_rotation(D), (0,) * 2 * D.edge_count)
    inv = inventory(M)
    assert (inv.vertex_count, inv.edge_count, inv.face_count) == (3, 3, 1)
    assert inv.face_lengths == (6,)
    assert inv.euler_characteristic == 1
    assert not inv.orientable
    assert inv.genus == 1


def test_vertex_and_face_cycles_come_in_conjugate_pairs():
    M = fixture("FIG1").map
    F = M.flag_space
    inv = inventory(M)
    Pf = [M.P[F.alpha[F.beta[f]]] for f in range(F.flag_count)]
    for p, conj, count in ((M.P, F.alpha, inv.vertex_count), (Pf, F.beta, inv.face_count)):
        cycles = perm.cycles(p, perm.cycle_labels(p))
        sets = {frozenset(cyc) for cyc in cycles}
        for cyc in cycles:
            mate = frozenset(conj[f] for f in cyc)
            assert mate in sets and mate != frozenset(cyc)
        assert len(cycles) == 2 * count
    face_flags = sorted(f for cyc in perm.cycles(Pf, perm.cycle_labels(Pf)) for f in cyc)
    assert face_flags == list(range(F.flag_count))
    assert sorted(Pf) == list(range(F.flag_count))


def test_euler_formula_across_twists():
    G = named_group("cyclic", 4)
    F = build_flag_space(G, validate_cayley_set(G, (1, 3)))
    D = build_dart_structure(F)
    T = build_twist_classes(D)
    for rho in itertools.product(*(vertex_rotations(D, v) for v in range(D.vertex_count))):
        for t in representatives(T):
            inv = inventory(realize(D, rho, t))
            assert inv.euler_characteristic == inv.vertex_count - inv.edge_count + inv.face_count
            assert inv.euler_characteristic <= 2
            if inv.orientable:
                assert inv.euler_characteristic % 2 == 0


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def test_fig1_automorphisms_and_freeness():
    M = fixture("FIG1").map
    auts = map_automorphisms(M)
    assert len(auts) == 8
    assert len(orientation_preserving_automorphisms(M)) == 4
    # the action on flags is free: every orbit has the full group size
    for f in range(M.flag_space.flag_count):
        assert len({tau[f] for tau in auts}) == 8


def test_inventories_of_a_stack_match_row_by_row():
    # rows of every surface and face count in one stack: the batch read of
    # counts and face lengths keeps each row to itself
    G = named_group("cyclic", 4)
    F = build_flag_space(G, validate_cayley_set(G, (1, 2, 3)))  # K4
    D = build_dart_structure(F)
    T = build_twist_classes(D)
    rows = [
        realize(D, rho, t).P
        for rho in itertools.product(*(vertex_rotations(D, v) for v in range(D.vertex_count)))
        for t in representatives(T)
    ]
    invs = inventories(F, np.array(rows))
    assert invs == [inventory(MapPermutation(flag_space=F, P=P)) for P in rows]
    assert len({(inv.face_count, inv.orientable) for inv in invs}) > 2


def test_automorphisms_form_a_group():
    M = fixture("FIG1").map
    auts = set(map_automorphisms(M))
    for a in auts:
        for b in auts:
            assert tuple(a[b[f]] for f in range(len(a))) in auts


# ---------------------------------------------------------------------------
# Rotation systems and twists
# ---------------------------------------------------------------------------

def test_twist_class_rank_is_vertices_minus_one():
    for name in ("K3", "C4", "C5", "CUBE"):
        D = build_dart_structure(fixture(name).flag_space)
        T = build_twist_classes(D)
        assert T.rank == D.vertex_count - 1
        assert T.class_count == 1 << (D.edge_count - D.vertex_count + 1)
        reps = list(representatives(T))
        assert len(reps) == T.class_count
        assert len(set(T.reduce(r) for r in reps)) == T.class_count


def test_orientable_iff_twist_class_trivial():
    for name in ("K3", "C4", "CUBE"):
        D = build_dart_structure(fixture(name).flag_space)
        T = build_twist_classes(D)
        rho = default_rotation(D)
        for t in representatives(T):
            assert is_orientable(realize(D, rho, t)) == (T.reduce(t) == 0)


def test_signs_and_twists_are_inverse_descriptions():
    D = build_dart_structure(fixture("C4").flag_space)
    rho = default_rotation(D)
    for t in range(1 << D.edge_count):
        signs = signs_of_twists(D, t)
        assert twists_of_signs(D, signs) == t
        assert realize_signed(D, rho, signs).P == realize(D, rho, t).P
    # all-plus literal signs mean every edge is twisted
    assert twists_of_signs(D, (0,) * 2 * D.edge_count) == (1 << D.edge_count) - 1


def test_vertex_coboundary_twists_are_invisible():
    # twisting exactly the edges at one vertex is a sign relabeling: the mask
    # reduces to zero, and conjugating the untwisted map by the flip of the
    # vertex's flag signs gives the map of the flipped signs, whose twist
    # mask is that coboundary
    D = build_dart_structure(fixture("K3").flag_space)
    T = build_twist_classes(D)
    rho = default_rotation(D)
    untwisted = signs_of_twists(D, 0)
    for v in range(D.vertex_count):
        cob = 0
        for d in D.darts_at(v):
            cob |= 1 << D.dart_edge[d]
        assert T.reduce(cob) == 0
        flip = [f ^ (D.vertex_of(f // 2) == v) for f in range(D.flag_space.flag_count)]
        flipped = [s ^ (D.vertex_of(d) == v) for d, s in enumerate(untwisted)]
        assert twists_of_signs(D, flipped) == cob
        conj = conjugate(realize(D, rho, 0).P, flip)
        assert conj == realize_signed(D, rho, flipped).P
        assert is_orientable(validate_map(D.flag_space, conj))


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------

def test_star_import_names_only_what_exists():
    # ``import *`` raises when ``__all__`` names something the package lacks
    namespace: dict = {}
    exec("from cayleymaps import *", namespace)
    assert set(cayleymaps.__all__) <= set(namespace)
    gone = {"all_rotation_systems", "grr_census", "canonical_side_class", "is_isomorphic",
            "construct_stable_map"}
    assert not gone & set(namespace)
