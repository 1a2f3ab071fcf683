"""The one-labelling map check against the two passes it replaces.

``maps._check`` labels P, the face permutation and the sides of a stack
once each and reads every axiom and inventory from them; axiom (iii) comes
from the sides.  The reference below is the earlier pair of passes, kept
here only as a test oracle: ``axiom_failures`` (a P labelling plus a
three-generator orbit pass for (iii)) and ``surface_rows`` (a second P
labelling, the face labelling and a <P, alpha beta> orbit pass), with the
one-row witness walk of ``validate_map``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleymaps import maps, perm
from cayleymaps.errors import AxiomViolation, BadParameter, InternalInconsistency
from cayleymaps.fixtures import fixture
from cayleymaps.maps import AXIOM_I, AXIOM_II, AXIOM_III, NOT_A_PERMUTATION, validate_map
from cayleymaps.oracle import SEMANTICS, KeySpace
from cayleymaps.rotations import build_dart_structure, build_twist_classes

# ---------------------------------------------------------------------------
# Reference: the two passes, as they stood before the checks were fused
# ---------------------------------------------------------------------------


def reference_axiom_failures(F, rows):
    n = F.flag_count
    alpha, beta = np.array(F.alpha), np.array(F.beta)
    fail = np.zeros(len(rows), dtype=np.int8)
    points = np.arange(n)
    is_perm = (np.sort(rows, axis=1) == points).all(axis=1)
    fail[~is_perm] = NOT_A_PERMUTATION
    rows = np.where(is_perm[:, None], rows, points)
    ii = ~(np.take_along_axis(rows, alpha[rows], 1) == alpha).all(axis=1)
    labels = perm.cycle_labels(rows)
    i = (labels == labels[:, alpha]).any(axis=1)
    iii = (perm.orbit_labels([rows, alpha, beta], labels) != 0).any(axis=1)
    for code, bad in ((AXIOM_II, ii), (AXIOM_I, i), (AXIOM_III, iii)):
        fail[(fail == 0) & bad] = code
    return fail


def reference_paired(labels, perms, conj):
    mate = labels[:, conj]
    return ((mate == np.take_along_axis(mate, perms, 1)) & (mate != labels)).all(axis=1)


def reference_surface_rows(F, rows):
    n = F.flag_count
    alpha, beta = np.array(F.alpha), np.array(F.beta)
    alpha_beta = alpha[beta]
    points = np.arange(n)
    faces = rows[:, alpha_beta]
    vl, fl = perm.cycle_labels(rows), perm.cycle_labels(faces)
    sides = np.count_nonzero(perm.orbit_labels([rows, alpha_beta], vl) == points, axis=1)
    nu = np.count_nonzero(vl == points, axis=1) // 2
    phi = np.count_nonzero(fl == points, axis=1) // 2
    chi = nu - n // 4 + phi
    consistent = (
        reference_paired(vl, rows, alpha) & reference_paired(fl, faces, beta)
        & ((sides == 1) | (sides == 2))
        & np.where(sides == 2, chi % 2 == 0, 2 - chi >= 1)
    )
    if not consistent.all():
        raise InternalInconsistency("map inventory invariants violated")
    return nu, phi, fl, sides, chi


def reference_raise(F, code, P):
    n = F.flag_count
    if code == NOT_A_PERMUTATION:
        raise BadParameter("P is not a permutation of the flags")
    if code == AXIOM_II:
        f = next(f for f in range(n) if P[F.alpha[P[f]]] != F.alpha[f])
        raise AxiomViolation("ii", f)
    if code == AXIOM_I:
        for cyc in perm.cycles(P, perm.cycle_labels(P)):
            cset = set(cyc)
            for f in cyc:
                if F.alpha[f] in cset:
                    raise AxiomViolation("i", f)
    raise AxiomViolation("iii", 0, "group <alpha,beta,P> is not transitive")


# ---------------------------------------------------------------------------
# Stacks: realized maps of every semantics mixed with crafted bad rows
# ---------------------------------------------------------------------------

FIXTURES = ("K3", "C4", "CUBE")
SPACES = {}


def key_space(name, semantics):
    if (name, semantics) not in SPACES:
        D = build_dart_structure(fixture(name).flag_space)
        SPACES[name, semantics] = KeySpace(D, build_twist_classes(D), semantics, "L")
    return SPACES[name, semantics]


def block(F, v):
    """The flags of vertex v: realized maps keep each vertex's 2k flags."""
    k = build_dart_structure(F).degree
    return slice(2 * k * v, 2 * k * (v + 1))


def craft(F, kind, P, draw):
    """A copy of the valid row P, or of the identity, broken as ``kind`` says."""
    n = F.flag_count
    V = n // (2 * build_dart_structure(F).degree)
    Q = P.copy()
    if kind == "valid":
        return Q
    if kind == "duplicate":
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        Q[j] = Q[k]
    elif kind == "out_of_range":
        Q[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, n, n + 5]))
    elif kind == "swap":  # breaks (ii), almost always
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        Q[j], Q[k] = Q[k], Q[j]
    elif kind == "alpha_block":  # P = alpha at one vertex keeps (ii), breaks (i)
        b = block(F, draw(st.integers(0, V - 1)))
        Q[b] = np.array(F.alpha)[b]
    elif kind == "identity":  # keeps (i) and (ii), not transitive
        Q = np.arange(n)
    elif kind == "identity_blocks":  # fixed flags at some vertices
        for v in draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=V, unique=True)):
            Q[block(F, v)] = np.arange(n)[block(F, v)]
    elif kind == "identity_swap":  # breaks (ii) and (iii) together
        Q = np.arange(n)
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        Q[j], Q[k] = Q[k], Q[j]
    return Q


KINDS = ("valid", "duplicate", "out_of_range", "swap", "alpha_block", "identity",
         "identity_blocks", "identity_swap")


@st.composite
def stacks(draw):
    name = draw(st.sampled_from(FIXTURES))
    F = fixture(name).flag_space
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        space = key_space(name, draw(st.sampled_from(SEMANTICS)))
        code = draw(st.integers(0, space.size - 1))
        P = space.realize(np.array([code], dtype=np.int64))[0].astype(np.int64)
        kind = draw(st.sampled_from(KINDS + ("valid", "valid")))
        rows.append(craft(F, kind, P, draw))
    as_int16 = draw(st.booleans())
    return F, np.array(rows, dtype=np.int16 if as_int16 else np.int64)


def assert_matches_reference(F, rows):
    fail, surfaces, consistent = maps._check(F, rows)
    expected = reference_axiom_failures(F, rows)
    assert fail.tolist() == expected.tolist()
    valid = np.flatnonzero(expected == 0)
    assert consistent[valid].all()
    nu, phi, fl, sides, chi = reference_surface_rows(F, rows[valid].astype(np.int64))
    assert surfaces.vertex_count[valid].tolist() == nu.tolist()
    assert surfaces.face_count[valid].tolist() == phi.tolist()
    assert (surfaces.face_labels[valid] == fl).all()
    assert surfaces.sides[valid].tolist() == sides.tolist()
    assert surfaces.euler_characteristic[valid].tolist() == chi.tolist()

    bad = np.flatnonzero(expected)
    if len(bad) == 0:
        assert isinstance(validate_map(F, rows), maps.SurfaceRows)
        return
    with pytest.raises((AxiomViolation, BadParameter)) as want:
        reference_raise(F, expected[bad[0]], rows[bad[0]].tolist())
    with pytest.raises(type(want.value)) as got:
        validate_map(F, rows)
    assert str(got.value) == str(want.value)
    if isinstance(want.value, AxiomViolation):
        assert (got.value.axiom, got.value.witness) == (want.value.axiom, want.value.witness)


@settings(deadline=None, max_examples=150)
@given(stacks())
def test_one_labelling_matches_the_two_passes(stack):
    assert_matches_reference(*stack)


def test_every_crafted_kind_reaches_its_check():
    # the crafted kinds cover every failure code, (iii) on rows that keep
    # (i) and (ii), and the (ii)-before-(iii) order on a row breaking both
    F = fixture("CUBE").flag_space
    n = F.flag_count
    P = key_space("CUBE", "sigma").realize(np.array([77], dtype=np.int64))[0].astype(np.int64)
    swapped, both = P.copy(), np.arange(n)
    swapped[30], swapped[31] = swapped[31], swapped[30]
    both[0], both[2] = both[2], both[0]
    alpha_at_3 = P.copy()
    alpha_at_3[18:24] = F.alpha[18:24]
    fixed_at_01 = P.copy()  # fixed flags at vertices 0 and 1: three sides
    fixed_at_01[:12] = np.arange(12)
    duplicated = P.copy()
    duplicated[5] = duplicated[4]
    rows = np.array([P, duplicated, swapped, alpha_at_3, np.arange(n), both, fixed_at_01])
    fail, surfaces, _ = maps._check(F, rows)
    assert fail.tolist() == [0, NOT_A_PERMUTATION, AXIOM_II, AXIOM_I, AXIOM_III, AXIOM_II, AXIOM_III]
    assert surfaces.sides[-1] == 3
    assert reference_axiom_failures(F, rows).tolist() == maps._check(F, rows)[0].tolist()
    for lo in range(len(rows)):
        assert_matches_reference(F, rows[lo:])


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("semantics", SEMANTICS)
def test_realized_chunks_match_the_two_passes(name, semantics):
    # a whole chunk of realized keys per fixture and semantics, and the same
    # chunk with every fifth row broken in turn
    space = key_space(name, semantics)
    F = fixture(name).flag_space
    codes = np.arange(space.size, dtype=np.int64)[::max(1, space.size // 300)]
    rows = space.realize(codes)
    assert_matches_reference(F, rows)
    broken = rows.astype(np.int64)
    broken[::5] = np.arange(F.flag_count)
    broken[1::5, :2] = broken[1::5, 1::-1]
    assert_matches_reference(F, broken)
