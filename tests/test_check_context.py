"""The map check through a reused ``maps.CheckContext`` against the
allocating kernel it replaces.

``reference_check`` below is ``maps._check`` as it stood before the check
context: every index array is allocated per stack, the points are int64,
and axiom (i) and the vertex pairing gather the P labels' alpha-images
separately.  It is kept here only as a test oracle.  Stacks are realized
keys of every semantics on the cube and K5, broken in seeded ways, and the
comparison runs inside ``validate_map``, ``inventories`` and
``enumerate_embeddings`` by wrapping ``maps._check``.
"""

import tracemalloc

import numpy as np
import pytest

from cayleymaps import maps, perm
from cayleymaps.cayley import build_flag_space, validate_cayley_set
from cayleymaps.errors import AxiomViolation, BadParameter
from cayleymaps.fixtures import fixture
from cayleymaps.groups import named_group
from cayleymaps.maps import (
    AXIOM_I,
    AXIOM_II,
    AXIOM_III,
    NOT_A_PERMUTATION,
    CheckContext,
    SurfaceRows,
    inventories,
    validate_map,
)
from cayleymaps.oracle import DART, RAW, ROW_CHUNK, SEMANTICS, SIGMA, KeySpace, enumerate_embeddings
from cayleymaps.rotations import build_dart_structure, build_twist_classes

# ---------------------------------------------------------------------------
# Reference: the allocating check
# ---------------------------------------------------------------------------


def reference_paired(labels, at, conj):
    mate = labels[:, conj]
    return ((mate == mate.ravel()[at].reshape(mate.shape)) & (mate != labels)).all(axis=1)


def reference_check(F, rows):
    m, n = rows.shape
    alpha, beta = np.array(F.alpha), np.array(F.beta)
    points = np.arange(n)
    is_perm = (np.sort(rows, axis=1) == points).all(axis=1)
    if not is_perm.all():
        rows = np.where(is_perm[:, None], rows, points)

    faces = rows[:, alpha[beta]]
    at_p, at_f = perm.flat_index(rows), perm.flat_index(faces)
    vl, fl = perm.cycle_labels(rows, at_p), perm.cycle_labels(faces, at_f)
    side = perm.orbit_labels([rows, faces], np.minimum(vl, fl), [at_p, at_f])

    ii = ~(rows[:, alpha].ravel()[at_p].reshape(m, n) == alpha).all(axis=1)
    i = (vl == vl[:, alpha]).any(axis=1)
    iii = ((side != 0) & (side != side[:, alpha[:1]])).any(axis=1)
    fail = np.where(is_perm, 0, NOT_A_PERMUTATION).astype(np.int8)
    for code, bad in ((AXIOM_II, ii), (AXIOM_I, i), (AXIOM_III, iii)):
        fail[(fail == 0) & bad] = code

    sides = np.count_nonzero(side == points, axis=1)
    nu = np.count_nonzero(vl == points, axis=1) // 2
    phi = np.count_nonzero(fl == points, axis=1) // 2
    chi = nu - n // 4 + phi
    consistent = (
        reference_paired(vl, at_p, alpha) & reference_paired(fl, at_f, beta)
        & ((sides == 1) | (sides == 2))
        & np.where(sides == 2, chi % 2 == 0, 2 - chi >= 1)
    )
    return fail, SurfaceRows(nu, phi, fl, sides, chi), consistent


def assert_same_check(got, want):
    """Fail codes, every surface field and the invariants, on every row
    (failing rows included: both read the same labelling of them)."""
    (fail, surfaces, consistent), (want_fail, want_surfaces, want_consistent) = got, want
    assert fail.tolist() == want_fail.tolist()
    assert consistent.tolist() == want_consistent.tolist()
    for field in ("vertex_count", "face_count", "face_labels", "sides", "euler_characteristic"):
        assert getattr(surfaces, field).tolist() == getattr(want_surfaces, field).tolist(), field


# ---------------------------------------------------------------------------
# Seeded stacks on the cube and K5
# ---------------------------------------------------------------------------


def k5_space():
    G = named_group("cyclic", 5)
    return build_flag_space(G, validate_cayley_set(G, (1, 2, 3, 4)))


SPACES = {"CUBE": lambda: fixture("CUBE").flag_space, "K5": k5_space}
KEY_SPACES = {}


def key_space(name, semantics):
    if (name, semantics) not in KEY_SPACES:
        D = build_dart_structure(SPACES[name]())
        KEY_SPACES[name, semantics] = KeySpace(D, build_twist_classes(D), semantics, "L")
    return KEY_SPACES[name, semantics]


def break_row(F, P, kind, rng):
    """A copy of the valid row P broken as ``kind`` says."""
    n = F.flag_count
    k = build_dart_structure(F).degree
    Q = P.copy()
    j, i = rng.choice(n, size=2, replace=False)
    if kind == "duplicate":  # not a permutation
        Q[j] = Q[i]
    elif kind == "out_of_range":
        Q[j] = rng.choice([-1, n, n + 5])
    elif kind == "swap":  # breaks (ii), almost always
        Q[j], Q[i] = Q[i], Q[j]
    elif kind == "alpha_block":  # P = alpha at one vertex keeps (ii), breaks (i)
        v = slice(2 * k * (j // (2 * k)), 2 * k * (j // (2 * k) + 1))
        Q[v] = np.array(F.alpha)[v]
    elif kind == "identity":  # keeps (i) and (ii), one side per flag pair: (iii)
        Q = np.arange(n)
    elif kind == "identity_block":  # fixed flags at one vertex: (iii)
        v = slice(2 * k * (j // (2 * k)), 2 * k * (j // (2 * k) + 1))
        Q[v] = np.arange(n)[v]
    return Q


KINDS = ("valid", "duplicate", "out_of_range", "swap", "alpha_block", "identity", "identity_block")


def seeded_stack(name, semantics, seed, size, dtype):
    """``size`` realized keys of one semantics, about half of them broken."""
    rng = np.random.default_rng(seed)
    F = SPACES[name]()
    space = key_space(name, semantics)
    codes = rng.integers(0, space.size, size=size, dtype=np.int64)
    rows = space.realize(codes).astype(np.int64)
    kinds = rng.choice(KINDS + ("valid",) * 6, size=size)
    return F, np.array([break_row(F, P, kind, rng) for P, kind in zip(rows, kinds)], dtype=dtype)


def spy(monkeypatch):
    """Wrap ``maps._check`` so every stack it checks is compared with the
    reference; returns the contexts it was given, one per call."""
    contexts, check = [], maps._check

    def compared(F, rows, context=None):
        got = check(F, rows, context)
        assert_same_check(got, reference_check(F, rows))
        contexts.append(context)
        return got

    monkeypatch.setattr(maps, "_check", compared)
    return contexts


STACKS = [(name, semantics, seed) for name in SPACES for semantics in SEMANTICS for seed in range(3)]


@pytest.mark.parametrize("name, semantics, seed", STACKS)
@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_a_reused_context_checks_like_the_allocating_kernel(name, semantics, seed, dtype):
    # stacks of 40, 1 and 0 rows, then the first again, through one context
    F, rows = seeded_stack(name, semantics, seed, 40, dtype)
    context = CheckContext(F, rows.dtype, len(rows))
    for stack in (rows, rows[:1], rows[:0], rows):
        assert_same_check(maps._check(F, stack, context), reference_check(F, stack))
        assert_same_check(maps._check(F, stack), reference_check(F, stack))


def test_the_seeded_stacks_reach_every_check():
    fails = set()
    for name, semantics, seed in STACKS:
        fails |= set(reference_check(*seeded_stack(name, semantics, seed, 40, np.int16))[0].tolist())
    assert fails == {0, NOT_A_PERMUTATION, AXIOM_II, AXIOM_I, AXIOM_III}


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("semantics", SEMANTICS)
def test_validate_map_and_inventories_check_like_the_reference(monkeypatch, name, semantics):
    contexts = spy(monkeypatch)
    F, rows = seeded_stack(name, semantics, 7, 60, np.int16)
    with pytest.raises((AxiomViolation, BadParameter)):
        validate_map(F, rows)
    valid = rows[reference_check(F, rows)[0] == 0]
    assert len(valid)
    assert isinstance(validate_map(F, valid), SurfaceRows)
    validate_map(F, valid[0])
    validate_map(F, valid[:0])
    assert len(inventories(F, valid)) == len(valid)
    assert inventories(F, valid[:1])[0] == inventories(F, valid)[0]
    assert inventories(F, []) == []
    # one context per call, built for the call's own stack
    assert len(contexts) == 8 and contexts == [None] * 8


@pytest.mark.parametrize("name, semantics, surface, chunks", [
    ("CUBE", SIGMA, "L", 16),
    ("CUBE", DART, "L", 1),
    ("K5", SIGMA, "O", 16),  # 7,776 keys: a last chunk of 96 rows
    ("K5", DART, "L", 16),
    ("C5", RAW, "L", 1),  # RAW on the cube (2^24 keys) or K5 is over the oracle cap
])
def test_enumeration_checks_every_chunk_through_one_context(monkeypatch, name, semantics, surface, chunks):
    contexts = spy(monkeypatch)
    F = SPACES[name]() if name in SPACES else fixture(name).flag_space
    gs = enumerate_embeddings(F, semantics, surface)
    assert len(contexts) == chunks == -(-gs.space.size // ROW_CHUNK)
    assert contexts[0] is not None and all(c is contexts[0] for c in contexts)
    assert contexts[0].index.shape == (4, min(ROW_CHUNK, gs.space.size) * F.flag_count)


# ---------------------------------------------------------------------------
# Memory: a reused context allocates no index array per chunk
# ---------------------------------------------------------------------------


def test_a_second_chunk_through_a_reused_context_raises_no_peak():
    F = fixture("CUBE").flag_space
    space = key_space("CUBE", SIGMA)
    first, second = (space.realize(np.arange(lo, lo + ROW_CHUNK, dtype=np.int64)) for lo in (0, ROW_CHUNK))
    index_array = first.size * np.dtype(np.intp).itemsize
    context = CheckContext(F, first.dtype, ROW_CHUNK)
    tracemalloc.start()
    try:
        validate_map(F, first, context)
        _, after_first = tracemalloc.get_traced_memory()
        validate_map(F, second, context)
        _, after_second = tracemalloc.get_traced_memory()
        # the chunk's own peak above what was live before it: its int16
        # labellings alone (the allocating kernel's index arrays took it to
        # more than five index arrays)
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        validate_map(F, second, context)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after_second - after_first < index_array
    assert peak - live < 3 * index_array
