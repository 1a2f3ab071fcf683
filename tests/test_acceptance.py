"""Acceptance suite: one test per documented acceptance criterion.

Each test is self-contained and exact unless a tolerance is stated in the
criterion itself, so `pytest -v tests/test_acceptance.py` reads as a
pass/fail checklist of the package's headline guarantees.
"""

import dataclasses
import itertools
from fractions import Fraction
from math import factorial

import pytest

from cayleymaps import (
    burnside_count,
    census,
    compare_with_formula,
    elementary_abelian_census,
    enumerate_embeddings,
    fixture,
    inventory,
    map_automorphisms,
    named_group,
    sym_orientable_census,
    three_involution_census,
    validate_cayley_set,
    validate_map,
)
from cayleymaps.autaction import extend_to_flags, right_regular
from cayleymaps.errors import CapExceeded
from cayleymaps.formulas import phi_exact
from cayleymaps.oracle import DART, RAW, SIGMA, fixed_count
from cayleymaps.maps import is_orientable
from cayleymaps.perm import divisor_powers
from cayleymaps.rotations import (
    build_dart_structure,
    build_twist_classes,
    dart_map_of_flag_map,
    edge_map_of_dart_map,
    realize_signed,
)
from cayleymaps.special import class_size, sym_locally_census

CAYLEY_FIXTURES = ("K3", "C4", "C5", "CUBE")


def test_criterion_01_fig1_inventory():
    """The pinned K4-on-torus flag permutation validates and has the
    documented inventory: 4 vertices, 6 edges, 2 faces of lengths 4 and 8,
    Euler characteristic 0, orientable (genus 1)."""
    inv = inventory(fixture("FIG1").map)
    assert inv.vertex_count == 4
    assert inv.edge_count == 6
    assert inv.face_count == 2
    assert tuple(sorted(inv.face_lengths)) == (4, 8)
    assert inv.euler_characteristic == 0
    assert inv.orientable
    assert inv.genus == 1


def test_criterion_02_orientable_formula_equals_oracle():
    """The closed-form orientable census equals the Burnside oracle over
    rotation systems on every fixture; the cube value is 46 = (256+7*16)/8."""
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        report = compare_with_formula(fx.group, fx.cayset, surface="O")
        assert report.oracle_orbits == report.formula_total, name
        if name == "CUBE":
            assert report.formula_total == (256 + 7 * 16) // 8 == 46


def test_criterion_03_per_class_orientable_fixed_counts():
    """Every extended translation fixes exactly (|S|-1)!^(|G|/o) orientable
    rotation systems."""
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        k = len(fx.cayset.members)
        gs = enumerate_embeddings(fx.flag_space, SIGMA, "O")
        acting = right_regular(fx.group)
        orders = divisor_powers(fx.group.table).order  # row h translates by h
        for o, flag_map in zip(orders.tolist(), extend_to_flags(acting.rows, fx.flag_space)):
            assert fixed_count(flag_map, gs) == factorial(k - 1) ** (fx.group.order // o)


def test_criterion_04_burnside_integrality_and_double_count():
    """On every runnable semantics x surface x fixture combination the
    fixed-point sum divides evenly and the Burnside quotient equals the
    explicit union-find orbit count; the one over-cap combination refuses."""
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        acting = right_regular(fx.group)
        for semantics, surface in itertools.product((RAW, SIGMA, DART), "ONL"):
            if name == "CUBE" and semantics == RAW:
                with pytest.raises(CapExceeded):
                    enumerate_embeddings(fx.flag_space, semantics, surface)
                continue
            gs = enumerate_embeddings(fx.flag_space, semantics, surface)
            oc = burnside_count(acting, gs)
            assert sum(oc.fixed_counts) == oc.orbit_count * oc.acting_size
            assert sum(oc.orbit_sizes) == len(gs.keys)
            assert len(oc.orbit_sizes) == oc.orbit_count


def test_criterion_05_additivity():
    """Orientable plus non-orientable equals locally orientable, both for
    the closed forms (exact mode) and for the oracle orbit counts."""
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        totals = {
            s: census(fx.group, fx.cayset, surface=s).count.exact_value
            for s in "ONL"
        }
        assert totals["O"] + totals["N"] == totals["L"], name
        acting = right_regular(fx.group)
        orbits = {}
        for s in "ONL":
            gs = enumerate_embeddings(fx.flag_space, SIGMA, s)
            orbits[s] = burnside_count(acting, gs).orbit_count
        assert orbits["O"] + orbits["N"] == orbits["L"], name


# ---------------------------------------------------------------------------
# Criterion 06's witness: a map stabilized by a translation, on tuples
# ---------------------------------------------------------------------------

def _canonical(cycle):
    """A cyclic dart sequence rotated so its least entry comes first."""
    i = cycle.index(min(cycle))
    return tuple(cycle[i:]) + tuple(cycle[:i])


def _transport_rotations(D, dart_map, rho):
    """A rotation system moved along a dart bijection."""
    out = [None] * D.vertex_count
    for cycle in rho:
        image = [dart_map[d] for d in cycle]
        out[D.vertex_of(image[0])] = _canonical(image)
    return tuple(out)


def _transport_twists(edge_map, twists):
    return sum(1 << f for e, f in enumerate(edge_map) if (twists >> e) & 1)


def _twists_of_signs(D, signs):
    """Bit e is set where the two end signs of edge e agree."""
    return sum(1 << e for e, (d1, d2) in enumerate(D.edge_ends) if signs[d1] == signs[d2])


def _conjugate(P, flag_map):
    out = [0] * len(P)
    for f in range(len(P)):
        out[flag_map[f]] = flag_map[P[f]]
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class StableMap:
    P: tuple
    rotation_system: tuple
    signs: tuple
    twists: int
    commutes: bool  # conjugation by the lift fixes P exactly


def stable_map(theta, D, flag_map, orientable=False):
    """A map stabilized by the translation theta: the rotation at each
    vertex-orbit representative (its least vertex) is its darts in order,
    pushed around the orbit by the lifted translation.

    The default uses the plus side of every dart, which the sign-preserving
    lift fixes pointwise, so conjugation fixes P exactly.  The orientable
    variant leaves every edge untwisted; exact fixing then needs an
    equivariant splitting of the edge sides, which an edge orbit whose ends
    are swapped rules out, and then only the rotation system (hence the
    embedding class) is stabilized."""
    dart_map = dart_map_of_flag_map(D, flag_map)
    rho = [None] * D.vertex_count
    for rep in range(D.vertex_count):
        current, v = tuple(D.darts_at(rep)), rep
        while rho[v] is None:
            rho[v] = current
            current, v = _canonical([dart_map[d] for d in current]), theta[v]
    rho = tuple(rho)

    signs, equivariant = [0] * (2 * D.edge_count), True
    if orientable:
        # equivariant proper signs per edge orbit where the action permits
        signs = [-1] * (2 * D.edge_count)
        for a, b in D.edge_ends:
            if signs[a] != -1:  # on an orbit already split
                continue
            while signs[a] == -1:
                signs[a], signs[b] = 0, 1
                a, b = dart_map[a], dart_map[b]
            if signs[a] != 0:
                equivariant = False
                break
        if not equivariant:  # any proper splitting; the class is still fixed
            for d1, d2 in D.edge_ends:
                signs[d1], signs[d2] = 0, 1
    P = realize_signed(D, rho, signs).P
    exact = _conjugate(P, flag_map) == P
    assert exact or not equivariant, "an equivariant splitting failed to commute"
    return StableMap(P, rho, tuple(signs), _twists_of_signs(D, signs), exact)


def test_criterion_06_stable_map_witnesses():
    """For every extended translation a stabilized map exists: the generic
    construction is fixed exactly by the lift and its class lies in the
    fixed set; the orientable variant stabilizes a rotation system, and is
    fixed exactly unless the translation swaps the ends of an edge orbit,
    which on the cube happens exactly for the translations by S."""
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        F = fx.flag_space
        D = build_dart_structure(F)
        T = build_twist_classes(D)
        gs_l = enumerate_embeddings(F, SIGMA, "L")
        keys_l = set(gs_l.keys)
        gs_o = enumerate_embeddings(F, SIGMA, "O")
        keys_o = set(gs_o.keys)
        acting = right_regular(fx.group)
        for theta, flag_map in zip(acting.rows.tolist(), extend_to_flags(acting.rows, F).tolist()):
            dart_map = dart_map_of_flag_map(D, flag_map)
            edge_map = edge_map_of_dart_map(D, dart_map)

            sm = stable_map(theta, D, flag_map)
            validate_map(F, sm.P)
            assert sm.commutes
            assert _conjugate(sm.P, flag_map) == sm.P
            key = (sm.rotation_system, T.reduce(sm.twists))
            assert key in keys_l
            moved = (
                _transport_rotations(D, dart_map, key[0]),
                T.reduce(_transport_twists(edge_map, key[1])),
            )
            assert moved == key

            sm = stable_map(theta, D, flag_map, orientable=True)
            assert is_orientable(validate_map(F, sm.P))
            assert sm.twists == 0
            assert (sm.rotation_system, 0) in keys_o
            assert _transport_rotations(D, dart_map, sm.rotation_system) == \
                sm.rotation_system
            assert sm.commutes == (name != "CUBE" or theta[0] not in fx.cayset.members)
            # the conjugate is the map of the transported signs, whose twist
            # class is 0, so its SIGMA key is unchanged
            signs = [0] * len(sm.signs)
            for d, sign in enumerate(sm.signs):
                signs[dart_map[d]] = sign
            assert realize_signed(D, sm.rotation_system, signs).P == _conjugate(sm.P, flag_map)
            assert T.reduce(_twists_of_signs(D, signs)) == 0


def test_criterion_07_identity_class_factor_two():
    """Under the marked semantics the identity column of the locally
    orientable comparison is exactly twice the closed form,
    2 * 2^(edges - vertices) * (|S|-1)!^vertices, and every per-class ratio
    is a power of two."""
    for name in CAYLEY_FIXTURES:
        fx = fixture(name)
        nu, eps, k = fx.group.order, fx.flag_space.edge_count, len(fx.cayset.members)
        gs = enumerate_embeddings(fx.flag_space, SIGMA, "L")
        assert len(gs.keys) == 2 * 2 ** (eps - nu) * factorial(k - 1) ** nu

        report = compare_with_formula(fx.group, fx.cayset, surface="L")
        for line in report.lines:
            if line.stats.order == 1:
                assert line.ratio == Fraction(2), name
            num, den = line.ratio.numerator, line.ratio.denominator
            assert num & (num - 1) == 0 and den & (den - 1) == 0, (name, line.ratio)


def test_criterion_08_map_automorphisms_act_freely():
    """On every orbit representative produced for K3 and C4 the
    automorphism group acts freely: each flag's orbit has length |Aut M|."""
    for name in ("K3", "C4"):
        fx = fixture(name)
        acting = right_regular(fx.group)
        for semantics in (SIGMA, RAW):
            gs = enumerate_embeddings(fx.flag_space, semantics, "L")
            oc = burnside_count(acting, gs)
            for M, _ in oc.orbits:
                auts = map_automorphisms(M)
                for f in range(fx.flag_space.flag_count):
                    assert len({a[f] for a in auts}) == len(auts)


def test_criterion_09_elementary_abelian_specialization():
    """The three-term closed form agrees with the generic class sum and the
    oracle at n = 3, and with the generic class sum in exact big-integer
    arithmetic at n = 5 where the displayed value is
    ((k-1)!^32 + 31 (k-1)!^16) / 32."""
    closed = elementary_abelian_census(3, (1, 2, 4), "O").total.exact_value
    fx = fixture("CUBE")
    generic = census(fx.group, fx.cayset, surface="O").count.exact_value
    oracle = compare_with_formula(fx.group, fx.cayset, surface="O").oracle_orbits
    assert closed == generic == oracle == 46

    S5 = (1, 2, 4, 8, 16)
    displayed = (factorial(4) ** 32 + 31 * factorial(4) ** 16) // 32
    closed = elementary_abelian_census(5, S5, "O").total.exact_value
    G5 = named_group("elementary_abelian_2", 5)
    generic = census(G5, validate_cayley_set(G5, S5), surface="O").count.exact_value
    assert closed == displayed == generic


def test_criterion_10_symmetric_group_machinery():
    """Partition machinery and the symmetric-group censuses: the class
    table of Sigma_8 has 22 partitions, class sizes partition n! for n <= 8,
    the n = 3 census equals a brute-force sum over all six permutations, and
    exact and log2 modes agree to 1e-9 relative for n <= 8."""
    assert len(sym_orientable_census(8).rows) == 22
    for n in range(1, 9):
        rows = sym_orientable_census(n).rows
        assert sum(class_size(n, rows.partition(r)) for r in range(len(rows))) == factorial(n)

    brute = sum(
        1 << (6 // _order(vm))
        for vm in itertools.permutations(range(3))
    ) // 6
    assert sym_orientable_census(3).total.exact_value == int(brute)

    for n in range(1, 9):
        exact = float(sym_orientable_census(n, "exact").total.log2_value)
        log2 = float(sym_orientable_census(n, "log2").total.log2_value)
        assert log2 == pytest.approx(exact, rel=1e-9), n
    exact = float(sym_locally_census(7, "exact").total.log2_value)
    log2 = float(sym_locally_census(7, "log2").total.log2_value)
    assert log2 == pytest.approx(exact, rel=1e-9)


def _order(vm):
    """The least k >= 1 with vm^k the identity, one product at a time."""
    k, power = 1, tuple(vm)
    while power != tuple(range(len(vm))):
        k, power = k + 1, tuple(vm[v] for v in power)
    return k


def test_criterion_11_three_involution_consistency():
    """On the dihedral group of order 12 with three reflections the
    specialized orientable formula reproduces the generic census term by
    term, and the commuting-element violations are detected and labeled."""
    G = named_group("dihedral", 12)
    S = (6, 7, 8)
    res = three_involution_census(G, S, "O")
    cres = census(G, validate_cayley_set(G, S), surface="O")

    by_rep = {
        cres.acting.element(st.row)[0]: (st, phi)
        for st, phi in zip(cres.classes, cres.phi_values)
    }
    for row in res.rows:
        st, phi = by_rep[row.representative]
        assert row.class_size == st.class_size
        assert row.order == st.order
        assert 1 << row.base_exponent == phi == phi_exact(st, "O", 3)
    assert res.total.exact_value == cres.count.exact_value == 382

    assert not res.hypothesis_ok
    assert res.violations == ((3, 6), (9, 6), (3, 7), (10, 7), (3, 8), (11, 8))
    names = {G.name_of(t) for t, _ in res.violations}
    assert names == {"r3", "s3", "s4", "s5"}
