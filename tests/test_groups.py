import math

import numpy as np
import pytest

from cayleymaps import groups
from cayleymaps.errors import BadParameter, CapExceeded, NotAGroup
from cayleymaps.groups import build_group_from_table, direct_product, named_group, subgroup_closure
from cayleymaps.perm import conjugacy_classes_of, divisor_powers


def classes_of(G):
    return conjugacy_classes_of(G.table, G.inverses)


def _power(perm, k):
    """``perm`` composed with itself ``k`` times, one point at a time."""
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[x] for x in out]
    return out


def test_cyclic_tables():
    for n in (1, 2, 3, 7, 12):
        G = named_group("cyclic", n)
        assert G.order == n
        for a in range(n):
            for b in range(n):
                assert G.mul(a, b) == (a + b) % n
            assert G.mul(a, G.inv(a)) == 0


def test_table_is_a_read_only_array():
    G = named_group("dihedral", 12)
    assert G.table.dtype == np.int16 and G.inverses.dtype == np.int16
    with pytest.raises(ValueError):
        G.table[0, 0] = 1
    with pytest.raises(ValueError):
        G.inverses[0] = 1
    assert type(G.mul(7, 8)) is int and type(G.inv(7)) is int
    # the caller's array is copied, not frozen
    raw = np.array([[0, 1], [1, 0]])
    build_group_from_table(raw)
    assert raw.flags.writeable


def test_dihedral_structure():
    G = named_group("dihedral", 12)
    assert G.order == 12
    # six rotations r0..r5, six reflections s0..s5, reflections are involutions
    assert G.names[:6] == ("r0", "r1", "r2", "r3", "r4", "r5")
    assert G.names[6:] == ("s0", "s1", "s2", "s3", "s4", "s5")
    for s in range(6, 12):
        assert G.mul(s, s) == 0
    assert divisor_powers(G.table).order[1] == 6
    assert not all(G.mul(a, b) == G.mul(b, a) for a in range(12) for b in range(12))


def test_dihedral_rejects_odd_order():
    with pytest.raises(BadParameter):
        named_group("dihedral", 7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_order_and_inverses(n):
    G = named_group("symmetric", n)
    assert G.order == math.factorial(n)
    for g in range(G.order):
        assert G.mul(g, G.inv(g)) == 0


def test_elementary_abelian_is_xor():
    G = named_group("elementary_abelian_2", 3)
    assert G.order == 8
    for a in range(8):
        for b in range(8):
            assert G.mul(a, b) == a ^ b


def test_named_group_unknown_family():
    with pytest.raises(BadParameter):
        named_group("quaternion-ish", 8)


def test_group_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        named_group("symmetric", 8)  # 40320 > default cap 5040
    monkeypatch.setattr(groups, "DEFAULT_GROUP_CAP", 5)  # read at call time
    with pytest.raises(CapExceeded, match=r"^cyclic\(10\) has order 10 > cap 5$"):
        named_group("cyclic", 10)
    monkeypatch.setattr(groups, "DEFAULT_GROUP_CAP", 10)
    assert named_group("cyclic", 10).order == 10


def test_table_validation_rejects_junk():
    with pytest.raises(NotAGroup):
        build_group_from_table([])
    with pytest.raises(NotAGroup):
        build_group_from_table([[0, 1], [1, 2]])  # out of range
    with pytest.raises(NotAGroup):
        build_group_from_table([[0, 0], [1, 1]])  # rows not permutations
    # Z_4 written with the identity at position 1
    shifted = [[(a + b - 2) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(NotAGroup):
        build_group_from_table(shifted)


def test_table_validation_rejects_nonassociative_latin_square():
    # Latin square with two-sided identity 0 that fails associativity:
    # the smallest such quasigroups have order 5.
    ns = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup):
        build_group_from_table(ns)


def test_conjugacy_classes_s3():
    G = named_group("symmetric", 3)
    classes = classes_of(G)
    assert sum(len(c) for c in classes) == 6
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert [c[0] for c in classes] == sorted(c.min() for c in classes)
    for c in classes:
        assert len(set(divisor_powers(G.table).order[c].tolist())) == 1


def test_conjugacy_classes_d6():
    G = named_group("dihedral", 12)
    sizes = sorted(len(c) for c in classes_of(G))
    assert sizes == [1, 1, 2, 2, 3, 3]


def test_conjugacy_classes_abelian_are_singletons():
    G = named_group("elementary_abelian_2", 3)
    assert all(len(c) == 1 for c in classes_of(G))


def test_element_order_against_powers():
    G = named_group("dihedral", 12)
    orders = divisor_powers(G.table).order
    for g in range(G.order):
        o = int(orders[g])
        assert _power(G.table[g], o)[0] == 0
        assert all(_power(G.table[g], k)[0] != 0 for k in range(1, o))


def test_centralizer_and_closure():
    G = named_group("dihedral", 12)
    # r3 is central in D6
    assert (G.table[:, 3] == G.table[3]).all()
    assert subgroup_closure(G, [1]) == [0, 1, 2, 3, 4, 5]
    assert subgroup_closure(G, [6, 7]) == list(range(12))
    assert subgroup_closure(G, []) == [0]


def test_direct_product_orders():
    A = named_group("cyclic", 2)
    B = named_group("cyclic", 3)
    G = direct_product(A, B)
    assert G.order == 6
    assert all(G.mul(a, b) == G.mul(b, a) for a in range(6) for b in range(6))
