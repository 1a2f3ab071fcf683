"""The array group layer against the tuple implementation it replaced.

The reference below is the earlier tuple/Python-loop code, kept verbatim in
spirit: greedy generators with a Python-set closure, element orders and
powers by repeated multiplication, conjugacy classes with their element
orders, subgroup closure by breadth-first search, cycle names by walking,
and the right regular representation and its products by tuple
composition.  Tables are relabelled at random (0 stays the identity), so
the greedy generators and the class order are exercised away from the
named families' own numbering.
"""

import itertools
import random

import numpy as np
import pytest

from cayleymaps.autaction import product_group, right_regular
from cayleymaps.errors import BadParameter, InternalInconsistency, NotAGroup
from cayleymaps.groups import (
    _greedy_generators,
    build_group_from_table,
    direct_product,
    named_group,
    subgroup_closure,
)
from cayleymaps.perm import PermGroup, conjugacy_classes_of, divisor_powers


# ---------------------------------------------------------------------------
# Reference: tuples of tuples and Python loops
# ---------------------------------------------------------------------------

def ref_greedy_generators(table):
    n = len(table)
    gens = []
    closure = {0}
    while len(closure) < n:
        g = min(set(range(n)) - closure)
        gens.append(g)
        frontier = [g]
        closure.add(g)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(closure):
                    for c in (table[a][b], table[b][a]):
                        if c not in closure:
                            closure.add(c)
                            nxt.append(c)
            frontier = nxt
    return gens


def ref_element_order(table, g):
    k, acc = 1, g
    while acc != 0:
        acc = table[acc][g]
        k += 1
    return k


def ref_power(table, g, k):
    acc = 0
    for _ in range(k):
        acc = table[acc][g]
    return acc


def _power(perm, k):
    """``perm`` composed with itself ``k`` times, one point at a time."""
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[x] for x in out]
    return out


def ref_conjugacy_classes(table, inverses):
    """(representative, members, element order), by least member."""
    n = len(table)
    seen = set()
    out = []
    for g in range(n):
        if g in seen:
            continue
        members = sorted({table[table[a][g]][inverses[a]] for a in range(n)})
        seen.update(members)
        out.append((members[0], tuple(members), ref_element_order(table, g)))
    return out


def ref_subgroup_closure(table, gens):
    closure = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = table[a][g]
                if b not in closure:
                    closure.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(closure)


def ref_compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def ref_cycle_name(p):
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def ref_right_regular(table):
    n = len(table)
    return [tuple(table[t][h] for t in range(n)) for h in range(n)]


def ref_product_group(regular, complement):
    out = {ref_compose(r, h) for r in regular for h in complement}
    if len(out) != len(regular) * len(complement):
        raise InternalInconsistency("regular part and complement overlap")
    return sorted(out)


# ---------------------------------------------------------------------------
# Seeded tables
# ---------------------------------------------------------------------------

def relabelled(G, rng):
    """The table of G under a random relabelling that keeps 0 the identity."""
    n = G.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(G.table.tolist()):
        for b, c in enumerate(row):
            table[perm[a]][perm[b]] = perm[c]
    return table


def seeded_group(seed):
    rng = random.Random(seed)
    c = lambda n: named_group("cyclic", n)  # noqa: E731
    d = lambda n: named_group("dihedral", n)  # noqa: E731
    G = rng.choice([
        lambda: c(rng.randint(1, 60)),
        lambda: d(2 * rng.randint(1, 30)),
        lambda: direct_product(c(rng.randint(2, 5)), c(rng.randint(2, 12))),
        lambda: direct_product(d(2 * rng.randint(2, 5)), c(rng.randint(2, 6))),
        lambda: direct_product(c(2), d(2 * rng.randint(2, 15))),
    ])()
    return build_group_from_table(relabelled(G, rng)), rng


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_classes_orders_and_powers_match_the_reference(seed):
    G, _ = seeded_group(seed)
    table, inverses = G.table.tolist(), G.inverses.tolist()
    assert inverses == [row.index(0) for row in table]
    assert _greedy_generators(G.table) == ref_greedy_generators(table)

    classes = conjugacy_classes_of(G.table, G.inverses)
    reps = [int(c[0]) for c in classes]
    orders = divisor_powers(G.table).order
    got = [(rep, tuple(c.tolist()), o) for rep, c, o in zip(reps, classes, orders[reps].tolist())]
    assert got == ref_conjugacy_classes(table, inverses)

    for g in range(G.order):
        o = ref_element_order(table, g)
        assert orders[g] == o
        assert [int(_power(G.table[g], k)[0]) for k in range(2 * o + 1)] == [
            ref_power(table, g, k) for k in range(2 * o + 1)
        ]


@pytest.mark.parametrize("seed", SEEDS)
def test_closures_match_the_reference(seed):
    G, rng = seeded_group(seed)
    table = G.table.tolist()
    for size in (0, 1, 1, 2, 2, 3):
        gens = rng.sample(range(G.order), min(size, G.order))
        assert subgroup_closure(G, gens) == ref_subgroup_closure(table, gens)


@pytest.mark.parametrize("seed", SEEDS)
def test_right_regular_and_products_match_the_reference(seed):
    G, rng = seeded_group(seed)
    table = G.table.tolist()
    assert [tuple(a) for a in right_regular(G).rows.tolist()] == ref_right_regular(table)

    # t -> t^-1 a, and a left translation t -> xt: neither need commute with R(G)
    n = G.order
    a, x = rng.randrange(n), rng.randrange(n)
    flip = tuple(table[G.inv(t)][a] for t in range(n))
    left = tuple(table[x])
    for H in ([tuple(range(n))], [tuple(range(n)), flip], [tuple(range(n)), left]):
        try:
            expected = ref_product_group(ref_right_regular(table), H)
        except InternalInconsistency as e:
            with pytest.raises(InternalInconsistency, match=str(e)):
                product_group(G, H)
            continue
        pool = set(expected)
        if any(ref_compose(p, q) not in pool for p in expected for q in expected):
            with pytest.raises(BadParameter, match="^acting set is not closed under composition$"):
                product_group(G, H)
            continue
        assert [tuple(p) for p in product_group(G, H).rows.tolist()] == expected


@pytest.mark.parametrize("seed", range(10))
def test_right_regular_read_off_the_table_is_the_searched_group(seed):
    # the columns of the table, taken with the transposed table and G's
    # inverses, are the group a search over the same maps finds
    G, rng = seeded_group(seed)
    named = [
        named_group("cyclic", rng.randint(1, 30)),
        named_group("dihedral", 2 * rng.randint(1, 15)),
        named_group("symmetric", 4),
        direct_product(named_group("dihedral", 6), named_group("cyclic", rng.randint(2, 9))),
        build_group_from_table(relabelled(named_group("symmetric", 4), rng)),
    ]
    for K in named + [G]:
        fast, searched = right_regular(K), PermGroup(K.table.T.tolist())
        assert np.array_equal(fast.rows, searched.rows)
        assert np.array_equal(fast.table, searched.table)
        assert np.array_equal(fast.inverse, searched.inverse)
        assert fast.find(searched.rows).tolist() == list(range(K.order))
        rolled = np.roll(fast.rows, 1, axis=1)  # members or strangers alike
        assert fast.find(rolled).tolist() == searched.find(rolled).tolist()


def test_symmetric4_matches_the_reference():
    G = named_group("symmetric", 4)
    elems = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[ref_compose(a, b)] for b in elems] for a in elems]
    assert G.table.tolist() == table
    assert list(G.names) == [ref_cycle_name(p) for p in elems]
    assert _greedy_generators(G.table) == ref_greedy_generators(table)
    classes = conjugacy_classes_of(G.table, G.inverses)
    reps = [int(c[0]) for c in classes]
    orders = divisor_powers(G.table).order[reps].tolist()
    got = [(r, tuple(c.tolist()), o) for r, c, o in zip(reps, classes, orders)]
    assert got == ref_conjugacy_classes(table, G.inverses.tolist())
    assert [tuple(a) for a in right_regular(G).rows.tolist()] == ref_right_regular(table)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetric_names_match_the_reference(n):
    G = named_group("symmetric", n)
    assert list(G.names) == [ref_cycle_name(p) for p in itertools.permutations(range(n))]


# ---------------------------------------------------------------------------
# Refusal messages, recorded from the tuple implementation
# ---------------------------------------------------------------------------

NOT_A_GROUP = [
    # Latin square with identity 0, not associative
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "non-associative triple (1,1,2): 1*(1*2)=4 but (1*1)*2=2", (1, 1, 2)),
    # Latin square with identity 0 where 2*4 = 0 but 4*2 = 1: a one-sided
    # inverse; an associative Latin square with identity is a group, so
    # Light's test refuses it first
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
     "non-associative triple (1,1,2): 1*(1*2)=4 but (1*1)*2=2", (1, 1, 2)),
    # Latin square with identity 0 whose magma closure of {0, 1} is
    # everything, while right multiplication by 1 alone stops short of it
    ([[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], [2, 0, 4, 5, 3, 1], [3, 4, 5, 0, 1, 2],
      [4, 5, 0, 1, 2, 3], [5, 3, 1, 2, 0, 4]],
     "non-associative triple (1,1,1): 1*(1*1)=3 but (1*1)*1=0", (1, 1, 1)),
    ([[0, 1], [1, 2]], "entry out of range at (1,1)", (1, 1)),
    ([[0, 0], [1, 1]], "row 0 is not a permutation", (0,)),
    ([[(a + b - 2) % 4 for b in range(4)] for a in range(4)],
     "element 0 is not the identity (witness 0)", (0, 0)),
]


@pytest.mark.parametrize("table,message,witness", NOT_A_GROUP)
def test_not_a_group_messages_are_unchanged(table, message, witness):
    with pytest.raises(NotAGroup) as info:
        build_group_from_table(table)
    assert str(info.value) == message
    assert info.value.witness == witness
    assert all(type(w) is int for w in info.value.witness)


def test_the_group_table_is_the_validated_array():
    G, _ = seeded_group(3)
    assert G.table.dtype == np.int16 and not G.table.flags.writeable
    assert not G.inverses.flags.writeable
    assert (G.table[np.arange(G.order), G.inverses] == 0).all()
    assert (G.table[G.inverses, np.arange(G.order)] == 0).all()


@pytest.mark.parametrize("table", [t for t, _, _ in NOT_A_GROUP[:3]])
def test_greedy_generators_of_non_associative_squares(table):
    # the closure is the magma's: under all pairwise products
    assert _greedy_generators(np.array(table)) == ref_greedy_generators(table)
