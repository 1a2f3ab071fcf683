"""The array permutation kernel against plain per-element recomputation."""

import random
from math import factorial, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleymaps import census, fixture, formulas, named_group, perm, validate_cayley_set
from cayleymaps.autaction import graph_automorphism_group, product_group, right_regular
from cayleymaps.errors import (
    BadParameter,
    CayleymapsError,
    InternalInconsistency,
    NonIntegralExponent,
    NonIntegralSum,
    NotSemiRegular,
)
from cayleymaps.cayley import build_cayley_graph
from cayleymaps.groups import direct_product
from cayleymaps.perm import (
    PermGroup,
    conjugacy_classes_of,
    cycle_labels,
    cycles,
    divisor_powers,
    element_stats,
)


# ---------------------------------------------------------------------------
# Reference: tuples, cycle walks and brute-force conjugation
# ---------------------------------------------------------------------------

def _after(a, b):
    return tuple(a[v] for v in b)


def _inverse(a):
    out = [0] * len(a)
    for v, w in enumerate(a):
        out[w] = v
    return tuple(out)


def _cycles(p):
    seen, cycles = set(), []
    for v in range(len(p)):
        if v not in seen:
            cycle = [v]
            seen.add(v)
            while p[cycle[-1]] not in seen:
                cycle.append(p[cycle[-1]])
                seen.add(cycle[-1])
            cycles.append(cycle)
    return cycles


def _element_row(G, S, x):
    """(semi-regular, order, l, edge orbits) of one vertex map, by walking."""
    n = G.order
    lengths = {len(c) for c in _cycles(x)}
    o = lcm(*lengths)
    neighbors = [{G.mul(s, t) for s in S.members} for t in range(n)]
    l_value = 0
    if o % 2 == 0:
        half = tuple(range(n))
        for _ in range(o // 2):
            half = _after(x, half)
        l_value = sum(half[t] in neighbors[t] for t in range(n))
    edges = sorted({tuple(sorted((t, u))) for t in range(n) for u in neighbors[t]})
    index = {e: i for i, e in enumerate(edges)}
    eperm = [index[tuple(sorted((x[u], x[v])))] for u, v in edges]
    return len(lengths) == 1, o, l_value, len(_cycles(eperm))


def reference_census(G, S, H, surface):
    """(class rows, total) of the census, recomputed element by element."""
    n, k = G.order, len(S.members)
    eps = n * k // 2
    regular = [tuple(col) for col in G.table.T.tolist()]
    if len(set(H)) != len(H):
        raise BadParameter("H lists an automorphism twice")
    for h in H:
        if h != tuple(range(n)) and h in regular:
            raise BadParameter(
                f"H contains the right translation by {G.name_of(h[0])}; H may share only "
                "the identity with R(G)"
            )
    for a in H:
        for b in H:
            q = _after(a, _inverse(b))
            if a != b and q in regular:
                raise BadParameter(
                    f"two maps of H differ by the right translation by {G.name_of(q[0])}; "
                    "H may meet each coset of R(G) only once"
                )
    pool = {_after(r, h) for r in regular for h in H}
    if len(pool) != n * len(H):
        raise InternalInconsistency("regular part and complement overlap")
    if tuple(range(n)) not in pool:
        raise BadParameter("acting set lacks the identity")
    if any(_after(a, b) not in pool for a in pool for b in pool):
        raise BadParameter("acting set is not closed under composition")

    rows, total, done = [], 0, set()
    for x in sorted(pool):
        if x in done:
            continue
        cls = {_after(a, _after(x, _inverse(a))) for a in pool}
        done |= cls
        semi, o, l_value, edge_orbits = _element_row(G, S, x)
        if not semi:
            raise NotSemiRegular(f"representative {x} has unequal orbit lengths")
        branch = "Delta" if o % 2 == 0 and l_value > 0 else "Theta"
        if branch == "Delta" and l_value % (o // 2):
            raise InternalInconsistency(
                f"inverted count {l_value} not divisible by half order {o // 2}")
        if edge_orbits * 2 * o != 2 * eps + l_value:
            raise InternalInconsistency(
                f"edge orbit count {edge_orbits} disagrees with (2e+l)/2o = "
                f"({2 * eps}+{l_value})/{2 * o}")
        num = eps + l_value - n
        if num < 0 or num % o:
            raise NonIntegralExponent(
                f"alpha = ({eps}+{l_value}-{n})/{o} is not a non-negative integer"
            )
        rows.append((x, len(cls), o, l_value, branch, edge_orbits, num // o))
    for x in pool:  # the class sum, taken over elements instead of classes
        _, o, l_value, _ = _element_row(G, S, x)
        alpha = (eps + l_value - n) // o
        base = factorial(k - 1) ** (n // o)
        total += base * {"O": 1, "L": 2**alpha, "N": 2**alpha - 1}[surface]
    if total % len(pool):
        raise NonIntegralSum(f"class sum {total} not divisible by |G||H| = {len(pool)}")
    return rows, total // len(pool)


def outcome(fn):
    try:
        return fn()
    except CayleymapsError as e:
        return type(e).__name__, str(e)


def kernel_census(G, S, H, surface):
    res = census(G, S, H, surface)
    rows = [
        (res.acting.element(st.row), st.class_size, st.order, st.l_value,
         st.branch, st.edge_orbits, st.alpha_exponent)
        for st in res.classes
    ]
    return rows, res.count.exact_value


# ---------------------------------------------------------------------------
# Seeded instances
# ---------------------------------------------------------------------------

def _random_group(rng, family=None):
    family = family or rng.choice(("cyclic", "dihedral", "product"))
    if family == "cyclic":
        return named_group("cyclic", rng.randint(3, 24))
    if family == "dihedral":
        return named_group("dihedral", 2 * rng.randint(3, 12))
    a = rng.choice((named_group("cyclic", 2), named_group("cyclic", 3), named_group("dihedral", 6)))
    return direct_product(a, named_group("cyclic", rng.randint(2, 24 // a.order)))


def _random_cayset(rng, G):
    members = set()
    while True:
        g = rng.randrange(1, G.order)
        members |= {g, G.inv(g)}
        try:
            return validate_cayley_set(G, tuple(sorted(members)))
        except CayleymapsError:
            if len(members) > 6:
                members.clear()


def _semi_regular_complement(rng, G, S):
    """A nontrivial H of semi-regular graph automorphisms outside R(G):
    left multiplication by a non-central g normalizing S, or for abelian G
    t -> t^-1 a with a not a square (a fixed-point-free involution).

    R(G)H is transitive and larger than |G|, so some element other than the
    identity fixes a vertex: the census refuses with NotSemiRegular, and
    both sides must name the same class."""
    n, members = G.order, set(S.members)
    T, inv = G.table.tolist(), G.inverses.tolist()
    left = [
        g for g in range(n)
        if any(T[g][t] != T[t][g] for t in range(n))
        and {T[T[g][s]][inv[g]] for s in members} == members
    ]
    if left:
        g = rng.choice(left)
        powers, p = [0], g
        while p:
            powers.append(p)
            p = T[p][g]
        return [tuple(T[h][t] for t in range(n)) for h in powers]
    if all(T[t][s] == T[s][t] for t in range(n) for s in range(n)):
        squares = {T[t][t] for t in range(n)}
        non_squares = [a for a in range(n) if a not in squares]
        if non_squares:
            a = rng.choice(non_squares)
            flip = tuple(T[inv[t]][a] for t in range(n))
            return [tuple(range(n)), flip]
    return None


@pytest.mark.parametrize("seed", range(20))
def test_kernel_census_matches_element_by_element_recomputation(seed):
    rng = random.Random(seed)
    G = _random_group(rng)
    S = _random_cayset(rng, G)
    complement = _semi_regular_complement(rng, G, S)
    for H in ([tuple(range(G.order))], complement):
        if H is None:
            continue
        for surface in "ONL":
            expected = outcome(lambda: reference_census(G, S, H, surface))
            assert outcome(lambda: kernel_census(G, S, H, surface)) == expected


def test_refusals_keep_their_type_and_message():
    fx = fixture("CUBE")
    identity = tuple(range(8))
    swap = tuple((t & 4) | ((t & 1) << 1) | ((t & 2) >> 1) for t in range(8))
    assert outcome(lambda: census(fx.group, fx.cayset, H=[identity, swap])) == (
        "NotSemiRegular", "representative (0, 2, 1, 3, 4, 6, 5, 7) has unequal orbit lengths")

    z5 = named_group("cyclic", 5)
    doubling = tuple(2 * t % 5 for t in range(5))
    H = [tuple(range(5)), doubling]
    assert outcome(lambda: census(z5, validate_cayley_set(z5, (1, 4)), H=H)) == (
        "BadParameter", "acting set is not closed under composition")

    s3 = named_group("symmetric", 3)
    S = validate_cayley_set(s3, tuple(np.flatnonzero(divisor_powers(s3.table).order == 2).tolist()))
    for surface in "ONL":
        assert outcome(lambda: census(s3, S, surface=surface)) == (
            "NonIntegralExponent", "alpha = (9+6-6)/2 is not a non-negative integer")


def test_h_meeting_r_g_is_refused_like_the_reference():
    # a repeated map, a right translation in H or two maps of H in one
    # coset of R(G) is bad input
    k3 = fixture("K3")
    rotations = [tuple(col) for col in k3.group.table.T.tolist()]
    d6 = named_group("dihedral", 12)
    center = next(g for g in range(1, 12) if (d6.table[g] == d6.table[:, g]).all())
    z5 = named_group("cyclic", 5)
    doubling = tuple(2 * t % 5 for t in range(5))
    cases = [
        (k3.group, k3.cayset, [(0, 1, 2), (0, 1, 2)],
         ("BadParameter", "H lists an automorphism twice")),
        (k3.group, k3.cayset, rotations,
         ("BadParameter", "H contains the right translation by g1; "
                          "H may share only the identity with R(G)")),
        (d6, validate_cayley_set(d6, (6, 7, 8)), [tuple(range(12)), tuple(d6.table[center])],
         ("BadParameter", f"H contains the right translation by {d6.name_of(center)}; "
                          "H may share only the identity with R(G)")),
        (z5, validate_cayley_set(z5, (1, 4)),
         [tuple(range(5)), doubling, tuple((2 * t + 1) % 5 for t in range(5))],
         ("BadParameter", "two maps of H differ by the right translation by g4; "
                          "H may meet each coset of R(G) only once")),
    ]
    for G, S, H, expected in cases:
        assert outcome(lambda: reference_census(G, S, H, "O")) == expected
        assert outcome(lambda: kernel_census(G, S, H, "O")) == expected


# ---------------------------------------------------------------------------
# Kernel pieces
# ---------------------------------------------------------------------------

def test_cycle_labels_and_lengths_match_walks():
    rng = random.Random(3)
    perms = []
    for n in (1, 2, 7, 16, 33):
        for _ in range(5):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(tuple(p))
    for p in perms:
        labels = cycle_labels(p)
        for cycle in _cycles(p):
            assert all(labels[v] == min(cycle) for v in cycle)
        assert cycles(p, labels) == [tuple(c) for c in _cycles(p)]


@st.composite
def _perm_stacks(draw):
    """An (m, n) stack of random rows, with the identity and one n-cycle
    each drawn in or left out; m may be 0."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.permutations(range(n)), max_size=5))
    if draw(st.booleans()):
        rows.append(list(range(n)))
    if draw(st.booleans()):
        tour = draw(st.permutations(range(n)))
        cycle = [0] * n
        for a, b in zip(tour, tour[1:] + tour[:1]):
            cycle[a] = b
        rows.append(cycle)
    dtype = draw(st.sampled_from((np.int16, np.int64)))
    return np.array(rows, dtype=dtype).reshape(len(rows), n)


@settings(deadline=None)
@given(_perm_stacks())
@example(np.zeros((0, 5), dtype=np.int16))
@example(np.zeros((1, 1), dtype=np.int16))
@example(np.array([[0, 1, 2, 3, 4], [1, 2, 3, 4, 0]], dtype=np.int16))
def test_early_stopping_labels_equal_the_cycle_walk(stack):
    labels = cycle_labels(stack)
    assert labels.shape == stack.shape
    for row, got in zip(stack.tolist(), labels.tolist()):
        expect = [0] * len(row)
        for cycle in _cycles(row):
            for v in cycle:
                expect[v] = min(cycle)
        assert got == expect


@settings(deadline=None)
@given(_perm_stacks(), st.data())
def test_orbit_labels_from_any_seed_equal_the_orbit_walk(stack, data):
    # a second stacked generator, a shared one, and every kind of seed: the
    # default, the lesser of both cycle labellings, and any point of the
    # orbit no greater than the point itself; with and without indices
    m, n = stack.shape
    other = np.array([data.draw(st.permutations(range(n))) for _ in range(m)],
                     dtype=stack.dtype).reshape(m, n)
    shared = np.array(data.draw(st.permutations(range(n))))
    expect = np.zeros((m, n), dtype=np.int64)
    for r in range(m):
        seen = [False] * n
        for start in range(n):  # ascending, so each orbit starts at its least point
            if seen[start]:
                continue
            orbit, todo = [], [start]
            seen[start] = True
            while todo:
                v = todo.pop()
                orbit.append(v)
                for w in (stack[r, v], other[r, v], shared[v]):
                    if not seen[w]:
                        seen[w] = True
                        todo.append(int(w))
            expect[r, orbit] = start
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    anywhere = np.array([[rng.choice([u for u in range(v + 1) if expect[r, u] == expect[r, v]])
                          for v in range(n)] for r in range(m)], dtype=stack.dtype).reshape(m, n)
    both = np.minimum(cycle_labels(stack), cycle_labels(other))
    index = [perm.flat_index(stack), perm.flat_index(other)]
    assert (cycle_labels(stack, index[0]) == cycle_labels(stack)).all()
    for seed in (None, both, anywhere):
        for indices in (None, index):
            got = perm.orbit_labels([stack, other, shared], seed, indices)
            assert got.tolist() == expect.tolist()


def _assert_stats_match_walks(group, G, S):
    adjacency = np.zeros((G.order, G.order), dtype=bool)
    for t in range(G.order):
        for s in S.members:
            adjacency[t, G.mul(s, t)] = True
    stats = element_stats(group, adjacency)
    got = list(zip(stats.semi_regular.tolist(), stats.order.tolist(),
                   stats.l_value.tolist(), stats.edge_orbits.tolist()))
    assert got == [_element_row(G, S, tuple(x)) for x in group.rows.tolist()]
    return stats


@pytest.mark.parametrize("seed", range(9))
def test_element_stats_match_walks_element_by_element(seed):
    # R(G) of seeded cyclic, dihedral and product tables: every column of
    # every element against _element_row's walks and repeated composition
    rng = random.Random(50 + seed)
    G = _random_group(rng, ("cyclic", "dihedral", "product")[seed % 3])
    S = _random_cayset(rng, G)
    group = right_regular(G)
    _assert_stats_match_walks(group, G, S)


@pytest.mark.parametrize("build,members", [
    (lambda: named_group("cyclic", 150), (1, 75, 149)),
    (lambda: direct_product(named_group("dihedral", 30), named_group("cyclic", 4)), (5, 59, 60)),
    (lambda: direct_product(named_group("cyclic", 2), named_group("cyclic", 60)), (60, 61, 119)),
], ids=["Z150", "D30xZ4", "Z2xZ60"])
def test_element_stats_match_walks_at_orders_with_many_divisors(build, members):
    # 150 = 2 * 3 * 5^2 and 120 = 2^3 * 3 * 5: powers to a squared and a
    # cubed prime, and three primes for the semi-regularity test; each set
    # holds an involution, so some classes invert edges
    G = build()
    stats = _assert_stats_match_walks(right_regular(G), G, validate_cayley_set(G, members))
    assert (stats.l_value > 0).any()


@pytest.mark.parametrize("build", [
    lambda: named_group("cyclic", 150),
    lambda: direct_product(named_group("dihedral", 30), named_group("cyclic", 4)),
    lambda: named_group("symmetric", 4),
], ids=["Z150", "D30xZ4", "S4"])
def test_divisor_powers_match_repeated_products_on_either_table(build):
    # G's own table (row g is t -> gt) and R(G)'s (G's transposed): each
    # power row against a^k built one factor at a time, and each order
    # against the lcm of the cycle lengths of G's rows, walked
    G = build()
    element = np.arange(G.order)
    for table in (G.table, right_regular(G).table):
        got = divisor_powers(table)
        assert got.order.tolist() == [lcm(*map(len, _cycles(row))) for row in G.table.tolist()]
        power = element
        for k in range(1, G.order + 1):
            if G.order % k == 0:
                assert (got.powers[got.position[k]] == power).all(), k
            power = G.table[power, element]


@pytest.mark.parametrize("seed", range(6))
def test_element_stats_match_walks_on_semi_regular_complements(seed):
    # R(G)H with H from _semi_regular_complement: elements with fixed
    # points and longer cycles, and powers that reach into H
    rng = random.Random(90 + seed)
    while True:
        G = _random_group(rng)
        S = _random_cayset(rng, G)
        H = _semi_regular_complement(rng, G, S)
        if H is not None:
            break
    group = product_group(G, H)
    assert len(group) == G.order * len(H)
    stats = _assert_stats_match_walks(group, G, S)
    assert not stats.semi_regular.all()


@pytest.mark.parametrize("name", ["C5", "CUBE", "K5"])
def test_element_stats_match_walks_on_full_automorphism_groups(name):
    # the whole of Aut Γ: in S_5 on K5 = Cay(Z_5 : {1, 2, 3, 4}) the power
    # a^2 = (2 3 4) of a = (0 1)(2 3 4) fixes the edge 01 and has order 3,
    # so Burnside's sum weighs it by phi(3) = 2
    if name == "K5":
        G = named_group("cyclic", 5)
        S = validate_cayley_set(G, (1, 2, 3, 4))
    else:
        G, S = fixture(name).group, fixture(name).cayset
    group = PermGroup(graph_automorphism_group(build_cayley_graph(G, S)))
    stats = _assert_stats_match_walks(group, G, S)
    assert not stats.semi_regular.all()


def test_element_stats_match_walks_on_r_g_times_h():
    # the cube's R(G) with the generator swap that fixes vertex 0: some
    # elements have a fixed point and longer cycles
    fx = fixture("CUBE")
    swap = tuple((t & 4) | ((t & 1) << 1) | ((t & 2) >> 1) for t in range(8))
    group = product_group(fx.group, [tuple(range(8)), swap])
    assert len(group) == 16
    stats = _assert_stats_match_walks(group, fx.group, fx.cayset)
    assert not stats.semi_regular.all()


def _classes_by_loop(table, inverse):
    """Conjugacy classes one unseen element at a time: the class of x is
    every g x g^-1, read off one column of the table."""
    m = len(table)
    seen = np.zeros(m, dtype=bool)
    classes = []
    for x in range(m):
        if seen[x]:
            continue
        cls = np.flatnonzero(np.bincount(table[table[:, x], inverse], minlength=m))
        seen[cls] = True
        classes.append(cls)
    return classes


def _relabelled(G, rng):
    """G's table and inverses with the elements renamed by a random
    permutation (the identity need not stay 0)."""
    pi = np.array(rng.sample(range(G.order), G.order))
    table = np.empty_like(G.table)
    table[np.ix_(pi, pi)] = pi[G.table]
    inverse = np.empty_like(G.inverses)
    inverse[pi] = pi[G.inverses]
    return table, inverse


def _class_pass_cases():
    rng = random.Random(71)
    for family in ("cyclic", "dihedral", "product") * 3:
        G = _random_group(rng, family)
        yield G.table, G.inverses
        group = right_regular(G)
        yield group.table, group.inverse
        H = _semi_regular_complement(rng, G, _random_cayset(rng, G))
        if H is not None:
            group = product_group(G, H)
            yield group.table, group.inverse
    s4 = named_group("symmetric", 4)
    for _ in range(3):
        yield _relabelled(s4, rng)
    fx = fixture("CUBE")
    swap = tuple((t & 4) | ((t & 1) << 1) | ((t & 2) >> 1) for t in range(8))
    group = product_group(fx.group, [tuple(range(8)), swap])
    yield group.table, group.inverse


@pytest.mark.parametrize("block", [perm.CONJUGATE_BLOCK, 7])
def test_conjugacy_classes_match_the_per_element_loop(monkeypatch, block):
    # a block of 7 gathers only a row or a few of g at a time
    monkeypatch.setattr(perm, "CONJUGATE_BLOCK", block)
    for table, inverse in _class_pass_cases():
        got = conjugacy_classes_of(table, inverse)
        expected = _classes_by_loop(table, inverse)
        assert [c.tolist() for c in got] == [c.tolist() for c in expected]
        assert all(c.dtype.kind == "i" for c in got)


def test_class_stats_are_the_same_a_block_of_representatives_at_a_time(monkeypatch):
    # a block of 1 counts one representative's centralizer per gather, a
    # block of 64 a few; R(G)H with a nontrivial H refuses
    rng = random.Random(73)
    cases = []
    for family in ("cyclic", "dihedral", "product") * 3:
        G = _random_group(rng, family)
        S = _random_cayset(rng, G)
        cases.append((G, S, right_regular(G)))
        H = _semi_regular_complement(rng, G, S)
        if H is not None:
            cases.append((G, S, product_group(G, H)))

    def outcomes():
        return [outcome(lambda: formulas.class_stats(G, S, acting)) for G, S, acting in cases]

    whole = outcomes()
    assert {type(o) for o in whole} == {list, tuple}  # counts and refusals
    for block in (1, 64):
        monkeypatch.setattr(perm, "CONJUGATE_BLOCK", block)
        assert outcomes() == whole


def _doctored(monkeypatch, **changes):
    """Makes ``class_stats`` see element statistics with the given entries
    replaced: ``field=[(element, value), ...]``."""
    stats_of = formulas.element_stats

    def doctored(group, adjacency):
        stats = stats_of(group, adjacency)
        for field, entries in changes.items():
            column = getattr(stats, field)
            for i, value in entries:
                column[i] = value
        return stats

    monkeypatch.setattr(formulas, "element_stats", doctored)


@pytest.mark.parametrize("changes,expected", [
    # an earlier class that breaks edges, a later one not semi-regular:
    # the earlier class's check is raised although it comes later in order
    ({"edge_orbits": [(1, -1)], "semi_regular": [(3, False)]},
     ("BadParameter", "acting element {1} is not a graph automorphism")),
    ({"semi_regular": [(1, False)], "edge_orbits": [(3, -1)]},
     ("NotSemiRegular", "representative {1} has unequal orbit lengths")),
    # member 5 of the class {1, 5} against a later class not semi-regular
    ({"order": [(5, 3)], "semi_regular": [(3, False)]},
     ("InternalInconsistency", "class statistics not constant: {5} differs from {1}")),
])
def test_class_stats_raises_the_first_failing_class(monkeypatch, changes, expected):
    G = named_group("dihedral", 12)
    S = validate_cayley_set(G, (6, 7, 8))
    acting = right_regular(G)
    assert len(formulas.class_stats(G, S, acting)) == 6
    classes = conjugacy_classes_of(acting.table, acting.inverse)
    assert [c.tolist() for c in classes[1:4]] == [[1, 5], [2, 4], [3]]
    _doctored(monkeypatch, **changes)
    kind, message = expected
    vms = [acting.element(i) for i in range(len(acting))]
    assert outcome(lambda: formulas.class_stats(G, S, acting)) == (kind, message.format(*vms))


def test_find_is_exact():
    d6 = named_group("dihedral", 12)
    maps = sorted(tuple(col) for col in d6.table.T.tolist())
    group = PermGroup(maps)
    assert list(group.find(maps)) == list(range(12))
    strangers = [tuple(reversed(m)) for m in maps] + [(1, 0) + tuple(range(2, 12))]
    assert all(i == -1 for i in group.find([s for s in strangers if s not in maps]))
    for a in range(12):
        for b in range(12):
            assert maps[group.table[a, b]] == _after(maps[a], maps[b])
        assert maps[group.inverse[a]] == _inverse(maps[a])


def test_elements_that_break_edges_are_flagged():
    # the rotations of Z_4 on the graph with edges 02, 13, 01: only the
    # identity maps edges to edges; the half-order power t -> t+2 of every
    # other rotation moves each vertex to a neighbor
    rotations = [tuple((t + h) % 4 for t in range(4)) for h in range(4)]
    graph = np.zeros((4, 4), dtype=bool)
    for u, v in ((0, 2), (1, 3), (0, 1)):
        graph[u, v] = graph[v, u] = True
    stats = element_stats(PermGroup(rotations), graph)
    assert list(stats.edge_orbits) == [3, -1, -1, -1]
    assert list(stats.order) == [1, 4, 2, 4]
    assert list(stats.l_value) == [0, 4, 4, 4]
    assert list(stats.semi_regular) == [True] * 4
