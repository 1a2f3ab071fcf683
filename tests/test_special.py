"""Symmetric-group, three-involution, and elementary-abelian specializations."""

import gc
import itertools
import re
import tracemalloc
import weakref
from decimal import localcontext
from fractions import Fraction
from math import factorial, gcd, lcm

import mpmath as mp
import numpy as np
import pytest

from cayleymaps import census, named_group, three_involution_census, validate_cayley_set
from cayleymaps.autaction import right_regular
from cayleymaps.errors import (
    BadParameter,
    CapExceeded,
    CaySetInvalid,
    NonIntegralExponent,
    NotInvolutions,
)
from cayleymaps.formulas import exact_context, exact_quotient, parse_mode, term_report
from cayleymaps.perm import divisor_powers
from cayleymaps.special import (
    SymRows,
    centralizer_order,
    class_size,
    double_factorial,
    elementary_abelian_census,
    special_involution_type,
    sym_l_table,
    sym_locally_census,
    sym_orientable_census,
    three_involution_comparison,
)


# Partitions and cycle types, one at a time: references for the columns of
# ``cycletypes``.

def _descending_partitions(n, largest):
    """Partitions of n as descending part lists, reverse lexicographic."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _descending_partitions(n - first, first):
            yield (first,) + rest


def _partitions(n):
    """Partitions of n as multiplicity vectors, reverse lexicographic."""
    return [tuple(desc.count(i) for i in range(1, n + 1)) for desc in _descending_partitions(n, n)]


def test_partition_counts():
    # the census class table of Sigma_n has one row per partition of n
    assert [len(sym_orientable_census(n, "log2").rows) for n in range(1, 9)] == \
        [1, 2, 3, 5, 7, 11, 15, 22]
    rows = sym_orientable_census(6, "log2").rows
    for part in map(rows.partition, range(len(rows))):
        assert len(part) == 6
        assert sum(i * k for i, k in enumerate(part, start=1)) == 6
    with pytest.raises(BadParameter):
        sym_orientable_census(0, "log2")
    with pytest.raises(CapExceeded):
        sym_orientable_census(61, "log2")


def test_class_sizes_partition_the_group():
    for n in range(1, 9):
        sizes = [class_size(n, part) for part in _partitions(n)]
        assert sum(sizes) == factorial(n)
        for part, size in zip(_partitions(n), sizes):
            assert size * centralizer_order(part) == factorial(n)


def _cycle_lengths(perm):
    """The length of every cycle of a permutation, walked."""
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            length, v = length + 1, perm[v]
        if length:
            lengths.append(length)
    return lengths


def cycle_type(perm):
    """Entry ``i-1`` counts the ``i``-cycles of a permutation."""
    lengths = _cycle_lengths(perm)
    return tuple(lengths.count(i) for i in range(1, len(perm) + 1))


def order(perm):
    return lcm(*_cycle_lengths(perm))


def lcm_of_partition(part):
    return lcm(*[i for i, k in enumerate(part, start=1) if k])


def power_type(part, j):
    """Cycle type of g^j for g of cycle type ``part``: an i-cycle splits
    into gcd(i, j) cycles of length i/gcd(i, j)."""
    out = [0] * len(part)
    for i, k in enumerate(part, start=1):
        g = gcd(i, j)
        out[i // g - 1] += k * g
    return tuple(out)


def representative_of_type(part):
    """One permutation of the given cycle type, cycles laid out consecutively."""
    vm = []
    base = 0
    for i, k in enumerate(part, start=1):
        for _ in range(k):
            vm.extend(base + (j + 1) % i for j in range(i))
            base += i
    return tuple(vm)


def _power(perm, k):
    """``perm`` composed with itself ``k`` times, one point at a time."""
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[x] for x in out]
    return out


def test_power_type_matches_actual_powers():
    for n in range(1, 8):
        for part in _partitions(n):
            rep = representative_of_type(part)
            assert cycle_type(rep) == part
            assert order(rep) == lcm_of_partition(part)
            for j in (1, 2, 3, 4):
                assert cycle_type(_power(rep, j)) == \
                    power_type(part, j)


def test_special_involution_type():
    t = special_involution_type(7)  # m = 1, odd
    assert (t[0], t[1]) == (3, 2) and sum(t) == 5
    t = special_involution_type(13)  # m = 2, even
    assert (t[0], t[1]) == (5, 4)
    t = special_involution_type(19)  # m = 3, odd
    assert (t[0], t[1]) == (3, 8)
    for bad in (1, 9, 12):
        with pytest.raises(BadParameter):
            special_involution_type(bad)


def build_b1_b2(n):
    """The two published involutions generating a cubic connection set of
    Sigma_n for n = 6m+1, m >= 2, as 0-based permutations: b1 is a product
    of disjoint transpositions, b2 is b1 without (n-12, n-9)."""
    m = (n - 1) // 6
    assert n == 6 * m + 1 and m >= 2, n
    pairs = [(1, 4), (2, n), (3, n - 1), (n - 6, n - 3), (n - 5, n - 2)]
    for r in range(1, m - 1):
        pairs += [(6 * r, 6 * r + 3), (6 * r + 1, 6 * r + 4), (6 * r + 2, 6 * r + 5)]
    dropped = (n - 12, n - 9)
    assert dropped in pairs
    return tuple(_perm_of_transpositions(n, q) for q in (pairs, [q for q in pairs if q != dropped]))


def _perm_of_transpositions(n, pairs):
    """The product of disjoint transpositions of 1..n, 0-based."""
    points = [x for pair in pairs for x in pair]
    assert len(set(points)) == len(points) and all(1 <= x <= n for x in points)
    vm = list(range(n))
    for a, b in pairs:
        vm[a - 1], vm[b - 1] = b - 1, a - 1
    return tuple(vm)


def test_b1_b2_constructions():
    for n in (13, 19, 25, 31, 37, 43):
        m = (n - 1) // 6
        b1, b2 = build_b1_b2(n)
        for vm in (b1, b2):
            assert all(vm[vm[i]] == i for i in range(n))
        p1 = cycle_type(b1)
        assert (p1[0], p1[1], sum(p1)) == (3, 3 * m - 1, 3 * m + 2)
        p2 = cycle_type(b2)
        assert (p2[0], p2[1], sum(p2)) == (5, 3 * m - 2, 3 * m + 3)
        # b2 is b1 with one transposition dropped
        diff = [i for i in range(n) if b1[i] != b2[i]]
        assert diff == sorted((n - 13, n - 10))


def _odd(perm):
    """Whether a 0-based permutation is odd, by counting its inversions."""
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 == 1


@pytest.mark.parametrize("n", range(7, 62, 6))
def test_the_cubic_generators_of_sym_are_even(n):
    # x has the special involution type and y order 3, and both are even
    # permutations, so <x, y> lies in A_n (ROADMAP item 4); of b1 and b2,
    # exactly the involution of the other type is odd
    special = special_involution_type(n)
    x = representative_of_type(special)
    assert cycle_type(x) == special and not _odd(x)
    for threes in range(1, n // 3 + 1):
        y = representative_of_type((n - 3 * threes, 0, threes) + (0,) * (n - 3))
        assert order(y) == 3 and not _odd(y)
    if n >= 13:
        involutions = build_b1_b2(n)
        assert [_odd(b) for b in involutions] == [cycle_type(b) != special for b in involutions]
        assert sum(map(_odd, involutions)) == 1


def test_sym_orientable_small_values():
    res = sym_orientable_census(3)
    brute = sum(
        1 << (6 // order(vm))
        for vm in itertools.permutations(range(3))
    )
    assert brute % 6 == 0
    assert res.total.exact_value == int(brute) // 6 == 16
    assert len(res.rows) == 3
    assert not any(res.rows.buckets) and res.rows.alphas is None
    assert sym_orientable_census(4).total.exact_value == 700688
    # n = 1: one class of size 1, term 2^{1!/1}, divided by 1!
    assert sym_orientable_census(1).total.exact_value == 2


def test_sym_orientable_modes_consistent():
    for n in (5, 8):
        exact = sym_orientable_census(n, "exact").total
        log2 = sym_orientable_census(n, "log2").total
        assert float(log2.log2_value) == pytest.approx(float(exact.log2_value), rel=1e-9)
        for p in (2**31 - 1, 10**9 + 7):
            modp = sym_orientable_census(n, f"modp:{p}").total
            with localcontext(exact_context()):
                assert modp.residue == exact.exact_value % p


def test_sym_orientable_large_log2():
    res = sym_orientable_census(9, "log2")
    assert float(res.total.log2_value) == pytest.approx(362861.53086698, abs=1e-6)
    res = sym_orientable_census(19, "log2")
    assert float(res.total.log2_value) == pytest.approx(121645100408831943.24, abs=0.5)
    with pytest.raises(CapExceeded):
        sym_orientable_census(19, "exact")


def test_sym_locally_n7_frozen():
    res = sym_locally_census(7)
    rows = res.rows
    assert res.special_type == special_involution_type(7)
    alpha = [rows.alphas[t] for t in rows.term_id.tolist()]
    b_alpha = [a for a, t in zip(alpha, rows.term_id.tolist()) if rows.buckets[t]]
    assert sorted(b_alpha) == [214, 428, 642, 642, 1284]
    for r in range(len(rows)):
        t = rows.term_id[r]
        o = rows.orders[t]
        half = None if o % 2 else power_type(rows.partition(r), o // 2)
        assert rows.buckets[t] == (half == res.special_type)
        assert rows.exponents[t] == alpha[r] + 5040 // o
    text = str(res.total.exact_value)
    assert len(text) == 2273
    assert text.startswith("1214329884984950")
    assert float(res.total.log2_value) == pytest.approx(7547.70079198161, abs=1e-8)
    assert res.label == "formula value only"


SYM_COLUMN_CASES = [(n, "O") for n in range(1, 31)] + [(n, "L") for n in (7, 13, 19, 25)]


@pytest.mark.parametrize("n,surface", SYM_COLUMN_CASES)
def test_sym_columns_match_the_per_partition_functions(n, surface):
    census_fn = sym_orientable_census if surface == "O" else sym_locally_census
    rows = census_fn(n, "log2").rows
    nf = factorial(n)
    parts = _partitions(n)
    assert len(rows) == len(parts)
    special = special_involution_type(n) if surface == "L" else None
    labels = rows.labels.rows(0, len(rows))
    memo, memo_row, prefix, prefix_id = (rows.labels.memo, rows.labels.memo_row,
                                         rows.labels.prefix, rows.labels.prefix_id)
    for r, part in enumerate(parts):
        assert rows.partition(r) == part
        label = " ".join(str(i) if k == 1 else f"{i}^{k}" for i, k in enumerate(part, start=1) if k)
        assert rows.label(r) == labels[r] == label == memo[memo_row[r]] + prefix[prefix_id[r]]
        assert rows.labels.length[r] == len(label)
        size = rows.sizes[rows.size_id[r]]
        assert size == class_size(n, part)
        assert size * centralizer_order(part) == nf
        o = lcm_of_partition(part)
        t = rows.term_id[r]
        assert rows.orders[t] == o
        half = None if o % 2 else power_type(part, o // 2)
        assert rows.buckets[t] == (special is not None and half == special)
        if surface == "O":
            assert rows.exponents[t] == nf // o
        else:
            assert rows.exponents[t] == rows.alphas[t] + nf // o


@pytest.mark.parametrize("n,surface", SYM_COLUMN_CASES)
def test_sym_merged_terms_give_the_per_row_total(n, surface):
    census_fn = sym_orientable_census if surface == "O" else sym_locally_census
    rows = census_fn(n, "log2").rows
    nf = factorial(n)
    merged = rows.terms()
    per_row = [
        (rows.exponents[t], 0, rows.sizes[s], 1)
        for t, s in zip(rows.term_id.tolist(), rows.size_id.tolist())
    ]
    assert sorted(e for e, *_ in merged) == sorted({e for e, *_ in per_row})
    if n <= 10:
        assert exact_quotient(merged, nf) == exact_quotient(per_row, nf)
    for p in (1000003, 2**31 - 1):
        mode = f"modp:{p}"
        assert term_report(merged, nf, mode).residue == term_report(per_row, nf, mode).residue
    log2 = [mp.nstr(term_report(t, nf, "log2").log2_value, 15) for t in (merged, per_row)]
    assert log2[0] == log2[1]


def test_sym_terms_add_the_sizes_of_equal_exponents():
    # three (order, bucket) keys, two of them with exponent 5
    rows = SymRows(
        labels=None, size_id=np.array([0, 1, 1, 0], dtype=np.uint8), sizes=[2, 7],
        term_id=np.array([0, 1, 2, 2], dtype=np.uint8), orders=[1, 2, 3],
        buckets=[False] * 3, exponents=[5, 9, 5], alphas=None, l_printed={},
    )
    assert sorted(rows.terms()) == [(5, 0, 2 + 7 + 2, 1), (9, 0, 7, 1)]


def test_sym_locally_refuses_a_non_integral_alpha_before_any_output(monkeypatch, capsys):
    # with the published extra term cut to 12, alpha_1 = (7! + 12)/(2o) is
    # not an integer on the bucket-B class [3, 4] of order 12, the first
    # row of its term; the command prints the refusal alone
    from cayleymaps import cli, special

    monkeypatch.setattr(special, "double_factorial", lambda m: 1)
    message = "alpha_1 = 5052/24 is not an integer on (0, 0, 1, 1, 0, 0, 0)"
    with pytest.raises(NonIntegralExponent, match=f"^{re.escape(message)}$"):
        special.sym_locally_census(7, "log2")
    code = cli.main(["sym-grr", "7", "--mode", "log2"])
    assert (code, capsys.readouterr().out) == (
        NonIntegralExponent.exit_code, f"{message}\nerror-token: NonIntegralExponent\n")


def test_sym_l_table_documents_the_mismatch():
    rows = sym_l_table(7)
    assert len(rows) == 2
    first, second = rows
    assert (first.partition[0], first.partition[1]) == (3, 2)
    assert first.printed == 6 * double_factorial(4) == 48
    assert first.recomputed == centralizer_order(first.partition) == 48
    assert (second.partition[0], second.partition[1]) == (5, 1)
    assert second.printed == 120 * double_factorial(5) == 1800
    assert second.recomputed == centralizer_order(second.partition) == 240


def test_sym_locally_modes_and_big_values():
    exact = sym_locally_census(7).total.exact_value
    for p in (2**31 - 1, 10**9 + 7):
        with localcontext(exact_context()):
            residue = exact % p
        assert sym_locally_census(7, f"modp:{p}").total.residue == residue
    res = sym_locally_census(13, "log2")
    assert float(res.total.log2_value) == pytest.approx(9340531167.46411, abs=1e-3)
    assert sym_locally_census(13, "modp:2147483647").total.residue == 700024692
    with pytest.raises(CapExceeded):
        sym_locally_census(13, "exact")
    assert res.label == "formula value only"
    assert sym_locally_census(19, "log2").label is None


def test_sym_caps_and_gates():
    with pytest.raises(CapExceeded):
        sym_orientable_census(11, "exact")
    with pytest.raises(CapExceeded):
        sym_orientable_census(61, "log2")
    with pytest.raises(BadParameter):
        sym_orientable_census(0)
    for bad in (9, 12, 1):
        with pytest.raises(BadParameter):
            sym_locally_census(bad, "log2")


def test_three_involution_d6_frozen():
    G = named_group("dihedral", 12)
    S = (6, 7, 8)
    o = three_involution_census(G, S, "O")
    l = three_involution_census(G, S, "L")
    n = three_involution_census(G, S, "N")
    assert o.total.exact_value == 382
    assert l.total.exact_value == 40976
    assert n.total.exact_value == 40594
    assert o.total.exact_value + n.total.exact_value == l.total.exact_value
    assert float(l.total.log2_value) == pytest.approx(15.3224915375975, abs=1e-10)
    assert l.violations == ((3, 6), (9, 6), (3, 7), (10, 7), (3, 8), (11, 8))
    assert not l.hypothesis_ok
    assert [r.representative for r in l.rows] == [0, 1, 2, 3, 6, 7]
    assert [r.class_size for r in l.rows] == [1, 2, 2, 1, 3, 3]
    identity = l.rows[0]
    assert (identity.base_exponent, identity.alpha_exponent) == (12, Fraction(6))
    log2 = three_involution_census(G, S, "L", "log2").total
    assert float(log2.log2_value) == pytest.approx(float(l.total.log2_value), rel=1e-12)
    p = 10**9 + 7
    assert three_involution_census(G, S, "L", f"modp:{p}").total.residue == 40976 % p


def test_three_involution_s3_fractional_exponents():
    G = named_group("symmetric", 3)
    S = tuple(np.flatnonzero(divisor_powers(G.table).order == 2).tolist())
    assert three_involution_census(G, S, "O").total.exact_value == 16
    for surface in ("L", "N"):
        with pytest.raises(NonIntegralExponent, match="displayed exponent"):
            three_involution_census(G, S, surface)
        with pytest.raises(NonIntegralExponent):
            three_involution_census(G, S, surface, "modp:7")
    # log2 evaluates the printed expression as-is
    res = three_involution_census(G, S, "L", "log2")
    assert float(res.total.log2_value) == pytest.approx(7.47985840176705, abs=1e-10)
    with mp.workdps(30):
        expected_n = mp.log((512 + 16 + 3 * mp.power(2, mp.mpf(15) / 2) - 96) / 6, 2)
    res = three_involution_census(G, S, "N", "log2")
    assert float(res.total.log2_value) == pytest.approx(float(expected_n), abs=1e-10)


def test_three_involution_validation():
    G = named_group("dihedral", 12)
    with pytest.raises(BadParameter, match="exactly 3"):
        three_involution_census(G, (6, 7), "O")
    with pytest.raises(NotInvolutions):
        three_involution_census(G, (1, 6, 7), "O")
    with pytest.raises(CaySetInvalid) as err:
        three_involution_census(G, (6, 8, 10), "O")
    assert err.value.token == "NotGenerating"
    with pytest.raises(BadParameter):
        three_involution_census(G, (6, 7, 8), "Q")


def test_three_involution_comparison_d6():
    G = named_group("dihedral", 12)
    rows = three_involution_comparison(G, (6, 7, 8), "L")
    acting = right_regular(G)
    reps = [acting.element(st.row)[0] for st, *_ in rows]
    assert reps == [0, 1, 2, 3, 6, 7]
    assert [st.l_value for st, *_ in rows] == [0, 0, 0, 0, 8, 4]
    assert [st.alpha_exponent for st, *_ in rows] == [6, 1, 2, 3, 7, 5]
    assert [assumed_l for _, assumed_l, *_ in rows] == [0, 12, 0, 12, 12, 12]
    assert [assumed_a for _, _, assumed_a, *_ in rows] == \
        [Fraction(6), Fraction(3), Fraction(2), Fraction(9), Fraction(9), Fraction(9)]
    assert [phi for *_, phi, _ in rows] == [262144, 8, 64, 512, 8192, 2048]
    assert [match for *_, match in rows] == [True, False, True, False, False, False]


def test_elem2_matches_generic_census():
    G = named_group("elementary_abelian_2", 3)
    S = validate_cayley_set(G, (1, 2, 4))
    expected = {"O": 46, "L": 928, "N": 882}
    for surface, value in expected.items():
        closed = elementary_abelian_census(3, (1, 2, 4), surface)
        assert closed.total.exact_value == value
        assert census(G, S, surface=surface).count.exact_value == value
        assert not closed.grr_valid and closed.label == "formula value only"


def test_elem2_n5_closed_form():
    S = (1, 2, 4, 8, 16)
    res = elementary_abelian_census(5, S, "O")
    displayed = (factorial(4) ** 32 + 31 * factorial(4) ** 16) // 32
    assert res.total.exact_value == displayed
    assert res.total.exact_value == \
        4587855770767701647311666870513086052171776
    assert float(res.total.log2_value) == pytest.approx(141.718800023077, abs=1e-9)
    assert res.grr_valid and res.label is None
    G = named_group("elementary_abelian_2", 5)
    cs = validate_cayley_set(G, S)
    for surface in ("O", "L", "N"):
        assert elementary_abelian_census(5, S, surface).total.exact_value == \
            census(G, cs, surface=surface).count.exact_value


def test_elem2_edges_and_big_values():
    res = elementary_abelian_census(1, (1,), "O")
    assert res.total.exact_value == 1 and res.grr_valid
    with pytest.raises(BadParameter):
        elementary_abelian_census(1, (1,), "L")
    basis20 = tuple(1 << i for i in range(20))
    res = elementary_abelian_census(20, basis20, "L", "log2")
    assert float(res.total.log2_value) == pytest.approx(68949572.8482235511, abs=1e-4)
    basis40 = tuple(1 << i for i in range(40))
    res = elementary_abelian_census(40, basis40, "O", "log2")
    assert float(res.total.log2_value) == pytest.approx(169145693129791.304, abs=0.01)
    with pytest.raises(CapExceeded):
        elementary_abelian_census(17, tuple(1 << i for i in range(17)), "O")
    with pytest.raises(CapExceeded):
        elementary_abelian_census(65, tuple(1 << i for i in range(65)), "O", "log2")
    with pytest.raises(BadParameter):
        elementary_abelian_census(0, (1,), "O")


def test_elem2_modp():
    S = (1, 2, 4, 8, 16)
    p = 10**9 + 7
    exact = elementary_abelian_census(5, S, "L").total.exact_value
    with localcontext(exact_context()):
        residue = exact % p
    assert elementary_abelian_census(5, S, "L", f"modp:{p}").total.residue == residue
    basis20 = tuple(1 << i for i in range(20))
    res = elementary_abelian_census(20, basis20, "L", f"modp:{p}")
    assert res.total.mode == "modp" and res.total.prime == p
    with pytest.raises(BadParameter):
        elementary_abelian_census(5, S, "L", "modp:2")
    with pytest.raises(BadParameter):
        elementary_abelian_census(5, S, "L", "modp:3")  # p <= k


def test_elem2_set_validation():
    with pytest.raises(BadParameter):
        elementary_abelian_census(3, (1, 2, 8), "O")
    with pytest.raises(BadParameter):
        elementary_abelian_census(3, (1, 1, 2), "O")
    with pytest.raises(CaySetInvalid) as err:
        elementary_abelian_census(3, (0, 1, 2, 4), "O")
    assert err.value.token == "ContainsIdentity"
    with pytest.raises(CaySetInvalid) as err:
        elementary_abelian_census(3, (1, 2, 3), "O")
    assert err.value.token == "NotGenerating"


def test_partition_tables_die_with_the_census(monkeypatch):
    # the class data of the partition pass dies with the pass, and the
    # label references, which the census keeps, die with the census: with
    # the cycle collector off, that shows no reference cycle holds either
    from cayleymaps import special

    refs = []
    class_table = special.class_table

    def recording(n, coder):
        table, labels = class_table(n, coder)
        refs.extend(weakref.ref(x) for x in (table.code, labels, labels.memo, labels.memo_row))
        return table, labels

    monkeypatch.setattr(special, "class_table", recording)
    gc.collect()
    gc.disable()
    try:
        result = special.sym_orientable_census(40, "log2")
        assert result.total.mode == "log2" and len(refs) == 4
        assert refs[0]() is None and all(r() is not None for r in refs[1:])
        del result
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("census_fn,n,bound_mb", [
    (sym_orientable_census, 40, 3.5),
    (sym_locally_census, 43, 5.0),
])
def test_sym_census_memory_is_bounded(census_fn, n, bound_mb):
    # the class table is held as narrow columns and label references, not
    # as a multiplicity matrix and one label string per class: the traced
    # peak of the whole census stays under the bound (one warm-up run first
    # fills mpmath's caches)
    census_fn(n, "log2")
    tracemalloc.start()
    try:
        census_fn(n, "log2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


def test_sym_censuses_parse_their_mode_once(monkeypatch):
    # the odd-modulus refusal reads the mode the census already parsed
    from cayleymaps import special

    seen = []

    def counted(mode):
        seen.append(mode)
        return parse_mode(mode)

    monkeypatch.setattr(special, "parse_mode", counted)
    special.sym_orientable_census(7, "modp:11")
    special.sym_locally_census(7, "modp:11")
    assert seen == ["modp:11", "modp:11"]
    with pytest.raises(BadParameter, match="^modulus 2 must be an odd prime$"):
        special.sym_locally_census(7, "modp:2")
