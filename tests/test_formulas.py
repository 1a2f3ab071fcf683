"""Per-class statistics, closed-form fixed counts, and census totals."""

import random
import tracemalloc
from math import factorial

import numpy as np
import pytest

from cayleymaps import census, fixture, formulas, named_group, perm, validate_cayley_set
from cayleymaps.autaction import right_regular
from cayleymaps.errors import (
    BadParameter,
    CapExceeded,
    NonIntegralExponent,
    NotSemiRegular,
)
from cayleymaps.formulas import (
    DELTA,
    THETA,
    class_stats,
    log2_of_int,
    make_report,
    parse_mode,
    phi_exact,
)
from cayleymaps.perm import PermGroup, conjugacy_classes_of, divisor_powers

import mpmath as mp


def test_parse_mode():
    assert parse_mode("exact") == ("exact", None)
    assert parse_mode("log2") == ("log2", None)
    assert parse_mode("modp:7") == ("modp", 7)
    assert parse_mode("modp:2147483647") == ("modp", 2**31 - 1)
    with pytest.raises(BadParameter):
        parse_mode("modp:1")
    with pytest.raises(BadParameter):
        parse_mode("modp:0")
    with pytest.raises(BadParameter):
        parse_mode("approximate")


def test_log2_of_int():
    assert log2_of_int(0) == mp.ninf
    assert log2_of_int(1) == 0
    assert float(log2_of_int(2**10)) == pytest.approx(10.0, rel=1e-15)
    assert float(log2_of_int(2**1000)) == pytest.approx(1000.0, rel=1e-15)
    with pytest.raises(BadParameter):
        log2_of_int(-5)


def test_make_report_shapes():
    r = make_report(928, "exact")
    assert r.mode == "exact" and r.exact_value == 928
    assert float(r.log2_value) == pytest.approx(float(mp.log(928, 2)), rel=1e-12)
    r = make_report(928, "log2")
    assert r.mode == "log2" and r.exact_value is None
    assert float(r.log2_value) == pytest.approx(float(mp.log(928, 2)), rel=1e-12)
    r = make_report(928, "modp:7")
    assert (r.mode, r.residue, r.prime) == ("modp", 928 % 7, 7)


def _after(a, b):
    return tuple(a[v] for v in b)


def _power(perm, k):
    """``perm`` composed with itself ``k`` times, one point at a time."""
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[x] for x in out]
    return out


def _brute_order(vm):
    acc = tuple(vm)
    n = 1
    while acc != tuple(range(len(vm))):
        acc = _after(vm, acc)
        n += 1
    return n


def test_permutation_order_and_power_match_brute_force():
    # each permutation's cyclic group as a searched PermGroup: the orders
    # and powers divisor_powers reads off its table against products taken
    # one point at a time
    rng = random.Random(7)
    for _ in range(20):
        vm = list(range(8))
        rng.shuffle(vm)
        vm = tuple(vm)
        o = _brute_order(vm)
        group = PermGroup([_power(vm, k) for k in range(o)])
        got = divisor_powers(group.table)
        a = int(group.find(np.array([vm]))[0])
        assert got.order[a] == o
        for d, row in zip(got.divisors.tolist(), got.powers[:, a].tolist()):
            assert group.element(row) == tuple(_power(vm, d))
        acc = tuple(range(8))
        for k in range(12):
            assert tuple(_power(vm, k)) == acc
            acc = _after(vm, acc)
    assert divisor_powers(PermGroup([tuple(range(6))]).table).order.tolist() == [1]
    assert tuple(_power((1, 0, 2), 0)) == (0, 1, 2)


def test_conjugacy_classes_of_regular_representations():
    d6 = named_group("dihedral", 12)
    group = right_regular(d6)
    sizes = sorted(len(c) for c in conjugacy_classes_of(group.table, group.inverse))
    assert sizes == [1, 1, 2, 2, 3, 3]

    s3 = named_group("symmetric", 3)
    group = right_regular(s3)
    sizes = sorted(len(c) for c in conjugacy_classes_of(group.table, group.inverse))
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_of_rejects_bad_pools():
    with pytest.raises(BadParameter):
        PermGroup([(1, 0, 2)])  # no identity
    with pytest.raises(BadParameter):
        PermGroup([(0, 1, 2), (1, 2, 0)])  # not closed


def test_class_stats_cube_table():
    fx = fixture("CUBE")
    G, S = fx.group, fx.cayset
    acting = right_regular(G)
    classes = class_stats(G, S, acting)
    # nu = 8, eps = 12, k = 3; every class is a singleton; R(g) is row g.
    assert [acting.element(st.row) for st in classes] == [acting.element(g) for g in range(8)]
    for g, st in enumerate(classes):
        assert st.class_size == 1
        if g == 0:
            expected = (1, 0, THETA, 12, 4)
        elif g in S.members:
            expected = (2, 8, DELTA, 8, 6)
        else:
            expected = (2, 0, THETA, 6, 2)
        got = (st.order, st.l_value, st.branch, st.edge_orbits, st.alpha_exponent)
        assert got == expected, f"g = {g}: {got} != {expected}"


def test_l_value_equals_conjugation_count():
    # With H = 1 every representative is a translation R(g), and l is also
    # #{t : t g^{o/2} t^-1 in S}, read here from whole table columns.
    cube = fixture("CUBE")
    d6 = named_group("dihedral", 12)
    cases = (
        (cube.group, cube.cayset),
        (d6, validate_cayley_set(d6, (6, 7, 8))),
    )
    for G, S in cases:
        T = G.table
        res = census(G, S, surface="L")
        for st in res.classes:
            if st.order % 2:
                assert st.l_value == 0
                continue
            gh = int(_power(T[res.acting.element(st.row)[0]], st.order // 2)[0])  # row g is t -> gt
            alt = int(np.isin(T[T[:, gh], G.inverses], S.members).sum())
            assert alt == st.l_value


def test_phi_additivity_per_class():
    fixtures = [fixture(n) for n in ("K3", "C4", "C5", "CUBE")]
    pairs = [(fx.group, fx.cayset) for fx in fixtures]
    d6 = named_group("dihedral", 12)
    pairs.append((d6, validate_cayley_set(d6, (6, 7, 8))))
    for G, S in pairs:
        k = len(S.members)
        res = {s: census(G, S, surface=s) for s in ("O", "N", "L")}
        reps = [res["O"].acting.element(st.row) for st in res["O"].classes]
        for s in ("N", "L"):
            assert [res[s].acting.element(st.row) for st in res[s].classes] == reps
        for i in range(len(reps)):
            st = res["O"].classes[i]
            assert res["O"].phi_values[i] == factorial(k - 1) ** (G.order // st.order)
            assert res["O"].phi_values[i] + res["N"].phi_values[i] == res["L"].phi_values[i]
            assert phi_exact(st, "O", k) == res["O"].phi_values[i]
        total = {s: res[s].count.exact_value for s in ("O", "N", "L")}
        assert total["O"] + total["N"] == total["L"]
    with pytest.raises(BadParameter):
        phi_exact(res["O"].classes[0], "Q", 3)


def test_census_totals_frozen():
    fx = fixture("CUBE")
    assert census(fx.group, fx.cayset, surface="O").count.exact_value == 46
    assert census(fx.group, fx.cayset, surface="L").count.exact_value == 928
    assert census(fx.group, fx.cayset, surface="N").count.exact_value == 882
    for name in ("K3", "C4", "C5"):
        fx = fixture(name)
        assert census(fx.group, fx.cayset, surface="O").count.exact_value == 1
        assert census(fx.group, fx.cayset, surface="L").count.exact_value == 1
        assert census(fx.group, fx.cayset, surface="N").count.exact_value == 0
        assert len(census(fx.group, fx.cayset).acting) == fx.group.order


def test_census_modes_agree():
    fx = fixture("CUBE")
    exact = census(fx.group, fx.cayset, surface="L", mode="exact")
    assert exact.count.exact_value == 928
    log2 = census(fx.group, fx.cayset, surface="L", mode="log2")
    assert float(log2.count.log2_value) == pytest.approx(
        float(exact.count.log2_value), rel=1e-12
    )
    for p in (2**31 - 1, 10**9 + 7):
        modp = census(fx.group, fx.cayset, surface="L", mode=f"modp:{p}")
        assert modp.count.residue == 928 % p
        assert modp.count.prime == p


def test_census_rejects_bad_surface_and_mode():
    fx = fixture("K3")
    with pytest.raises(BadParameter):
        census(fx.group, fx.cayset, surface="X")
    with pytest.raises(BadParameter):
        census(fx.group, fx.cayset, mode="approximate")


def test_sym3_transpositions_have_half_integer_alpha():
    # Conjugates of a transposition stay in S, so l = 6 and
    # alpha = (9 + 6 - 6)/2 is not an integer on any surface.
    G = named_group("symmetric", 3)
    members = tuple(np.flatnonzero(divisor_powers(G.table).order == 2).tolist())
    S = validate_cayley_set(G, members)
    for surface in ("O", "N", "L"):
        with pytest.raises(NonIntegralExponent, match="not a non-negative integer"):
            census(G, S, surface=surface)


def test_grr_census_cross_checks():
    # Odd group order: no even-order translations, so l = 0 and every
    # branch is Theta.
    fx = fixture("K3")
    res = census(fx.group, fx.cayset, surface="O")
    assert res.count.exact_value == 1
    assert all(st.order % 2 for st in res.classes)
    assert all(st.l_value == 0 for st in res.classes)
    assert all(st.branch == THETA for st in res.classes)


def test_census_with_non_semi_regular_h_raises():
    fx = fixture("CUBE")
    swap = tuple((t & 4) | ((t & 1) << 1) | ((t & 2) >> 1) for t in range(8))
    identity = tuple(range(8))
    with pytest.raises(NotSemiRegular):
        census(fx.group, fx.cayset, H=[identity, swap])


def test_census_refuses_over_the_table_cap_before_building_anything(monkeypatch):
    # R(G)H for the cube and a vertex-fixing swap: |A| = 16 on 8 vertices,
    # 2048 composed points
    fx = fixture("CUBE")
    swap = tuple((t & 4) | ((t & 1) << 1) | ((t & 2) >> 1) for t in range(8))
    H = [tuple(range(8)), swap]
    built = []

    def product_group(*args):
        built.append(args)
        raise AssertionError("the acting group was built")

    monkeypatch.setattr(formulas, "product_group", product_group)
    monkeypatch.setattr(perm, "DEFAULT_TABLE_CAP", 2047)
    with pytest.raises(CapExceeded, match="2048 composed points"):
        census(fx.group, fx.cayset, H=H)
    assert built == []
    monkeypatch.setattr(perm, "DEFAULT_TABLE_CAP", 2048)
    with pytest.raises(AssertionError, match="was built"):
        census(fx.group, fx.cayset, H=H)
    assert len(built) == 1


def test_h1_census_above_the_old_table_bound():
    # order 1000 composes 10^9 points if searched, over the table cap
    G = named_group("dihedral", 1000)
    assert G.order ** 3 > perm.DEFAULT_TABLE_CAP
    S = validate_cayley_set(G, (1, 499, 500))  # r, r^-1, s
    res = {s: census(G, S, surface=s) for s in "ONL"}
    total = {s: res[s].count.exact_value for s in "ONL"}
    assert total["O"] + total["N"] == total["L"]
    assert len(res["O"].acting) == 1000
    p = 2**31 - 1
    for s in "ONL":
        modp = census(G, S, surface=s, mode=f"modp:{p}").count
        assert modp.residue == total[s] % p


def test_class_stats_holds_no_vertex_map_per_class():
    # Z_720 has 720 classes; a |G|-tuple for each would hold 518,400 ints
    G = named_group("cyclic", 720)
    S = validate_cayley_set(G, (1, 2, 718, 719))
    acting = right_regular(G)
    tracemalloc.start()
    try:
        stats = class_stats(G, S, acting)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stats) == 720
    assert peak < 8 * 2**20, peak
    assert held < 2**20, held


def test_h1_paths_never_search_for_the_acting_group(monkeypatch, capsys):
    # R(G) is read off the validated group table; only maps from outside
    # the program (an H, the full automorphism group) are searched
    from cayleymaps import oracle
    from cayleymaps.cli import main

    def searched(*args):
        raise AssertionError("the acting group was searched")

    fx = fixture("CUBE")
    monkeypatch.setattr(PermGroup, "__init__", searched)
    with pytest.raises(AssertionError, match="searched"):
        census(fx.group, fx.cayset, H=[tuple(range(8))])
    for module in (formulas, oracle):
        monkeypatch.setattr(module, "product_group", searched)
    for surface, total in zip("ONL", (46, 882, 928)):
        assert census(fx.group, fx.cayset, surface=surface).count.exact_value == total
    for argv in (
        ["census", "formula", "fixtures:CUBE", "--surface", "L"],
        ["verify", "fixtures:CUBE"],
        ["census", "oracle", "fixtures:CUBE", "--acting", "rg"],
        ["three-inv", "fixtures:CUBE", "--compare"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()

    # with no search the table cap does not bound the formula paths; it
    # still bounds the oracle's lift of R(G) to flags
    monkeypatch.setattr(perm, "DEFAULT_TABLE_CAP", 1)
    assert len(right_regular(fx.group)) == 8
    assert census(fx.group, fx.cayset).count.exact_value == 46
    for argv in (["census", "formula", "fixtures:CUBE"], ["three-inv", "fixtures:CUBE", "--compare"]):
        assert main(argv) == 0, argv
    assert "total: 46" in capsys.readouterr().out
    for argv in (["verify", "fixtures:CUBE"], ["census", "oracle", "fixtures:CUBE", "--acting", "rg"]):
        assert main(argv) == 2, argv
        assert "error-token: CapExceeded" in capsys.readouterr().out
