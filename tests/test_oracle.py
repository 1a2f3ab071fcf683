"""Exhaustive enumeration, Burnside counting, and the formula comparison."""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cayleymaps import (
    burnside_count,
    compare_with_formula,
    enumerate_embeddings,
    fixture,
    named_group,
    validate_cayley_set,
)
from cayleymaps.autaction import extend_to_flags, right_regular
from cayleymaps.errors import (
    BadParameter,
    CapExceeded,
    CayleymapsError,
    InternalInconsistency,
    NotCayleyLabeled,
)
from cayleymaps.fileio import save_group
from cayleymaps.oracle import (
    DART,
    DEFAULT_ORACLE_CAP,
    RAW,
    SIGMA,
    acting_group,
    fixed_count,
    ground_set_bound,
)


def maps_of(gs):
    """Every key of a ground set realized as a map, in key order."""
    return gs.representatives_of(gs.space.realize(gs.codes))


def test_ground_set_bound_frozen():
    k3 = fixture("K3").flag_space
    assert ground_set_bound(k3, RAW, "L") == 8
    assert ground_set_bound(k3, SIGMA, "L") == 2
    assert ground_set_bound(k3, DART, "L") == 1
    cube = fixture("CUBE").flag_space
    assert ground_set_bound(cube, RAW, "L") == 2**24
    assert ground_set_bound(cube, SIGMA, "L") == 8192
    assert ground_set_bound(cube, DART, "L") == 256
    # the bound follows the surface's own key space: SIGMA's C^V rotation
    # systems times its twist positions, RAW's and DART's one space
    for surface in "ON":
        assert ground_set_bound(k3, RAW, surface) == 8
        assert ground_set_bound(k3, SIGMA, surface) == 1
        assert ground_set_bound(k3, DART, surface) == 1
        assert ground_set_bound(cube, RAW, surface) == 2**24
        assert ground_set_bound(cube, DART, surface) == 256
    assert ground_set_bound(cube, SIGMA, "O") == 256
    assert ground_set_bound(cube, SIGMA, "N") == 256 * 31 == 7936
    with pytest.raises(BadParameter):
        ground_set_bound(k3, "signed", "L")
    with pytest.raises(BadParameter):
        ground_set_bound(k3, SIGMA, "Q")
    with pytest.raises(NotCayleyLabeled):
        ground_set_bound(fixture("FIG1").flag_space, SIGMA, "O")


@pytest.mark.parametrize("name", ["K3", "C4", "C5", "CUBE"])
def test_dart_is_the_orientable_sigma_space(name):
    fx = fixture(name)
    sigma = enumerate_embeddings(fx.flag_space, SIGMA, "O")
    acting = {"rg": right_regular(fx.group), "full": acting_group(fx.group, fx.cayset, "full")}
    for surface in "OL":
        gs = enumerate_embeddings(fx.flag_space, DART, surface)
        assert np.array_equal(gs.codes, sigma.codes)
        assert tuple(gs.keys) == tuple(sigma.keys)
        assert all(t == 0 for _rho, t in gs.keys)
        for group in acting.values():
            ours, theirs = burnside_count(group, gs), burnside_count(group, sigma)
            assert ours.fixed_counts == theirs.fixed_counts
            assert (ours.orbit_count, ours.orbit_sizes) == (theirs.orbit_count, theirs.orbit_sizes)
            assert tuple(ours.orbit_inventories) == tuple(theirs.orbit_inventories)
    gs = enumerate_embeddings(fx.flag_space, DART, "N")
    assert len(gs.keys) == 0 and gs.space.size == len(sigma.keys)
    oc = burnside_count(acting["rg"], gs)
    assert oc.fixed_counts == (0,) * fx.group.order and oc.orbit_count == 0


def test_k3_ground_set_sizes():
    F = fixture("K3").flag_space
    expected = {
        (RAW, "L"): 8, (RAW, "O"): 4, (RAW, "N"): 4,
        (SIGMA, "L"): 2, (SIGMA, "O"): 1, (SIGMA, "N"): 1,
        (DART, "L"): 1, (DART, "O"): 1, (DART, "N"): 0,
    }
    for (semantics, surface), size in expected.items():
        gs = enumerate_embeddings(F, semantics, surface)
        assert len(gs.keys) == size, (semantics, surface)
        assert len(maps_of(gs)) == size
        assert len(set(gs.keys)) == size


def test_surface_slices_realize_on_the_right_surface():
    F = fixture("K3").flag_space
    from cayleymaps.maps import inventory, is_orientable

    for semantics in (RAW, SIGMA):
        for surface, want in (("O", True), ("N", False)):
            gs = enumerate_embeddings(F, semantics, surface)
            assert all(is_orientable(M) == want for M in maps_of(gs))
    gs = enumerate_embeddings(F, SIGMA, "O")
    assert all(t == 0 for (_, t) in gs.keys)
    sphere = inventory(maps_of(gs)[0])
    assert (sphere.euler_characteristic, sphere.genus) == (2, 0)
    gs = enumerate_embeddings(F, SIGMA, "N")
    cross = inventory(maps_of(gs)[0])
    assert (cross.euler_characteristic, cross.orientable, cross.genus) == (1, False, 1)


def test_caps_and_bad_arguments():
    cube = fixture("CUBE").flag_space
    with pytest.raises(CapExceeded, match="exceeds cap"):
        enumerate_embeddings(cube, RAW, "L")
    assert ground_set_bound(cube, RAW, "L") > DEFAULT_ORACLE_CAP
    k3 = fixture("K3").flag_space
    with pytest.raises(BadParameter):
        enumerate_embeddings(k3, "signed", "L")
    with pytest.raises(BadParameter):
        enumerate_embeddings(k3, SIGMA, "Q")


def test_cap_refuses_before_building_the_key_space(monkeypatch):
    import cayleymaps.oracle as oracle

    def refuse(*args):
        raise AssertionError("the key space was built above the cap")

    monkeypatch.setattr(oracle, "KeySpace", refuse)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        enumerate_embeddings(fixture("CUBE").flag_space, SIGMA, "L", cap=8191)


def test_fixed_counts_frozen():
    fx = fixture("K3")
    acting = right_regular(fx.group)

    gs = enumerate_embeddings(fx.flag_space, SIGMA, "L")
    oc = burnside_count(acting, gs)
    assert oc.fixed_counts == (2, 2, 2)
    assert oc.orbit_count == 2
    assert oc.orbit_sizes == (1, 1)

    gs = enumerate_embeddings(fx.flag_space, RAW, "O")
    oc = burnside_count(acting, gs)
    assert oc.fixed_counts == (4, 1, 1)
    assert oc.orbit_count == 2

    fx = fixture("CUBE")
    gs = enumerate_embeddings(fx.flag_space, SIGMA, "O")
    oc = burnside_count(right_regular(fx.group), gs)
    assert oc.fixed_counts == (256,) + (16,) * 7
    assert oc.orbit_count == 46
    assert sum(oc.orbit_sizes) == len(gs.keys)


def test_orbit_additivity_across_surfaces():
    cases = [("K3", (RAW, SIGMA, DART)), ("C4", (RAW, SIGMA, DART)),
             ("C5", (RAW, SIGMA, DART)), ("CUBE", (SIGMA, DART))]
    for name, semantics_list in cases:
        fx = fixture(name)
        acting = right_regular(fx.group)
        for semantics in semantics_list:
            counts = {}
            for surface in ("O", "N", "L"):
                gs = enumerate_embeddings(fx.flag_space, semantics, surface)
                counts[surface] = burnside_count(acting, gs).orbit_count
            assert counts["O"] + counts["N"] == counts["L"], (name, semantics)


def test_orbit_invariants_on_k3_sigma():
    fx = fixture("K3")
    gs = enumerate_embeddings(fx.flag_space, SIGMA, "L")
    oc = burnside_count(right_regular(fx.group), gs)
    invs = sorted((i.orientable, i.euler_characteristic) for _, i in oc.orbits)
    assert invs == [(False, 1), (True, 2)]


def test_formula_matches_oracle_on_orientable_side():
    for name in ("K3", "C4", "C5", "CUBE"):
        fx = fixture(name)
        report = compare_with_formula(fx.group, fx.cayset, surface="O")
        assert report.total_ratio == 1, name
        assert report.oracle_orbits == report.formula_total
        assert all(line.ratio == 1 for line in report.lines), name
        assert all(c > 0 for c in report.orbit_census.fixed_counts)
    assert compare_with_formula(
        fixture("CUBE").group, fixture("CUBE").cayset, surface="O"
    ).formula_total == 46


def test_sigma_identity_class_ratio_is_two():
    # The marked ground set keeps both global orientations of each
    # orientable class apart, so the identity column doubles.
    for name in ("K3", "C4", "C5", "CUBE"):
        fx = fixture(name)
        report = compare_with_formula(fx.group, fx.cayset, surface="L")
        identity_lines = [line for line in report.lines if line.stats.order == 1]
        assert len(identity_lines) == 1
        assert identity_lines[0].ratio == Fraction(2), name


def test_cube_locally_orientable_comparison_frozen():
    fx = fixture("CUBE")
    report = compare_with_formula(fx.group, fx.cayset, surface="L")
    assert report.formula_total == 928
    assert report.oracle_orbits == 1184
    assert report.total_ratio == Fraction(1184, 928) == Fraction(37, 29)
    members = set(fx.cayset.members)
    for line in report.lines:
        g = report.census_result.acting.element(line.stats.row)[0]
        if g == 0:
            assert line.ratio == Fraction(2)
        elif g in members:
            assert line.ratio == Fraction(1, 4)
        else:
            assert line.ratio == Fraction(2)


def test_acting_group_choices():
    fx = fixture("K3")
    assert acting_group(fx.group, fx.cayset, "rg").rows.tolist() == (
        right_regular(fx.group).rows.tolist()
    )
    assert len(acting_group(fx.group, fx.cayset, "full")) == 6
    # No commuting complement on this graph, so rgxh falls back to R(G).
    assert len(acting_group(fx.group, fx.cayset, "rgxh")) == 3
    assert len(acting_group(fixture("CUBE").group, fixture("CUBE").cayset, "full")) == 48
    with pytest.raises(BadParameter):
        acting_group(fx.group, fx.cayset, "everything")


def test_fixed_count_of_identity_is_ground_set_size():
    fx = fixture("C4")
    gs = enumerate_embeddings(fx.flag_space, SIGMA, "L")
    identity = extend_to_flags(right_regular(fx.group).rows, fx.flag_space)[0]
    assert fixed_count(identity, gs) == len(gs.keys)


def _seeded_dihedral_degree3(seed):
    """Cay(D_8 : S) for a seeded inverse-closed generating S of size 3."""
    rng = random.Random(seed)
    G = named_group("dihedral", 8)
    while True:
        members = set()
        while len(members) < 3:
            g = rng.randrange(1, G.order)
            members |= {g, int(G.inverses[g])}
        if len(members) == 3:
            try:
                return G, validate_cayley_set(G, tuple(sorted(members)))
            except CayleymapsError:
                pass


def test_comparison_reads_each_class_from_the_burnside_sweep():
    # every per-class oracle count of the comparison is the representative's
    # own fixed count on the ground set
    cube = fixture("CUBE")
    for G, S in ((cube.group, cube.cayset), _seeded_dihedral_degree3(1)):
        for surface in "ONL":
            report = compare_with_formula(G, S, surface=surface)
            gs = report.orbit_census.ground_set
            for line in report.lines:
                theta = report.census_result.acting.element(line.stats.row)
                flag_map = extend_to_flags([theta], gs.flag_space)[0]
                assert line.oracle_fixed == fixed_count(flag_map, gs), (surface, theta)


def test_burnside_refuses_a_fixed_count_that_is_not_a_class_function(monkeypatch):
    # one member of a class of several elements is made to act as the
    # identity, so its fixed count leaves its conjugates'
    from cayleymaps.oracle import KeySpace

    fx = fixture("CUBE")
    acting = acting_group(fx.group, fx.cayset, "full")
    gs = enumerate_embeddings(fx.flag_space, SIGMA, "O")
    lifts = extend_to_flags(acting.rows, fx.flag_space).tolist()
    # class size |A| / |C(a)|, the centralizer read off the table
    a = next(i for i in range(1, len(acting))
             if len(acting) // np.count_nonzero(acting.table[:, i] == acting.table[i, :]) > 1)
    assert burnside_count(acting, gs).fixed_counts[a] != len(gs.keys)
    compile_action = KeySpace.compile

    def identity_for_a(self, flag_map):
        return compile_action(self, lifts[0] if list(flag_map) == lifts[a] else flag_map)

    monkeypatch.setattr(KeySpace, "compile", identity_for_a)
    with pytest.raises(InternalInconsistency, match="^fixed count is not a class function$"):
        burnside_count(acting, gs)


def test_comparison_forms_the_acting_group_once(monkeypatch):
    # the census's R(G) x H is the group the oracle sweeps
    from cayleymaps import autaction, formulas, oracle

    calls = []

    def counted(name):
        def call(*args):
            calls.append(name)
            return getattr(autaction, name)(*args)
        return call

    for module in (formulas, oracle):
        for name in ("product_group", "right_regular"):
            monkeypatch.setattr(module, name, counted(name))
    fx = fixture("CUBE")
    report = compare_with_formula(fx.group, fx.cayset, surface="L")
    assert calls == ["right_regular"]
    assert report.orbit_census.acting_size == len(report.census_result.acting) == 8


def test_each_chunk_is_labelled_once(monkeypatch):
    # every chunk of keys is checked and given its surfaces from one
    # labelling of P, one of the face permutation and one orbit pass
    from cayleymaps import oracle, perm

    calls = {"cycle_labels": 0, "orbit_labels": 0, "validate_map": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(perm, "cycle_labels")
    counted(perm, "orbit_labels")
    counted(oracle, "validate_map")
    F = fixture("CUBE").flag_space
    gs = enumerate_embeddings(F, SIGMA, "L")
    chunks = -(-len(gs.codes) // oracle.ROW_CHUNK)
    assert (len(gs.codes), chunks) == (8192, 16)
    assert calls == {"cycle_labels": 2 * chunks, "orbit_labels": chunks, "validate_map": chunks}


def test_oracle_refuses_a_lift_over_the_table_cap_before_building_it(monkeypatch, tmp_path, capsys):
    # Z_1000 on {1, 999} has a ground set of at most 2 keys, but R(Z_1000)
    # lifted to its 4000 flags would be 4 million flag images
    import cayleymaps.oracle as oracle
    from cayleymaps.cli import main

    G = named_group("cyclic", 1000)
    group, cayset = str(tmp_path / "z1000.group"), str(tmp_path / "z1000.cayset")
    save_group(G, group)
    Path(cayset).write_text("cayset 2\n1 999\n")

    def lifted(*args):
        raise AssertionError("the acting group was lifted")

    monkeypatch.setattr(oracle, "extend_to_flags", lifted)
    for argv in (["verify", group, cayset], ["census", "oracle", group, cayset, "--acting", "rg"]):
        assert main(argv) == 2, argv
        out = capsys.readouterr().out
        assert "acting group of order 1000 on 4000 points" in out
        assert "error-token: CapExceeded" in out


def test_a_cap_refused_verify_runs_no_census(monkeypatch, tmp_path, capsys):
    # both oracle caps are checked before the formula census: the ground-set
    # bound (the cube's 2^24 RAW keys) and the lift of R(Z_1000) to flags
    import cayleymaps.oracle as oracle
    from cayleymaps.cli import main

    def census(*args):
        raise AssertionError("the census ran")

    monkeypatch.setattr(oracle, "census", census)
    G = named_group("cyclic", 1000)
    group, cayset = str(tmp_path / "z1000.group"), str(tmp_path / "z1000.cayset")
    save_group(G, group)
    Path(cayset).write_text("cayset 2\n1 999\n")
    for argv, message in (
        (["verify", "fixtures:CUBE", "--semantics", "raw"], "ground set bound 16777216 exceeds cap"),
        (["verify", "fixtures:CUBE", "--cap", "100", "--surface", "L"], "ground set bound 8192 exceeds cap 100"),
        (["verify", group, cayset], "acting group of order 1000 on 4000 points"),
    ):
        assert main(argv) == 2, argv
        out = capsys.readouterr().out
        assert message in out and "error-token: CapExceeded" in out, argv
    # H counts in the lift, |R(G)H| = |G||H|, and the cap wins over the
    # census's own refusal of an H that lists a map twice
    from cayleymaps import perm

    cube = fixture("CUBE")
    monkeypatch.setattr(perm, "DEFAULT_TABLE_CAP", 16 * 16 * 48 - 1)
    with pytest.raises(CapExceeded, match="acting group of order 16 on 48 points"):
        compare_with_formula(cube.group, cube.cayset, [list(range(8))] * 2)


def test_the_cap_bounds_the_surface_s_own_ground_set(capsys):
    # the cube's SIGMA key spaces: 2^8 rotation systems on O, times 31
    # twisted classes on N and all 32 on L
    from cayleymaps.cli import main

    def run(*argv):
        rc = main(["census", "oracle", "fixtures:CUBE", *argv])
        return rc, capsys.readouterr().out

    plain = run("--surface", "O")
    assert plain[0] == 0 and "ground-set: 256\n" in plain[1]
    assert run("--surface", "O", "--cap", "256") == plain
    for argv, bound, cap in ((("O",), 256, 255), (("N",), 7936, 256), (("L",), 8192, 100)):
        assert run("--surface", *argv, "--cap", str(cap)) == (
            2, f"ground set bound {bound} exceeds cap {cap}\nerror-token: CapExceeded\n")


def test_enumeration_builds_darts_and_twist_classes_once(monkeypatch):
    # the cap check reads counts alone, so a refusal under any semantics
    # builds no twist classes
    import cayleymaps.oracle as oracle

    calls = []

    def counted(name):
        original = getattr(oracle, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(oracle, name, call)

    counted("build_dart_structure")
    counted("build_twist_classes")
    both = ["build_dart_structure", "build_twist_classes"]
    for semantics in (RAW, SIGMA, DART):
        calls.clear()
        enumerate_embeddings(fixture("K3").flag_space, semantics, "L")
        assert calls == both, semantics
    calls.clear()
    enumerate_embeddings(fixture("CUBE").flag_space, SIGMA, "O")
    assert calls == both
    calls.clear()
    with pytest.raises(CapExceeded, match="exceeds cap"):
        enumerate_embeddings(fixture("CUBE").flag_space, RAW, "L")
    assert calls == ["build_dart_structure"]
    calls.clear()
    with pytest.raises(CapExceeded, match="exceeds cap"):
        enumerate_embeddings(fixture("CUBE").flag_space, SIGMA, "L", cap=100)
    assert calls == ["build_dart_structure"]
