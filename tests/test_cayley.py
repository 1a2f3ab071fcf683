import pytest

from cayleymaps.cayley import (
    MINUS,
    PLUS,
    build_cayley_graph,
    build_flag_space,
    generic_flag_space,
    quadricells,
    validate_cayley_set,
)
from cayleymaps.errors import (
    CONTAINS_IDENTITY,
    NOT_GENERATING,
    NOT_INVERSE_CLOSED,
    TOO_SMALL,
    BadParameter,
    CaySetInvalid,
    NotCayleyLabeled,
)
from cayleymaps.groups import named_group
from cayleymaps.rotations import build_dart_structure


# Flag ids by the convention of ``cayleymaps.cayley``, one flag at a time:
# the reference the array-built flag spaces are checked against.

def flag_id(F, g, s, sign):
    if F.group is None or F.cayset is None:
        raise NotCayleyLabeled("flag space has no Cayley labeling")
    if not 0 <= g < F.group.order:
        raise BadParameter(f"vertex {g} out of range")
    if s not in F.cayset.members:
        raise BadParameter(f"{s} is not in the connection set")
    if sign not in (PLUS, MINUS):
        raise BadParameter(f"sign must be {PLUS} or {MINUS}, got {sign}")
    return 2 * (g * len(F.cayset) + F.cayset.rank(s)) + sign


def flag_decode(F, fid):
    if F.group is None or F.cayset is None:
        raise NotCayleyLabeled("flag space has no Cayley labeling")
    if not 0 <= fid < F.flag_count:
        raise BadParameter(f"flag id {fid} out of range [0,{F.flag_count})")
    sign = fid & 1
    dart = fid >> 1
    k = len(F.cayset)
    return dart // k, F.cayset.members[dart % k], sign


def cube():
    G = named_group("elementary_abelian_2", 3)
    return G, validate_cayley_set(G, (1, 2, 4))


def test_validate_sorts_and_dedups():
    G = named_group("cyclic", 5)
    S = validate_cayley_set(G, [4, 1, 4])
    assert S.members == (1, 4)
    assert S.rank(1) == 0 and S.rank(4) == 1


def test_validate_collects_all_violations():
    G = named_group("cyclic", 6)
    with pytest.raises(CaySetInvalid) as ei:
        validate_cayley_set(G, [0])
    tokens = [tok for tok, _ in ei.value.violations]
    assert TOO_SMALL in tokens and CONTAINS_IDENTITY in tokens and NOT_GENERATING in tokens
    # the error's own token is the first violation
    assert ei.value.token == tokens[0]


def test_validate_inverse_closure():
    G = named_group("cyclic", 6)
    with pytest.raises(CaySetInvalid) as ei:
        validate_cayley_set(G, [1, 3])  # inverse of 1 is 5
    assert NOT_INVERSE_CLOSED in [tok for tok, _ in ei.value.violations]
    # 2 and 4 are mutually inverse but generate only the even residues
    with pytest.raises(CaySetInvalid) as ei:
        validate_cayley_set(G, [2, 4])
    assert [tok for tok, _ in ei.value.violations] == [NOT_GENERATING]


def test_validate_range_check():
    G = named_group("cyclic", 4)
    with pytest.raises(BadParameter):
        validate_cayley_set(G, [1, 9])


def test_cayley_graph_cube():
    G, S = cube()
    graph = build_cayley_graph(G, S)
    assert graph.vertex_count == 8
    assert graph.edge_count == 12
    assert all(len(nb) == 3 for nb in graph.adjacency)
    assert graph.adjacency[0] == (1, 2, 4)
    assert graph.adjacency[7] == (3, 5, 6)
    assert (0, 1) in graph.edges() and (3, 7) in graph.edges()


def test_flag_id_convention_is_pinned():
    """id(g, s, sign) = 2*(g*|S| + rank(s)) + sign, rank in sorted S."""
    G, S = cube()
    F = build_flag_space(G, S)
    assert F.flag_count == 2 * 8 * 3
    k = len(S.members)
    for g in range(G.order):
        for j, s in enumerate(S.members):
            for sign in (PLUS, MINUS):
                fid = flag_id(F, g, s, sign)
                assert fid == 2 * (g * k + j) + sign
                assert flag_decode(F, fid) == (g, s, sign)


def test_alpha_flips_sign_beta_crosses_edge():
    G, S = cube()
    F = build_flag_space(G, S)
    for g in range(G.order):
        for s in S.members:
            plus = flag_id(F, g, s, PLUS)
            minus = flag_id(F, g, s, MINUS)
            assert F.alpha[plus] == minus and F.alpha[minus] == plus
            # beta lands at vertex s*g along s^{-1} with the sign kept
            for sign in (PLUS, MINUS):
                f = flag_id(F, g, s, sign)
                assert F.beta[f] == flag_id(F, G.mul(s, g), G.inv(s), sign)


def test_edge_count_and_quadricells():
    G, S = cube()
    F = build_flag_space(G, S)
    assert F.edge_count == G.order * len(S.members) // 2 == 12
    cells = quadricells(F)
    assert len(cells) == 12
    # normative indexing: cells sorted by minimal flag, each of 4 distinct flags
    mins = [min(c) for c in cells]
    assert mins == sorted(mins)
    assert all(c[0] == min(c) for c in cells)
    flat = sorted(f for c in cells for f in c)
    assert flat == list(range(F.flag_count))


@pytest.mark.parametrize(
    "family,param,members,flags",
    [("cyclic", 3, (1, 2), 12), ("cyclic", 4, (1, 3), 16), ("cyclic", 5, (1, 4), 20)],
)
def test_degree_two_flag_spaces(family, param, members, flags):
    G = named_group(family, param)
    F = build_flag_space(G, validate_cayley_set(G, members))
    assert F.flag_count == flags
    assert F.source == "cayley"


def test_generic_flag_space_checks_involutions():
    # a 4-flag single edge: alpha swaps sides, beta swaps ends
    F = generic_flag_space([1, 0, 3, 2], [2, 3, 0, 1])
    assert F.source == "generic"
    assert F.edge_count == 1
    with pytest.raises(BadParameter):
        generic_flag_space([1, 0], [0, 1])  # beta has fixed points
    with pytest.raises(BadParameter):
        generic_flag_space([1, 0, 3, 2], [1, 0, 3, 2])  # alpha*beta fixes flags
    with pytest.raises(BadParameter):
        generic_flag_space([1, 0, 3, 2], [2, 3, 0])  # length mismatch
    with pytest.raises(BadParameter):
        generic_flag_space([0, 1, 2, 3], [1, 0, 3, 2])  # alpha has fixed points


def test_generic_space_has_no_cayley_labels():
    F = generic_flag_space([1, 0, 3, 2], [2, 3, 0, 1])
    with pytest.raises(NotCayleyLabeled):
        flag_id(F, 0, 0, PLUS)
    with pytest.raises(NotCayleyLabeled):
        flag_decode(F, 0)
    with pytest.raises(NotCayleyLabeled):
        build_dart_structure(F)
