"""The oracle's block-table images against the per-vertex sum.

The reference below splits every code into one digit per vertex by
division and takes its image with one gather per vertex and a row sum, as
the oracle did before it read codes a block of vertices at a time.  Block
images, fixed counts and orbit leads must equal the reference's on every
semantics and surface, under every element of R(G) and of the full group,
and, on the cube and on K5, at every block width.
"""

import random

import numpy as np
import pytest

from cayleymaps import fixture, named_group, validate_cayley_set
from cayleymaps import oracle
from cayleymaps.autaction import extend_to_flags, right_regular
from cayleymaps.cayley import build_flag_space
from cayleymaps.errors import CayleymapsError
from cayleymaps.oracle import (
    DART,
    IMAGE_CHUNK,
    RAW,
    SIGMA,
    acting_group,
    burnside_count,
    enumerate_embeddings,
    fixed_count,
)


def reference_image(space, act, codes):
    """The per-vertex image of codes: digits by division, one gather per
    vertex, and a row sum."""
    rot, twist = np.divmod(codes, space.twists)
    V = len(act.digit_values)
    weights = space.choices ** np.arange(V - 1, -1, -1, dtype=np.int64)
    digits = (rot[:, None] // weights) % space.choices
    return act.digit_values[np.arange(V), digits].sum(axis=1) * space.twists + act.twist_image[twist]


def check_against_reference(gs, acting):
    """Images, fixed counts and orbit leads of ``gs`` under ``acting``."""
    flag_maps = extend_to_flags(acting.rows, gs.flag_space).tolist()
    positions = np.arange(len(gs.codes))
    blocks, twist = gs.space.split(gs.codes)
    cells = blocks + gs.space.table_offset
    fixed, least = [], positions.copy()
    for fm in flag_maps:
        act = gs.space.compile(fm)
        image = reference_image(gs.space, act, gs.codes)
        assert np.array_equal(act.image(cells, twist), image)
        moved = gs.index_of(image)
        fixed.append(int(np.count_nonzero(moved == positions)))
        np.minimum(least, moved, out=least)
    oc = burnside_count(acting, gs)
    assert oc.fixed_counts == tuple(fixed)
    assert np.array_equal(oc.leads, np.flatnonzero(least == positions))
    assert [fixed_count(fm, gs) for fm in flag_maps[:2]] == fixed[:2]


def _degree3_graph(seed):
    """A seeded Cayley graph of degree 3 on 4 to 8 vertices."""
    rng = random.Random(seed)
    while True:
        G = named_group(*rng.choice(
            (("cyclic", 4), ("cyclic", 6), ("cyclic", 8), ("dihedral", 6), ("dihedral", 8),
             ("elementary_abelian_2", 2), ("elementary_abelian_2", 3))))
        members = set()
        while len(members) < 3:
            g = rng.randrange(1, G.order)
            members |= {g, int(G.inverses[g])}
        if len(members) == 3:
            try:
                return G, validate_cayley_set(G, tuple(sorted(members)))
            except CayleymapsError:
                pass


def _acting(G, S):
    return {"rg": right_regular(G), "full": acting_group(G, S, "full")}


@pytest.mark.parametrize("seed", range(6))
def test_degree3_block_images_match_the_per_vertex_sum(seed):
    G, S = _degree3_graph(seed)
    F = build_flag_space(G, S)
    for semantics in (SIGMA, DART):
        for surface in "ONL":
            gs = enumerate_embeddings(F, semantics, surface)
            for acting in _acting(G, S).values():
                check_against_reference(gs, acting)


@pytest.mark.parametrize("family, param", [("cyclic", 4), ("elementary_abelian_2", 2)])
def test_raw_block_images_match_the_per_vertex_sum(family, param):
    # 8^4 raw keys on 4 vertices of degree 3; 8^6 are too many here
    G = named_group(family, param)
    S = validate_cayley_set(G, (1, 2, 3))
    F = build_flag_space(G, S)
    for surface in "ONL":
        gs = enumerate_embeddings(F, RAW, surface)
        for acting in _acting(G, S).values():
            check_against_reference(gs, acting)


def _k5():
    G = named_group("cyclic", 5)
    return G, validate_cayley_set(G, (1, 2, 3, 4))


def test_degree4_block_images_match_the_per_vertex_sum():
    # K5 = Cay(Z_5 : {1, 2, 3, 4}): 6 rotations per vertex, S_5 acting
    G, S = _k5()
    F = build_flag_space(G, S)
    for semantics, surface in [(DART, s) for s in "ONL"] + [(SIGMA, "O")]:
        gs = enumerate_embeddings(F, semantics, surface)
        assert gs.space.choices == 6
        for acting in _acting(G, S).values():
            check_against_reference(gs, acting)


@pytest.mark.parametrize("name, semantics, surface", [
    ("CUBE", SIGMA, "L"), ("CUBE", DART, "L"), ("K5", DART, "L"),
])
def test_every_block_width_gives_the_same_keys_and_images(monkeypatch, name, semantics, surface):
    if name == "K5":
        G, S = _k5()
    else:
        G, S = fixture(name).group, fixture(name).cayset
    F = build_flag_space(G, S)
    plain = enumerate_embeddings(F, semantics, surface)
    V = G.order
    sample = slice(None, None, 97)
    for width in range(1, V + 1):
        monkeypatch.setattr(oracle, "_block_width", lambda choices, codes, vertices: width)
        gs = enumerate_embeddings(F, semantics, surface)
        assert gs.space.width == width
        # the last block is partial wherever the width does not divide V
        assert gs.space.bounds[-1] == ((len(gs.space.bounds) - 1) * width, V)
        assert np.array_equal(gs.codes, plain.codes)
        assert np.array_equal(gs.euler_characteristic, plain.euler_characteristic)
        assert np.array_equal(gs.orientable, plain.orientable)
        assert gs.keys[sample] == plain.keys[sample]
        for acting in _acting(G, S).values():
            check_against_reference(gs, acting)


def test_block_width_is_the_largest_that_fits():
    assert oracle._block_width(2, 8192, 8) == 8  # cube sigma L: one block
    assert oracle._block_width(2, 1 << 18, 18) == 14  # Z_18 dart L: 14 + 4
    assert 2 ** 14 == IMAGE_CHUNK
    assert oracle._block_width(6, 7776, 5) == 5
    assert oracle._block_width(8, 4096, 4) == 4
    assert oracle._block_width(6, 35, 5) == 1  # fewer codes than choices
    assert oracle._block_width(2, 0, 8) == 1  # an empty ground set
    assert oracle._block_width(1, 4, 100) == 1  # one choice: no sums needed
