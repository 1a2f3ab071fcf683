"""Exhaustive ground-truth enumeration of embeddings and orbit counting.

Ground sets are keyed, not stored as raw permutations, in two key spaces:

  RAW    distinct valid flag permutations, keyed by the permutation itself;
  SIGMA  rotation system plus twist class modulo vertex flips (the default;
         its orientable slice is exactly the classical rotation systems).

DART, the rotation systems alone (single-dart side exchanges reach every
twist pattern), names SIGMA's orientable space on every surface, empty on
N.  ``ground_set_bound`` is the size of a space, checked against the cap.

Key codes.  A key is stored as one integer: a mixed-radix number over the
vertices (vertex 0 most significant) whose digit is the vertex's local
choice -- a canonical rotation, and for RAW also the signs of its darts
with the first dart anchored to plus -- times the number of twist classes
plus the class position for SIGMA.  Codes ascend in the order
``itertools.product`` lists the keys, so the key order, each orbit's least
member and the output are those of plain enumeration.  Every code is
realized as a flag row (a gather from a table of local flag images), in
chunks of int16 rows; one ``maps.validate_map`` call per chunk validates
every row (permutation, axioms i-iii) and returns the rows' surfaces, all
from one labelling of the chunk (see ``maps``), in the index buffers of one
``maps.CheckContext`` that every chunk reuses.  RAW keeps the codes on the
requested surface, a sorted array searched to find a transported key.

Compiled action.  Codes are decoded a block of g consecutive vertices at a
time: one floor-divide and one modulo per block give its block code, and a
``(C^g, g)`` digit table gives the vertices' digits where a key is
realized.  g is the largest width (at most V) with C^g, for C local
choices, at most the number of codes and at most one sweep chunk, so no
table outgrows the keys it serves.  An automorphism acts on a vertex's
local choices, so it compiles once: each local choice's flag block (not
each key) is conjugated under every semantics and found among the choices
by one ``searchsorted`` over flag blocks as integers, which gives a
``(V, C)`` table of weighted image digits; outer sums of its rows, one
vertex at a time, give each block of vertices a table of the summed image
weight of every block code; for SIGMA a table of twist-class images is
built from the images of the free twist bits.  The image of a whole chunk
of codes is then one gather per block (and one for the twist) and one
sum, and a fixed count is one array comparison.

Min-image orbits.  The acting set is checked to be a group, so the least
image of a key over the group is the least member of its orbit: a running
minimum over the elements labels every orbit, with no union-find and no
array of all images.  Keys and representatives are decoded on demand; the
inventories of a chunk of representatives come from one
``maps.inventories`` call, which checks every row again (the axioms and
the inventory invariants, from the same labelling) before it reads them.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Hashable, Sequence

import numpy as np

from .autaction import (
    decompose,
    extend_to_flags,
    graph_automorphism_group,
    product_group,
    right_regular,
)
from .cayley import FlagSpace, build_cayley_graph, build_flag_space
from .errors import (
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    NonIntegralBurnside,
    NotCayleyLabeled,
)
from .formulas import CensusResult, ClassStats, census
from .groups import FiniteGroup
from .maps import CheckContext, MapInventory, MapPermutation, inventories, validate_map
from .perm import PermGroup, check_table_size, row_dtype
from .rotations import (
    DartStructure,
    TwistClasses,
    build_dart_structure,
    build_twist_classes,
    dart_map_of_flag_map,
    edge_map_of_dart_map,
    realize_signed,
    vertex_rotations,
)

RAW = "raw"
SIGMA = "sigma"
DART = "dart"
SEMANTICS = (RAW, SIGMA, DART)

DEFAULT_ORACLE_CAP = 1 << 22

# Keys realized and checked at once as (ROW_CHUNK, flags) rows, and keys
# whose images are taken at once.
ROW_CHUNK = 1 << 9
IMAGE_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Key codes
# ---------------------------------------------------------------------------

def _block_width(choices: int, codes: int, vertices: int) -> int:
    """Vertices per block: the largest g <= ``vertices`` with
    ``choices ** g <= min(codes, IMAGE_CHUNK)``, at least 1.  With one
    choice every width gives one-entry tables, and width 1 needs no sums."""
    limit = min(codes, IMAGE_CHUNK)
    g = 1
    while g < vertices and 1 < choices ** (g + 1) <= limit:
        g += 1
    return g


def _resolve(semantics: str, surface: str) -> tuple[str, str]:
    """The key space of a semantics' ground set on a surface: its semantics,
    RAW or SIGMA, and the surface it enumerates.  DART is SIGMA's O space on
    every surface, left unswept on N by ``KeySpace.swept``: it is empty."""
    if surface not in ("O", "N", "L"):
        raise BadParameter(f"unknown surface {surface!r}")
    if semantics not in SEMANTICS:
        raise BadParameter(f"unknown semantics {semantics!r}")
    return {RAW: (RAW, "L"), SIGMA: (SIGMA, surface), DART: (SIGMA, "O")}[semantics]


def _radices(F: FlagSpace, semantics: str, surface: str) -> tuple[int, int, int]:
    """A key space's local choices per vertex, its twist positions and the
    twist class of the first position, from the flag space's counts."""
    k, V = len(F.cayset.members), F.group.order
    if semantics == RAW:  # a key's signs are part of its choices
        return factorial(k - 1) << (k - 1), 1, 0
    # a validated connection set generates G: the graph is connected, with
    # 2^(E - V + 1) twist classes, every one but the untwisted one on N
    classes = 1 << (F.edge_count - V + 1)
    return (factorial(k - 1), *{"O": (1, 0), "N": (classes - 1, 1), "L": (classes, 0)}[surface])


class KeySpace:
    """The key codes of one semantics and surface on a Cayley flag space,
    those of the key space ``_resolve`` names."""

    def __init__(self, D: DartStructure, T: TwistClasses, semantics: str, surface: str):
        self.D, self.T = D, T
        self.semantics, self.surface = _resolve(semantics, surface)
        k, V = D.degree, D.vertex_count
        C, self.twists, self.twist_offset = _radices(D.flag_space, self.semantics, self.surface)
        self.size = ground_set_bound(D.flag_space, semantics, surface)
        # the codes swept: every one, or none where O and N meet nowhere
        self.swept = 0 if {self.surface, surface} == {"O", "N"} else self.size
        self.flag_count = D.flag_space.flag_count
        rotations = [tuple(rot) for rot in vertex_rotations(D, 0)]
        self.patterns = rotations  # at vertex v, add v*k to every dart

        # Flag images of vertex 0's 2k flags for every rotation and sign
        # pattern (bit i is the sign of dart i); realize_signed only reads
        # the darts of the cycles it is given.  Vertex v's block is the same
        # plus 2*k*v: for R rotations, row (v * R + rotation) * 2^k + signs
        # of vertex_local.
        dtype = row_dtype(self.flag_count)
        local = np.array([
            [realize_signed(D, (rot,), [(s >> i) & 1 for i in range(k)]).P[:2 * k]
             for s in range(1 << k)]
            for rot in rotations
        ], dtype=dtype)
        self.vertex_local = (local + (2 * k * np.arange(V, dtype=dtype))[:, None, None, None]).reshape(-1, 2 * k)
        self.vertex_row = (len(rotations) << k) * np.arange(V)

        # The untwisted sign pattern at each vertex: the upper end dart of
        # every edge is minus.  A twisted free edge turns its upper end plus.
        upper = [d2 for _d1, d2 in D.edge_ends]
        base_signs = np.zeros(V, dtype=np.int64)
        for d in upper:
            base_signs[d // k] |= 1 << (d % k)
        self.free = T.free
        twist_flips = np.zeros((len(self.free), V), dtype=np.int64)
        for j, e in enumerate(self.free):
            d = upper[e]
            twist_flips[j, d // k] = 1 << (d % k)

        if self.semantics == RAW:
            rotation, bits = np.divmod(np.arange(C), 1 << (k - 1))
            # product order over darts 1..k-1: dart 1's bit is the highest
            signs = sum(((bits >> (k - 1 - i)) & 1) << i for i in range(1, k))
            choice_blocks = local[rotation, signs]
        else:
            # an all-plus block per rotation: the lift of a graph map keeps
            # signs, so the transported blocks are all-plus again
            rotation, signs = np.arange(len(rotations)), 0
            choice_blocks = local[:, 0]
        # each choice's row of vertex_local at vertex 0
        self.choice_row = (rotation << k) + signs
        self.choices = C
        # every choice's flag images at every vertex, (V, C, 2k)
        self.choice_flags = choice_blocks + 2 * k * np.arange(V)[:, None, None]
        # a flag block as one integer, its flag images the digits in base 2k
        self.place = (2 * k) ** np.arange(2 * k - 1, -1, -1, dtype=np.int64)
        choice_codes = choice_blocks.astype(np.int64) @ self.place
        self.choice_order = np.argsort(choice_codes)
        self.choice_codes = choice_codes[self.choice_order]
        # the sign pattern at every vertex of each twist position; a RAW
        # key's signs are part of its choices
        if self.semantics == RAW:
            self.twist_signs = np.zeros((1, V), dtype=np.int64)
        else:
            nf = len(self.free)
            bits = ((np.arange(self.twists) + self.twist_offset)[:, None] >> np.arange(nf - 1, -1, -1)) & 1
            self.twist_signs = base_signs ^ (bits @ twist_flips)
        self.weights = np.array([C ** (V - 1 - v) for v in range(V)], dtype=np.int64)

        # Codes are read a block of g consecutive vertices at a time (the
        # last block may be shorter): a block's code is its vertices' digits,
        # the first most significant.  Block codes index a (C^g, g) digit
        # table, whose rows below C^r have g - r leading zeros, so a last
        # block of r vertices reads its last r columns.
        g = self.width = _block_width(C, self.swept, V)
        self.bounds = [(lo, min(lo + g, V)) for lo in range(0, V, g)]
        self.block_weight = np.array(
            [self.twists * C ** (V - hi) for _lo, hi in self.bounds], dtype=np.int64)[:, None]
        self.block_radix = np.array([C ** (hi - lo) for lo, hi in self.bounds], dtype=np.int64)[:, None]
        self.digit_table = np.arange(C ** g)[:, None] // C ** np.arange(g - 1, -1, -1) % C
        # block b's table starts at b * C^g in the flat table of an action
        self.table_offset = (C ** g * np.arange(len(self.bounds), dtype=np.int64))[:, None]

    def split(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block codes ``(blocks, m)`` and twist positions of codes."""
        return codes // self.block_weight % self.block_radix, codes % self.twists

    def digits(self, blocks: np.ndarray) -> np.ndarray:
        """Per-vertex digits ``(m, V)`` of block codes ``(blocks, m)``."""
        out = np.empty((blocks.shape[1], self.D.vertex_count), dtype=np.int64)
        for b, (lo, hi) in enumerate(self.bounds):
            out[:, lo:hi] = self.digit_table[blocks[b], self.width - (hi - lo):]
        return out

    def realize(self, codes: np.ndarray) -> np.ndarray:
        """The flag permutation of every code, as ``(m, flags)`` rows."""
        blocks, twist = self.split(codes)
        rows = self.vertex_row + self.choice_row[self.digits(blocks)] + self.twist_signs[twist]
        return self.vertex_local[rows].reshape(len(codes), self.flag_count)

    def key(self, code: int) -> Hashable:
        """The key of a code: the flag permutation (RAW), or the rotation
        system and the reduced twist mask of its class, whose bits are the
        free edges in ascending order, the first one highest (SIGMA)."""
        codes = np.array([code], dtype=np.int64)
        if self.semantics == RAW:
            return tuple(self.realize(codes)[0].tolist())
        blocks, twist = self.split(codes)
        k = self.D.degree
        rho = tuple(
            tuple(v * k + d for d in self.patterns[r])
            for v, r in enumerate(self.digits(blocks)[0].tolist())
        )
        cls, nf = int(twist[0]) + self.twist_offset, len(self.free)
        return rho, sum(1 << e for j, e in enumerate(self.free) if (cls >> (nf - 1 - j)) & 1)

    def compile(self, flag_map: Sequence[int]) -> "CompiledAction":
        """The action of a sign-preserving flag bijection on codes."""
        D, k, V = self.D, self.D.degree, self.D.vertex_count
        dart_map = dart_map_of_flag_map(D, flag_map)
        # conjugate every local choice P at every vertex v onto its target
        # vertex w, image[fm[f]] = fm[P[f]] on flags local to v and w, and
        # take the image's code at once: fm[P[f]] is its digit at place fm[f]
        fm = np.asarray(flag_map)
        target = fm[::2 * k] // (2 * k)
        start = 2 * k * target[:, None]
        places = self.place[fm.reshape(V, 2 * k) - start]
        codes = ((fm[self.choice_flags] - start[:, :, None]) * places[:, None, :]).sum(axis=2)
        pos = np.minimum(np.searchsorted(self.choice_codes, codes), self.choices - 1)
        if (self.choice_codes[pos] != codes).any():
            raise InternalInconsistency("transported local choice is not a choice")
        digit_values = self.choice_order[pos] * self.weights[target][:, None]

        twist_image = np.zeros(1, dtype=np.int64)
        if self.twists > 1:
            # twist transport and reduction are GF(2)-linear, so a class's
            # image is the xor of the images of its free bits
            edge_map = edge_map_of_dart_map(D, dart_map)
            nf = len(self.free)
            for e in self.free:
                mask = self.T.reduce(1 << edge_map[e])
                cls = sum(1 << (nf - 1 - j) for j, f in enumerate(self.free) if (mask >> f) & 1)
                twist_image = (twist_image[:, None] ^ np.array([0, cls])).ravel()
            if np.bincount(twist_image, minlength=len(twist_image)).min() != 1:
                raise InternalInconsistency("twist-class transport is not a bijection")
            twist_image = twist_image[self.twist_offset:] - self.twist_offset

        # each block's table by outer sums, one vertex at a time
        tables = []
        for lo, hi in self.bounds:
            table = digit_values[lo]
            for row in digit_values[lo + 1:hi]:
                table = (table[:, None] + row).ravel()
            tables.append(table)
        return CompiledAction(digit_values, np.concatenate(tables) * self.twists, twist_image)


@dataclass(frozen=True)
class CompiledAction:
    """``digit_values[v, c]``: the rotation-code weight, at its image
    vertex, of the image of choice ``c`` at vertex ``v``; ``table``: every
    block's table in turn, the image code, less its twist position, of each
    block code (its digit values summed, times the number of twists);
    ``twist_image``: the image of every twist position."""

    digit_values: np.ndarray
    table: np.ndarray
    twist_image: np.ndarray

    def image(self, cells: np.ndarray, twist: np.ndarray) -> np.ndarray:
        """Images of codes given as their block codes plus each block's
        table offset, ``(blocks, m)``, and their twist positions."""
        rot = self.table[cells].sum(axis=0)
        return rot if len(self.twist_image) == 1 else rot + self.twist_image[twist]


class _Decoded(SequenceABC):
    """A read-only sequence whose items are decoded on access, a chunk of
    positions at a time when iterated; nothing decoded is kept."""

    def __init__(self, size: int, decode: Callable[[np.ndarray], list]):
        self._size, self._decode = size, decode

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        picked = range(self._size)[i]
        if isinstance(picked, range):
            return tuple(self._decode(np.arange(picked.start, picked.stop, picked.step)))
        return self._decode(np.array([picked]))[0]

    def __iter__(self):
        for lo in range(0, self._size, ROW_CHUNK):
            yield from self._decode(np.arange(lo, min(lo + ROW_CHUNK, self._size)))


@dataclass(frozen=True, eq=False)
class GroundSet:
    """The keys on one surface, as ascending codes of a key space, with the
    Euler characteristic and orientability of each realized key."""

    flag_space: FlagSpace
    space: KeySpace
    codes: np.ndarray
    euler_characteristic: np.ndarray
    orientable: np.ndarray

    @property
    def keys(self) -> Sequence[Hashable]:
        return _Decoded(len(self.codes), lambda pos: [self.space.key(c) for c in self.codes[pos].tolist()])

    def representatives_of(self, rows: np.ndarray) -> list[MapPermutation]:
        """The maps of some realized rows, validated when enumerated."""
        return [MapPermutation(flag_space=self.flag_space, P=tuple(row)) for row in rows.tolist()]

    def index_of(self, codes: np.ndarray) -> np.ndarray:
        """Position of each code in the ground set."""
        if len(self.codes) and self.codes[-1] == len(self.codes) - 1:
            return codes  # every code is present
        pos = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        if (self.codes[pos] != codes).any():
            raise InternalInconsistency("a transported key is missing from the ground set")
        return pos


@dataclass(frozen=True, eq=False)
class OrbitCensus:
    """Burnside's count with its explicit orbits.  Representatives (each
    orbit's least key) and their inventories are decoded on access."""

    acting_size: int
    fixed_counts: tuple[int, ...]
    orbit_count: int
    orbit_sizes: tuple[int, ...]
    ground_set: GroundSet
    leads: np.ndarray

    @property
    def orbits(self) -> Sequence[tuple[MapPermutation, MapInventory]]:
        """Each orbit's representative with its inventory, both from one
        decoding of the representative."""
        gs = self.ground_set

        def decode(pos):
            rows = self._realize(pos)
            return list(zip(gs.representatives_of(rows), inventories(gs.flag_space, rows)))

        return _Decoded(len(self.leads), decode)

    @property
    def orbit_inventories(self) -> Sequence[MapInventory]:
        """Each orbit representative's inventory, with no map built."""
        return _Decoded(len(self.leads), lambda pos: inventories(self.ground_set.flag_space, self._realize(pos)))

    def _realize(self, pos: np.ndarray) -> np.ndarray:
        gs = self.ground_set
        return gs.space.realize(gs.codes[self.leads[pos]])


# ---------------------------------------------------------------------------
# Ground-set enumeration
# ---------------------------------------------------------------------------

def ground_set_bound(F: FlagSpace, semantics: str, surface: str) -> int:
    """The size of the key space of a semantics on a surface, read off
    counts before anything is built: (k-1)!^V on O and for DART, times
    2^(E-V+1) - 1 on N and 2^(E-V+1) on L; ((k-1)! 2^(k-1))^V for RAW."""
    if F.source != "cayley":
        raise NotCayleyLabeled("a key space needs a Cayley-labelled flag space")
    choices, twists, _first = _radices(F, *_resolve(semantics, surface))
    return choices ** F.group.order * twists


def _check_cap(F: FlagSpace, semantics: str, surface: str, cap: int) -> None:
    """Refuses a key space larger than the cap."""
    bound = ground_set_bound(F, semantics, surface)
    if bound > cap:
        raise CapExceeded(f"ground set bound {bound} exceeds cap {cap}")


def enumerate_embeddings(
    F: FlagSpace,
    semantics: str = SIGMA,
    surface: str = "L",
    cap: int = DEFAULT_ORACLE_CAP,
) -> GroundSet:
    """All embedding classes under the semantics, realized and validated.

    Refuses (rather than samples) ground sets larger than the cap.
    """
    D = build_dart_structure(F)
    _check_cap(F, semantics, surface, cap)
    T = build_twist_classes(D)
    if T.rank != D.vertex_count - 1:
        raise InternalInconsistency(f"{T.class_count} twist classes, not the bound's 2^(E - V + 1)")
    space = KeySpace(D, T, semantics, surface)

    codes, chi, orientable = [], [], []
    want = surface == "O"
    size = space.swept
    context = CheckContext(F, row_dtype(F.flag_count), min(ROW_CHUNK, size))
    for lo in range(0, size, ROW_CHUNK):
        chunk = np.arange(lo, min(lo + ROW_CHUNK, size), dtype=np.int64)
        rows = space.realize(chunk)
        surfaces = validate_map(F, rows, context)
        keep = slice(None)
        if surface != "L":
            on_surface = surfaces.orientable == want
            if space.surface == "L":
                keep = on_surface
            elif not on_surface.all():
                raise InternalInconsistency("surface filter violated by a representative")
        codes.append(chunk[keep])
        chi.append(surfaces.euler_characteristic[keep].astype(np.int32))
        orientable.append(surfaces.orientable[keep])
    return GroundSet(
        flag_space=F,
        space=space,
        codes=np.concatenate(codes) if codes else np.zeros(0, dtype=np.int64),
        euler_characteristic=np.concatenate(chi) if chi else np.zeros(0, dtype=np.int32),
        orientable=np.concatenate(orientable) if orientable else np.zeros(0, dtype=bool),
    )


# ---------------------------------------------------------------------------
# Group action on keys
# ---------------------------------------------------------------------------

def _image_sweep(gs: GroundSet, actions: Sequence[CompiledAction]):
    """For each chunk of keys: their positions and an iterator over the
    positions of their images under each action, in turn."""
    for lo in range(0, len(gs.codes), IMAGE_CHUNK):
        codes = gs.codes[lo:lo + IMAGE_CHUNK]
        blocks, twist = gs.space.split(codes)
        cells = blocks + gs.space.table_offset
        index = np.arange(lo, lo + len(codes))
        yield index, (gs.index_of(act.image(cells, twist)) for act in actions)


def fixed_count(flag_map: Sequence[int], gs: GroundSet) -> int:
    act = gs.space.compile(flag_map)
    count = 0
    for index, images in _image_sweep(gs, [act]):
        count += int(np.count_nonzero(next(images) == index))
    return count


def burnside_count(acting: PermGroup, gs: GroundSet) -> OrbitCensus:
    """Orbit count via Burnside, cross-checked by an explicit partition.

    ``acting`` is a group of vertex maps, acting through their lifts to
    flags; the lift is an injective homomorphism, so the vertex table is
    the table of the flag maps.  Fixed counts are in row order.  A lift
    over the table cap is refused before it is built."""
    check_table_size(len(acting), gs.flag_space.flag_count)
    flag_maps = extend_to_flags(acting.rows, gs.flag_space)
    actions = [gs.space.compile(row) for row in flag_maps.tolist()]

    # One sweep gives every element's fixed count and, as the least image
    # over the group, every key's orbit label (its orbit's least member).
    fixed_by_row = np.zeros(len(acting), dtype=np.int64)
    lead = np.empty(len(gs.codes), dtype=np.int64)
    for index, images in _image_sweep(gs, actions):
        least = index.copy()
        for a, image in enumerate(images):
            fixed_by_row[a] += np.count_nonzero(image == index)
            np.minimum(least, image, out=least)
        lead[index] = least

    conjugates = acting.table[acting.table, acting.inverse[:, None]]  # p x p^-1
    if (fixed_by_row[conjugates] != fixed_by_row).any():
        raise InternalInconsistency("fixed count is not a class function")
    fixed = fixed_by_row.tolist()

    total = sum(fixed)
    q, r = divmod(total, len(acting))
    if r:
        raise NonIntegralBurnside(
            f"fixed-point sum {total} not divisible by group order {len(acting)}"
        )

    leads = np.flatnonzero(lead == np.arange(len(lead)))
    if len(leads) != q:
        raise InternalInconsistency(
            f"Burnside count {q} disagrees with explicit orbit count {len(leads)}"
        )

    # Orientability is carried by the key, so it is a true orbit invariant;
    # the canonical realization's chi additionally is one except on twisted
    # SIGMA classes at degree >= 3, where members of one twist coset realize
    # different faces.
    mixed_sides = gs.orientable != gs.orientable[lead]
    check_chi = np.ones(len(lead), dtype=bool)
    if gs.space.D.degree > 2 and gs.space.twists + gs.space.twist_offset > 1:
        twisted = (gs.codes % gs.space.twists) + gs.space.twist_offset != 0
        check_chi = np.bincount(lead, weights=twisted, minlength=len(lead))[lead] == 0
    mixed_chi = check_chi & (gs.euler_characteristic != gs.euler_characteristic[lead])
    bad = mixed_sides | mixed_chi
    if bad.any():
        first = lead[bad].min()
        i = np.flatnonzero(bad & (lead == first))[0]
        if mixed_sides[i]:
            raise InternalInconsistency("orbit mixes orientable and not")
        raise InternalInconsistency("orbit mixes distinct surfaces")

    return OrbitCensus(
        acting_size=len(acting),
        fixed_counts=tuple(fixed),
        orbit_count=q,
        orbit_sizes=tuple(np.bincount(lead, minlength=len(lead))[leads].tolist()),
        ground_set=gs,
        leads=leads,
    )


# ---------------------------------------------------------------------------
# Acting groups and the formula comparison
# ---------------------------------------------------------------------------

def acting_group(G: FiniteGroup, S, which: str = "rgxh") -> PermGroup:
    """Vertex group for the census: translations, their product with a found
    complement, or the full graph automorphism group."""
    if which == "rg":
        return right_regular(G)
    full = graph_automorphism_group(build_cayley_graph(G, S))
    if which == "full":
        return PermGroup(full)
    if which == "rgxh":
        dec = decompose(full, G)
        if dec.is_direct_product:
            return product_group(G, dec.complement)
        return right_regular(G)
    raise BadParameter(f"unknown acting group choice {which!r}")


@dataclass(frozen=True)
class ClassComparison:
    stats: ClassStats
    formula_phi: int
    oracle_fixed: int
    ratio: Fraction | None


@dataclass(frozen=True)
class ComparisonReport:
    surface: str
    semantics: str
    lines: tuple[ClassComparison, ...]
    formula_total: int
    oracle_orbits: int
    total_ratio: Fraction | None
    census_result: CensusResult
    orbit_census: OrbitCensus


def compare_with_formula(
    G: FiniteGroup,
    S,
    H: Sequence[Sequence[int]] | None = None,
    surface: str = "O",
    semantics: str = SIGMA,
    cap: int = DEFAULT_ORACLE_CAP,
) -> ComparisonReport:
    """Side-by-side per-class fixed counts and totals, with exact ratios.

    The oracle's caps are checked before the census, so a run they refuse
    pays for no class statistic: first the ground-set bound, then the
    table cap on the lift of the |G||H| elements of R(G)H to flags.  Where
    a cap and the census would both refuse, the cap's ``CapExceeded`` is
    raised."""
    F = build_flag_space(G, S)
    _check_cap(F, semantics, surface, cap)
    check_table_size(G.order * (1 if H is None else len(H)), F.flag_count)
    cres = census(G, S, H, surface, "exact")
    gs = enumerate_embeddings(F, semantics, surface, cap)

    oc = burnside_count(cres.acting, gs)
    if surface == "O":
        # every element of R(G)xH stabilizes some orientable embedding
        for i, c in enumerate(oc.fixed_counts):
            if c <= 0:
                raise InternalInconsistency(
                    f"no orientable embedding fixed by {cres.acting.element(i)}"
                )

    lines = []
    for st, phi in zip(cres.classes, cres.phi_values):
        oracle = oc.fixed_counts[st.row]
        ratio = Fraction(oracle, phi) if phi else None
        lines.append(ClassComparison(stats=st, formula_phi=phi, oracle_fixed=oracle, ratio=ratio))
    total = cres.count.exact_value
    total_ratio = Fraction(oc.orbit_count, total) if total else None
    return ComparisonReport(
        surface=surface,
        semantics=semantics,
        lines=tuple(lines),
        formula_total=total,
        oracle_orbits=oc.orbit_count,
        total_ratio=total_ratio,
        census_result=cres,
        orbit_census=oc,
    )
