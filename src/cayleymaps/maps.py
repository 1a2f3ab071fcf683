"""Algebraic maps: a permutation P on a flag space subject to three axioms.

  (i)   no power of P carries a flag to its alpha-image,
  (ii)  alpha P alpha = P^{-1},
  (iii) <alpha, beta, P> is transitive on flags.

Vertices are the alpha-conjugate cycle pairs of P, faces the beta-conjugate
cycle pairs of the face permutation F = P (alpha beta).  The composition
order of F is fixed by the K4-on-torus fixture (faces of lengths 4 and 8);
the opposite order is a conjugate permutation, so either satisfies the
fixture, and this one is frozen as the convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import perm
from .cayley import FlagSpace
from .errors import AxiomViolation, BadParameter, InternalInconsistency


@dataclass(frozen=True)
class MapPermutation:
    flag_space: FlagSpace
    P: tuple[int, ...]


@dataclass(frozen=True)
class MapInventory:
    vertices: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    edge_count: int
    faces: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    face_lengths: tuple[int, ...]
    euler_characteristic: int
    orientable: bool
    genus: int  # orientable genus, or crosscap number when non-orientable


# Codes of the first check each row fails in ``axiom_failures``.
NOT_A_PERMUTATION, AXIOM_II, AXIOM_I, AXIOM_III = 1, 2, 3, 4


def _rows(F: FlagSpace, rows) -> np.ndarray:
    rows = np.asarray(rows)
    return rows.reshape(-1, F.flag_count) if rows.size else np.zeros((0, F.flag_count), int)


def axiom_failures(F: FlagSpace, rows) -> np.ndarray:
    """The first check each flag row fails, in ``validate_map``'s order: 0
    for a valid map, else ``NOT_A_PERMUTATION``, ``AXIOM_II``, ``AXIOM_I``
    or ``AXIOM_III``."""
    rows = _rows(F, rows)
    n = F.flag_count
    alpha, beta = np.array(F.alpha), np.array(F.beta)
    fail = np.zeros(len(rows), dtype=np.int8)
    points = np.arange(n)
    is_perm = (np.sort(rows, axis=1) == points).all(axis=1)
    fail[~is_perm] = NOT_A_PERMUTATION
    rows = np.where(is_perm[:, None], rows, points)  # the rest are gathered

    # (ii) alpha P = P^{-1} alpha, i.e. P(alpha(P(f))) = alpha(f).
    ii = ~(np.take_along_axis(rows, alpha[rows], 1) == alpha).all(axis=1)
    # (i) no P-cycle meets its own alpha-image.
    labels = perm.cycle_labels(rows)
    i = (labels == labels[:, alpha]).any(axis=1)
    # (iii) transitivity of <alpha, beta, P>.
    iii = (perm.orbit_labels([rows, alpha, beta], labels) != 0).any(axis=1)
    for code, bad in ((AXIOM_II, ii), (AXIOM_I, i), (AXIOM_III, iii)):
        fail[(fail == 0) & bad] = code
    return fail


def validate_map(F: FlagSpace, P: Sequence[int]) -> MapPermutation:
    """Check the three axioms; raise AxiomViolation with a witness flag.

    The one-row case of ``axiom_failures``; a failing row is walked to
    name the first witness flag.
    """
    n = F.flag_count
    P = tuple(int(x) for x in P)
    fail = axiom_failures(F, [P])[0] if len(P) == n else NOT_A_PERMUTATION
    if fail == NOT_A_PERMUTATION:
        raise BadParameter("P is not a permutation of the flags")
    if fail == AXIOM_II:
        f = next(f for f in range(n) if P[F.alpha[P[f]]] != F.alpha[f])
        raise AxiomViolation("ii", f)
    if fail == AXIOM_I:
        for cyc in perm.cycles(P, perm.cycle_labels(P)):
            cset = set(cyc)
            for f in cyc:
                if F.alpha[f] in cset:
                    raise AxiomViolation("i", f)
    if fail == AXIOM_III:
        raise AxiomViolation("iii", 0, "group <alpha,beta,P> is not transitive")
    return MapPermutation(flag_space=F, P=P)


def _conjugate_cycle_pairs(
    cycles: list[tuple[int, ...]], conj: Sequence[int], what: str
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Pair each cycle with its conj-image; the pairing must be a perfect
    matching of distinct cycles (guaranteed by the axioms, hence a hard error)."""
    by_set = {frozenset(c): c for c in cycles}
    pairs = []
    used: set[frozenset] = set()
    for c in cycles:
        key = frozenset(c)
        if key in used:
            continue
        mate_key = frozenset(conj[f] for f in c)
        mate = by_set.get(mate_key)
        if mate is None or mate_key == key:
            raise InternalInconsistency(f"{what} cycle {c} has no conjugate mate")
        used.add(key)
        used.add(mate_key)
        pairs.append((c, mate))
    return tuple(pairs)


@dataclass(frozen=True)
class SurfaceRows:
    """What ``inventory`` reads off each row of a stack of valid maps.

    ``vertex_labels``/``face_labels`` are the ``perm.cycle_labels`` of P and
    of the face permutation; ``sides`` counts the orbits of <P, alpha beta>;
    ``consistent`` is False where a row breaks an inventory invariant
    (unpaired cycles, other than 1 or 2 sides, odd orientable chi, crosscap
    below 1).
    """

    vertex_labels: np.ndarray
    face_labels: np.ndarray
    sides: np.ndarray
    euler_characteristic: np.ndarray
    consistent: np.ndarray

    @property
    def orientable(self) -> np.ndarray:
        return self.sides == 2


def _paired(labels: np.ndarray, perms: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """Whether conj carries every cycle of each row onto one other cycle."""
    mate = labels[:, conj]
    return ((mate == np.take_along_axis(mate, perms, 1)) & (mate != labels)).all(axis=1)


def surface_rows(F: FlagSpace, rows) -> SurfaceRows:
    """Cycle labels, sides and Euler characteristic of every row."""
    rows = _rows(F, rows)
    n = F.flag_count
    alpha, beta = np.array(F.alpha), np.array(F.beta)
    alpha_beta = alpha[beta]
    points = np.arange(n)
    faces = rows[:, alpha_beta]
    vl, fl = perm.cycle_labels(rows), perm.cycle_labels(faces)
    sides = np.count_nonzero(perm.orbit_labels([rows, alpha_beta], vl) == points, axis=1)
    nu = np.count_nonzero(vl == points, axis=1) // 2
    phi = np.count_nonzero(fl == points, axis=1) // 2
    chi = nu - n // 4 + phi
    consistent = (
        _paired(vl, rows, alpha) & _paired(fl, faces, beta)
        & ((sides == 1) | (sides == 2))
        & np.where(sides == 2, chi % 2 == 0, 2 - chi >= 1)
    )
    return SurfaceRows(vl, fl, sides, chi, consistent)


def is_orientable(M: MapPermutation) -> bool:
    """True iff <P, alpha beta> has exactly 2 flag orbits (1 means non-orientable)."""
    orbits = int(surface_rows(M.flag_space, [M.P]).sides[0])
    if orbits not in (1, 2):
        raise InternalInconsistency(f"<P, alpha beta> has {orbits} orbits")
    return orbits == 2


def inventory(M: MapPermutation) -> MapInventory:
    """Vertices, faces and surface of one map: the one-row case of
    ``inventories``."""
    return inventories(M.flag_space, [M.P])[0]


def inventories(F: FlagSpace, rows) -> list[MapInventory]:
    """The inventory of every row of a stack of valid maps, from one
    ``surface_rows`` pass; raises on the first row breaking an invariant."""
    rows = _rows(F, rows)
    alpha_beta = [F.alpha[F.beta[f]] for f in range(F.flag_count)]
    surfaces = surface_rows(F, rows)
    out = []
    for i, row in enumerate(rows.tolist()):
        vertex_cycles = perm.cycles(row, surfaces.vertex_labels[i])
        vertices = _conjugate_cycle_pairs(vertex_cycles, F.alpha, "vertex")

        face_cycles = perm.cycles([row[f] for f in alpha_beta], surfaces.face_labels[i])
        faces = _conjugate_cycle_pairs(face_cycles, F.beta, "face")
        face_lengths = tuple(sorted(len(pair[0]) for pair in faces))

        chi = int(surfaces.euler_characteristic[i])
        orbits = int(surfaces.sides[i])
        if orbits not in (1, 2):
            raise InternalInconsistency(f"<P, alpha beta> has {orbits} orbits")
        orientable = orbits == 2
        if orientable:
            if chi % 2:
                raise InternalInconsistency(f"orientable map with odd chi {chi}")
            genus = (2 - chi) // 2
        else:
            genus = 2 - chi
            if genus < 1:
                raise InternalInconsistency(f"non-orientable map with crosscap {genus}")
        out.append(MapInventory(
            vertices=vertices,
            edge_count=F.flag_count // 4,
            faces=faces,
            face_lengths=face_lengths,
            euler_characteristic=chi,
            orientable=orientable,
            genus=genus,
        ))
    return out


# ---------------------------------------------------------------------------
# Automorphisms by propagation
# ---------------------------------------------------------------------------

def _propagate(M: MapPermutation, image_of_0: int) -> tuple[int, ...] | None:
    """The unique candidate bijection tau with tau(0) = image_of_0 commuting
    with alpha, beta and P; None if propagation clashes."""
    F = M.flag_space
    n = F.flag_count
    tau = [-1] * n
    tau[0] = image_of_0
    stack = [0]
    gens = (M.P, F.alpha, F.beta)
    while stack:
        f = stack.pop()
        for g in gens:
            src, dst = g[f], g[tau[f]]
            if tau[src] == -1:
                tau[src] = dst
                stack.append(src)
            elif tau[src] != dst:
                return None
    if -1 in tau or sorted(tau) != list(range(n)):
        return None
    return tuple(tau)


def map_automorphisms(M: MapPermutation) -> list[tuple[int, ...]]:
    """All flag bijections commuting with alpha, beta and P (a free action)."""
    n = M.flag_space.flag_count
    out = []
    for image in range(n):
        tau = _propagate(M, image)
        if tau is not None:
            out.append(tau)
    return out


def orientation_preserving_automorphisms(M: MapPermutation) -> list[tuple[int, ...]]:
    """Automorphisms preserving each <P, alpha beta> orbit; all of AutM when
    the map is non-orientable."""
    auts = map_automorphisms(M)
    if not is_orientable(M):
        return auts
    # Label the two orbits by membership of flag 0's orbit.
    F = M.flag_space
    alpha_beta = np.array(F.alpha)[np.array(F.beta)]
    side = perm.orbit_labels([np.array([M.P]), alpha_beta])[0]
    return [t for t in auts if side[t[0]] == 0]

