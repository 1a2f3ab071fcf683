"""Algebraic maps: a permutation P on a flag space subject to three axioms.

  (i)   no power of P carries a flag to its alpha-image,
  (ii)  alpha P alpha = P^{-1},
  (iii) <alpha, beta, P> is transitive on flags.

Vertices are the alpha-conjugate cycle pairs of P, faces the beta-conjugate
cycle pairs of the face permutation F = P (alpha beta).  Validation and
inventories take a whole stack of rows at once, and each stack is labelled
once: the cycle labels of P, those of F, and one orbit pass of <P, F> for
the sides.  Axioms (i) and (iii), the counts, the pairings and the surface
are all read off these three labellings, with no cycle walked except a
failing row's, to name its witness flag.  Axiom (iii) needs no pass of its
own: given (ii), alpha normalizes <P, alpha beta>, so <alpha, beta, P> is
transitive iff every flag lies in the side of flag 0 or of alpha(0).  One
gather of the P labels' alpha-images serves axiom (i), which fails where a
label meets its image, and the vertex pairing, which needs them apart.

A ``CheckContext`` holds what a check reuses on one flag space: alpha,
beta and alpha beta as index arrays, the points in the rows' dtype, and
the intp index buffers the labellings write into (the flat indices of P and
of the face permutation, the doubling steps and the orbit shortcuts).  The
oracle checks every chunk of an enumeration through one context, so no
chunk allocates an index array of rows x flags entries, and a chunk's cost
does not depend on which blocks the process freed before it; an
``inventories`` call, and a ``validate_map`` call given none, builds its
own.

The composition order of F is fixed by the K4-on-torus fixture (faces of
lengths 4 and 8); the opposite order is a conjugate permutation, so either
satisfies the fixture, and this one is frozen as the convention.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    vertex_count: int
    edge_count: int
    face_count: int
    face_lengths: tuple[int, ...]
    euler_characteristic: int
    orientable: bool
    genus: int  # orientable genus, or crosscap number when non-orientable


# Codes of the first check each row fails in ``_check``.
NOT_A_PERMUTATION, AXIOM_II, AXIOM_I, AXIOM_III = 1, 2, 3, 4


def _rows(F: FlagSpace, rows) -> np.ndarray:
    rows = np.asarray(rows)
    return rows.reshape(-1, F.flag_count) if rows.size else np.zeros((0, F.flag_count), int)


@dataclass(frozen=True)
class SurfaceRows:
    """What ``inventory`` reads off each row of a stack of valid maps.

    ``face_labels`` are the ``perm.cycle_labels`` of the face permutation;
    vertices and faces are counted as alpha- and beta-conjugate pairs of
    cycles; ``sides`` counts the orbits of <P, alpha beta>.
    """

    vertex_count: np.ndarray
    face_count: np.ndarray
    face_labels: np.ndarray
    sides: np.ndarray
    euler_characteristic: np.ndarray

    @property
    def orientable(self) -> np.ndarray:
        return self.sides == 2


def _paired(mate: np.ndarray, at: np.ndarray, met: np.ndarray) -> np.ndarray:
    """Whether conj carries every cycle of each row onto one other cycle;
    ``mate`` is ``labels[:, conj]``, ``met`` is ``mate == labels`` and ``at``
    is the ``perm.flat_index`` of the rows' permutations."""
    return ((mate == mate.ravel()[at].reshape(mate.shape)) & ~met).all(axis=1)


class CheckContext:
    """What ``_check`` reuses on one flag space (see the module docstring)
    for stacks of up to ``rows`` rows of ``dtype``: the points are in that
    dtype unless it cannot hold them, and ``index`` holds four intp buffers
    of ``rows * flags`` entries, of which a stack uses the leading ones --
    the flat indices of P and of the face permutation, then two for the
    doubling steps and orbit shortcuts of ``perm``."""

    def __init__(self, F: FlagSpace, dtype, rows: int):
        n = F.flag_count
        self.alpha = np.array(F.alpha, dtype=np.intp)
        self.beta = np.array(F.beta, dtype=np.intp)
        self.alpha_beta = self.alpha[self.beta]
        self.points = np.arange(n, dtype=np.result_type(dtype, perm.row_dtype(n)))
        self.index = np.empty((4, rows * n), dtype=np.intp)


def _check(
    F: FlagSpace, rows: np.ndarray, context: CheckContext | None = None,
) -> tuple[np.ndarray, SurfaceRows, np.ndarray]:
    """One labelling of an ``(m, flags)`` stack: the first check each row
    fails (0 for a valid map, else ``NOT_A_PERMUTATION``, ``AXIOM_II``,
    ``AXIOM_I`` or ``AXIOM_III``), the surfaces of every row, and whether
    each row keeps the inventory invariants (both mean nothing on a
    failing row).  ``context`` is a ``CheckContext`` for F and at least m
    rows (by default one is built for this stack).

    P and the face permutation F are labelled once each, and the sides
    once, as the orbits of <P, F> = <P, alpha beta> seeded with the lesser
    of each flag's P and F labels.  Axiom (iii) is read off the sides:
    given (ii), alpha normalizes <P, alpha beta> (alpha P alpha = P^{-1},
    alpha (alpha beta) alpha = beta alpha), so <alpha, beta, P> is
    <P, alpha beta> <alpha>, and its orbit through flag 0 is the side of 0
    joined with the side of alpha(0).  A row that breaks (ii) fails there
    first, so its reading of (iii) is never used.
    """
    m, n = rows.shape
    c = CheckContext(F, rows.dtype, m) if context is None else context
    alpha, beta, points = c.alpha, c.beta, c.points
    at_p, at_f, *scratch = c.index[:, :m * n]
    is_perm = (np.sort(rows, axis=1) == points).all(axis=1)
    if not is_perm.all():
        rows = np.where(is_perm[:, None], rows, points)  # the rest are gathered

    faces = rows[:, c.alpha_beta]
    at_p, at_f = perm.flat_index(rows, at_p), perm.flat_index(faces, at_f)
    vl, fl = perm.cycle_labels(rows, at_p, scratch), perm.cycle_labels(faces, at_f, scratch)
    side = perm.orbit_labels([rows, faces], np.minimum(vl, fl), [at_p, at_f], scratch[0])

    # (ii) alpha P = P^{-1} alpha, i.e. P(alpha(P(f))) = alpha(f).
    ii = ~(rows[:, alpha].ravel()[at_p].reshape(m, n) == alpha).all(axis=1)
    # (i) no P-cycle meets its own alpha-image; the vertex pairing below
    # needs the same labels apart.
    vl_alpha = vl[:, alpha]
    meets = vl == vl_alpha
    i = meets.any(axis=1)
    # (iii) every flag lies in the side of flag 0 or of alpha(0).
    iii = ((side != 0) & (side != side[:, alpha[:1]])).any(axis=1)
    fail = np.where(is_perm, 0, NOT_A_PERMUTATION).astype(np.int8)
    for code, bad in ((AXIOM_II, ii), (AXIOM_I, i), (AXIOM_III, iii)):
        fail[(fail == 0) & bad] = code

    sides = np.count_nonzero(side == points, axis=1)
    nu = np.count_nonzero(vl == points, axis=1) // 2
    phi = np.count_nonzero(fl == points, axis=1) // 2
    chi = nu - n // 4 + phi
    fl_beta = fl[:, beta]
    consistent = (
        _paired(vl_alpha, at_p, meets) & _paired(fl_beta, at_f, fl_beta == fl)
        & ((sides == 1) | (sides == 2))
        & np.where(sides == 2, chi % 2 == 0, 2 - chi >= 1)
    )
    return fail, SurfaceRows(nu, phi, fl, sides, chi), consistent


def _surfaces(F: FlagSpace, rows, context: CheckContext | None = None) -> SurfaceRows:
    """The surfaces of every row of a stack, from one ``_check``; raises
    for the first row that fails an axiom (see ``validate_map``), then where
    a row breaks an inventory invariant (unpaired cycles, other than 1 or 2
    sides, odd orientable chi, crosscap below 1)."""
    rows = _rows(F, rows)
    fail, surfaces, consistent = _check(F, rows, context)
    bad = np.flatnonzero(fail)
    if len(bad):
        _raise_failure(F, fail[bad[0]], rows[bad[0]].tolist())
    if not consistent.all():
        raise InternalInconsistency("map inventory invariants violated")
    return surfaces


def _raise_failure(F: FlagSpace, code: int, P: list[int]) -> None:
    """Name the failed check of one row, walking it for a witness flag."""
    n = F.flag_count
    if code == NOT_A_PERMUTATION:
        raise BadParameter("P is not a permutation of the flags")
    if code == AXIOM_II:
        f = next(f for f in range(n) if P[F.alpha[P[f]]] != F.alpha[f])
        raise AxiomViolation("ii", f)
    if code == AXIOM_I:
        for cyc in perm.cycles(P, perm.cycle_labels(P)):
            cset = set(cyc)
            for f in cyc:
                if F.alpha[f] in cset:
                    raise AxiomViolation("i", f)
    raise AxiomViolation("iii", 0, "group <alpha,beta,P> is not transitive")


def validate_map(F: FlagSpace, P, context: CheckContext | None = None) -> MapPermutation | SurfaceRows:
    """Check the three axioms on one flag row, or on every row of an
    ``(m, flags)`` stack; raise AxiomViolation with a witness flag.

    The whole stack is checked in one labelling; the first failing row
    alone is walked to name the witness.  Returns the map of a single row,
    and the ``SurfaceRows`` of a stack, read off the same labelling.  A
    caller that validates many stacks passes one ``CheckContext`` for all
    of them (by default each call builds its own).
    """
    rows = np.asarray(P)
    if rows.shape[-1:] != (F.flag_count,):
        raise BadParameter("P is not a permutation of the flags")
    surfaces = _surfaces(F, rows, context)
    if rows.ndim == 1:
        return MapPermutation(flag_space=F, P=tuple(rows.tolist()))
    return surfaces


def is_orientable(M: MapPermutation) -> bool:
    """True iff <P, alpha beta> has exactly 2 flag orbits (1 means non-orientable)."""
    return bool(_surfaces(M.flag_space, [M.P]).orientable[0])


def inventory(M: MapPermutation) -> MapInventory:
    """Vertices, faces and surface of one map: the one-row case of
    ``inventories``."""
    return inventories(M.flag_space, [M.P])[0]


def inventories(F: FlagSpace, rows) -> list[MapInventory]:
    """The inventory of every row of a stack of valid maps, from the one
    labelling ``validate_map`` reads.  Face cycles come in beta-pairs of
    equal length, so every other entry of a row's sorted cycle lengths is
    one per face."""
    surfaces = _surfaces(F, rows)
    fl, euler = surfaces.face_labels, surfaces.euler_characteristic
    m, n = fl.shape
    lengths = np.bincount((fl + n * np.arange(m)[:, None]).ravel(), minlength=m * n)
    lengths = np.sort(lengths.reshape(m, n), axis=1)  # zeros, then the face-cycle lengths
    genus = np.where(surfaces.orientable, (2 - euler) // 2, 2 - euler)
    return [
        MapInventory(
            vertex_count=nu,
            edge_count=n // 4,
            face_count=phi,
            face_lengths=tuple(row[n - 2 * phi::2]),
            euler_characteristic=chi,
            orientable=orientable,
            genus=g,
        )
        for nu, phi, row, chi, orientable, g in zip(
            surfaces.vertex_count.tolist(), surfaces.face_count.tolist(), lengths.tolist(),
            euler.tolist(), surfaces.orientable.tolist(), genus.tolist(),
        )
    ]


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

