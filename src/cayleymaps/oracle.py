"""Exhaustive ground-truth enumeration of embeddings and orbit counting.

Ground sets are keyed, not stored as raw permutations:

  RAW    distinct valid flag permutations, keyed by the permutation itself;
  SIGMA  rotation system plus twist class modulo vertex flips (the default;
         its orientable slice is exactly the classical rotation systems);
  DART   rotation system alone (single-dart side exchanges reach every
         twist pattern, so only the cyclic orders survive).

Every key realizes to a representative map; automorphisms act by
transporting keys, which agrees with conjugating representatives and
re-canonicalizing but is far cheaper.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

from .autaction import (
    ExtendedAutomorphism,
    GraphAutomorphism,
    compose_vertex_maps,
    decompose,
    extend_to_flags,
    graph_automorphism_group,
    product_group,
    right_regular,
)
from .cayley import FlagSpace, build_cayley_graph
from .errors import (
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    NonIntegralBurnside,
)
from .formulas import CensusResult, ClassStats, census, phi_exact
from .groups import FiniteGroup
from .maps import MapInventory, MapPermutation, inventory, is_orientable, validate_map
from .rotations import (
    DartStructure,
    TwistClasses,
    build_dart_structure,
    build_twist_classes,
    dart_map_of_flag_map,
    edge_map_of_dart_map,
    realize,
    realize_signed,
    rotation_system_count,
    transport_rotation_system,
    transport_twists,
    vertex_rotations,
)

RAW = "raw"
SIGMA = "sigma"
DART = "dart"
SEMANTICS = (RAW, SIGMA, DART)

DEFAULT_ORACLE_CAP = 1 << 22


@dataclass(frozen=True)
class GroundSet:
    flag_space: FlagSpace
    semantics: str
    surface: str
    keys: tuple[Hashable, ...]
    representatives: tuple[MapPermutation, ...]
    dart_structure: DartStructure
    twist_classes: TwistClasses


@dataclass(frozen=True)
class OrbitCensus:
    acting_size: int
    fixed_counts: tuple[int, ...]
    orbit_count: int
    orbit_representatives: tuple[MapPermutation, ...]
    orbit_inventories: tuple[MapInventory, ...]
    orbit_sizes: tuple[int, ...]


# ---------------------------------------------------------------------------
# Ground-set enumeration
# ---------------------------------------------------------------------------

def ground_set_bound(F: FlagSpace, semantics: str) -> int:
    """Size of the locally orientable ground set for the cap pre-check."""
    D = build_dart_structure(F)
    k = D.degree
    per_rot = 1
    for i in range(1, k):
        per_rot *= i
    if semantics == RAW:
        return (per_rot << (k - 1)) ** D.vertex_count
    if semantics == SIGMA:
        T = build_twist_classes(D)
        return per_rot ** D.vertex_count * T.class_count
    if semantics == DART:
        return per_rot ** D.vertex_count
    raise BadParameter(f"unknown semantics {semantics!r}")


def _raw_vertex_choices(D: DartStructure, v: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rotation, per-dart signs) with the first dart anchored to plus; the
    anchor kills the reversal double count, so choices biject with the local
    flag permutations."""
    darts = list(D.darts_at(v))
    out = []
    for rot in vertex_rotations(D, v):
        for bits in itertools.product((0, 1), repeat=len(darts) - 1):
            signs = dict(zip(darts[1:], bits))
            signs[darts[0]] = 0
            out.append((rot, tuple(signs[d] for d in darts)))
    return out


def _enumerate_keys(D: DartStructure, T: TwistClasses, semantics: str, surface: str):
    if semantics == RAW:
        per_vertex = [_raw_vertex_choices(D, v) for v in range(D.vertex_count)]
        for combo in itertools.product(*per_vertex):
            rho = tuple(c[0] for c in combo)
            signs = tuple(s for c in combo for s in c[1])
            yield rho, signs
    elif semantics == SIGMA:
        per_vertex = [tuple(vertex_rotations(D, v)) for v in range(D.vertex_count)]
        if surface == "O":
            twist_reps: tuple[int, ...] = (0,)
        elif surface == "N":
            twist_reps = tuple(t for t in T.representatives() if t)
        else:
            twist_reps = tuple(T.representatives())
        for rho in itertools.product(*per_vertex):
            for t in twist_reps:
                yield rho, t
    else:  # DART
        per_vertex = [tuple(vertex_rotations(D, v)) for v in range(D.vertex_count)]
        if surface == "N":
            return
        for rho in itertools.product(*per_vertex):
            yield rho


def enumerate_embeddings(
    F: FlagSpace,
    semantics: str = SIGMA,
    surface: str = "L",
    cap: int = DEFAULT_ORACLE_CAP,
    workers: int | None = None,
) -> GroundSet:
    """All embedding classes under the semantics, realized and validated.

    Refuses (rather than samples) ground sets larger than the cap.
    """
    if surface not in ("O", "N", "L"):
        raise BadParameter(f"unknown surface {surface!r}")
    if semantics not in SEMANTICS:
        raise BadParameter(f"unknown semantics {semantics!r}")
    bound = ground_set_bound(F, semantics)
    if bound > cap:
        raise CapExceeded(f"ground set bound {bound} exceeds cap {cap}")
    D = build_dart_structure(F)
    T = build_twist_classes(D)

    keys: list[Hashable] = []
    reps: list[MapPermutation] = []
    items = _enumerate_keys(D, T, semantics, surface)
    if workers and workers > 1:
        chunks = _parallel_realize(D, T, semantics, surface, list(items), workers)
        for key, P in chunks:
            keys.append(key)
            reps.append(MapPermutation(flag_space=F, P=P))
    else:
        for item in items:
            key, M = _realize_item(D, T, semantics, surface, item)
            if M is None:
                continue
            keys.append(key)
            reps.append(M)
    for M in reps:
        validate_map(F, M.P)
    _check_surface(reps, surface)
    return GroundSet(
        flag_space=F,
        semantics=semantics,
        surface=surface,
        keys=tuple(keys),
        representatives=tuple(reps),
        dart_structure=D,
        twist_classes=T,
    )


def _realize_item(D, T, semantics, surface, item):
    if semantics == RAW:
        rho, signs = item
        M = realize_signed(D, rho, signs)
        if surface != "L" and is_orientable(M) != (surface == "O"):
            return None, None
        return M.P, M
    if semantics == SIGMA:
        rho, t = item
        return (rho, t), realize(D, rho, t)
    return item, realize(D, item, 0)


def _worker_realize(args):
    D, T, semantics, surface, chunk = args
    out = []
    for item in chunk:
        key, M = _realize_item(D, T, semantics, surface, item)
        if M is not None:
            out.append((key, M.P))
    return out


def _parallel_realize(D, T, semantics, surface, items, workers):
    size = max(1, (len(items) + workers - 1) // workers)
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    with multiprocessing.Pool(workers) as pool:
        parts = pool.map(_worker_realize, [(D, T, semantics, surface, c) for c in chunks])
    return [pair for part in parts for pair in part]


def _check_surface(reps: Sequence[MapPermutation], surface: str) -> None:
    if surface == "L":
        return
    want = surface == "O"
    for M in reps:
        if is_orientable(M) != want:
            raise InternalInconsistency("surface filter violated by a representative")


# ---------------------------------------------------------------------------
# Group action on keys
# ---------------------------------------------------------------------------

def _key_transport(gs: GroundSet, xi: ExtendedAutomorphism):
    """Key-level action of an extended automorphism; returns a callable."""
    D, T = gs.dart_structure, gs.twist_classes
    dart_map = dart_map_of_flag_map(D, xi.flag_map)
    if gs.semantics == RAW:
        fm = xi.flag_map
        n = len(fm)

        def act_raw(key):
            out = [0] * n
            for f in range(n):
                out[fm[f]] = fm[key[f]]
            return tuple(out)

        return act_raw
    edge_map = edge_map_of_dart_map(D, dart_map)
    if gs.semantics == SIGMA:
        def act_sigma(key):
            rho, t = key
            return (
                transport_rotation_system(D, dart_map, rho),
                T.reduce(transport_twists(D, edge_map, t)),
            )

        return act_sigma

    def act_dart(key):
        return transport_rotation_system(D, dart_map, key)

    return act_dart


def fixed_count(xi: ExtendedAutomorphism, gs: GroundSet) -> int:
    act = _key_transport(gs, xi)
    return sum(1 for key in gs.keys if act(key) == key)


def burnside_count(
    acting: Sequence[ExtendedAutomorphism],
    gs: GroundSet,
    workers: int | None = None,
) -> OrbitCensus:
    """Orbit count via Burnside, cross-checked by an explicit partition."""
    flag_maps = {xi.flag_map for xi in acting}
    for a in flag_maps:
        for b in flag_maps:
            if tuple(a[b[f]] for f in range(len(a))) not in flag_maps:
                raise BadParameter("acting set is not closed under composition")

    if workers and workers > 1 and len(acting) > 1:
        with multiprocessing.Pool(min(workers, len(acting))) as pool:
            fixed = pool.starmap(fixed_count, [(xi, gs) for xi in acting])
        fixed = list(fixed)
    else:
        fixed = [fixed_count(xi, gs) for xi in acting]

    counts = {xi.flag_map: c for xi, c in zip(acting, fixed)}
    for pi in acting:
        pm = pi.flag_map
        pinv = [0] * len(pm)
        for f, g in enumerate(pm):
            pinv[g] = f
        for xi, c in zip(acting, fixed):
            conj = tuple(pm[xi.flag_map[pinv[f]]] for f in range(len(pm)))
            if counts.get(conj) != c:
                raise InternalInconsistency("fixed count is not a class function")

    total = sum(fixed)
    q, r = divmod(total, len(acting))
    if r:
        raise NonIntegralBurnside(
            f"fixed-point sum {total} not divisible by group order {len(acting)}"
        )

    index = {key: i for i, key in enumerate(gs.keys)}
    parent = list(range(len(gs.keys)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for xi in acting:
        act = _key_transport(gs, xi)
        for i, key in enumerate(gs.keys):
            j = index[act(key)]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj

    orbits: dict[int, list[int]] = {}
    for i in range(len(gs.keys)):
        orbits.setdefault(find(i), []).append(i)
    if len(orbits) != q:
        raise InternalInconsistency(
            f"Burnside count {q} disagrees with explicit orbit count {len(orbits)}"
        )

    reps, invs, sizes = [], [], []
    for root in sorted(orbits, key=lambda r: min(orbits[r])):
        members = orbits[root]
        lead = min(members)
        M = gs.representatives[lead]
        inv = inventory(M)
        # Orientability is carried by the key, so it is a true orbit
        # invariant; the canonical realization's chi additionally is one
        # except on twisted SIGMA classes at degree >= 3, where members of
        # one twist coset realize different faces.
        check_chi = (
            gs.semantics != SIGMA
            or gs.dart_structure.degree <= 2
            or all(gs.keys[i][1] == 0 for i in members)
        )
        for i in members:
            other = inventory(gs.representatives[i])
            if other.orientable != inv.orientable:
                raise InternalInconsistency("orbit mixes orientable and not")
            if check_chi and other.euler_characteristic != inv.euler_characteristic:
                raise InternalInconsistency("orbit mixes distinct surfaces")
        reps.append(M)
        invs.append(inv)
        sizes.append(len(members))
    return OrbitCensus(
        acting_size=len(acting),
        fixed_counts=tuple(fixed),
        orbit_count=q,
        orbit_representatives=tuple(reps),
        orbit_inventories=tuple(invs),
        orbit_sizes=tuple(sizes),
    )


# ---------------------------------------------------------------------------
# Acting groups and the formula comparison
# ---------------------------------------------------------------------------

def acting_group(
    G: FiniteGroup,
    S,
    which: str = "rgxh",
    aut_cap: int = 64,
) -> list[GraphAutomorphism]:
    """Vertex group for the census: translations, their product with a found
    complement, or the full graph automorphism group."""
    if which == "rg":
        return right_regular(G)
    graph = build_cayley_graph(G, S)
    full = graph_automorphism_group(graph, aut_cap)
    if which == "full":
        return full
    if which == "rgxh":
        dec = decompose(full, G)
        if dec.is_direct_product:
            return product_group(dec.regular_part, dec.complement)
        return right_regular(G)
    raise BadParameter(f"unknown acting group choice {which!r}")


def extend_group(acting: Sequence[GraphAutomorphism], F: FlagSpace) -> list[ExtendedAutomorphism]:
    return [extend_to_flags(theta, F) for theta in acting]


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
    H: Sequence[GraphAutomorphism] | None = None,
    surface: str = "O",
    semantics: str = SIGMA,
    cap: int = DEFAULT_ORACLE_CAP,
    workers: int | None = None,
) -> ComparisonReport:
    """Side-by-side per-class fixed counts and totals, with exact ratios."""
    F = _flag_space_of(G, S)
    cres = census(G, S, H, surface, "exact")
    gs = enumerate_embeddings(F, semantics, surface, cap, workers)
    k = len(S.members)

    lines = []
    for st in cres.classes:
        xi = extend_to_flags(st.representative, F)
        oracle = fixed_count(xi, gs)
        phi = phi_exact(st, surface, k)
        ratio = Fraction(oracle, phi) if phi else None
        lines.append(ClassComparison(stats=st, formula_phi=phi, oracle_fixed=oracle, ratio=ratio))

    if H is None:
        H = [GraphAutomorphism(tuple(range(G.order)))]
    acting = extend_group(product_group(right_regular(G), H), F)
    oc = burnside_count(acting, gs, workers)
    if surface == "O":
        # every element of R(G)xH stabilizes some orientable embedding
        for xi, c in zip(acting, oc.fixed_counts):
            if c <= 0:
                raise InternalInconsistency(
                    f"no orientable embedding fixed by {xi.source.vertex_map}"
                )
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


def _flag_space_of(G: FiniteGroup, S) -> FlagSpace:
    from .cayley import build_flag_space

    return build_flag_space(G, S)
