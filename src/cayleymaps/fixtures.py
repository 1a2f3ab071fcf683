"""Named instances used by the CLI, the tests, and the verify pipeline.

Four small Cayley graphs cover both degrees of interest (K3, C4, C5 at
degree 2; the 3-cube at degree 3), and FIG1 is the K4-on-the-torus map
given by an explicit flag permutation on a generic flag space.  Each
fixture knows how to rebuild itself from scratch and what its documented
numbers are, so ``fixtures run`` doubles as a quick self-test.  Only FIG1
and the self-test load ``maps``; only the self-test loads the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cayley import CayleySet, FlagSpace, build_flag_space, generic_flag_space, validate_cayley_set
from .errors import BadParameter
from .groups import FiniteGroup, named_group

if TYPE_CHECKING:
    from .maps import MapPermutation

FIXTURE_NAMES = ("K3", "C4", "C5", "CUBE", "FIG1")

_CAYLEY_SPECS = {
    "K3": ("cyclic", 3, (1, 2)),
    "C4": ("cyclic", 4, (1, 3)),
    "C5": ("cyclic", 5, (1, 4)),
    "CUBE": ("elementary_abelian_2", 3, (1, 2, 4)),
}

# documented orientable census totals (formula = oracle on every fixture)
_ORIENTABLE_COUNTS = {"K3": 1, "C4": 1, "C5": 1, "CUBE": 46}

FIXTURE_DESCRIPTIONS = {
    "K3": "Cay(Z_3 : {1, 2}), the triangle",
    "C4": "Cay(Z_4 : {1, 3}), the 4-cycle",
    "C5": "Cay(Z_5 : {1, 4}), the 5-cycle",
    "CUBE": "Cay((Z_2)^3 : {1, 2, 4}), the 3-cube on the standard basis",
    "FIG1": "K4 on the torus, pinned flag permutation on a generic flag space",
}

_FIG1_EDGES = 6
_FIG1_P_CYCLES = (
    (0, 4, 8),
    (3, 12, 20),
    (11, 15, 16),
    (7, 19, 23),
    (1, 9, 5),
    (2, 21, 13),
    (10, 17, 14),
    (6, 22, 18),
)


@dataclass(frozen=True)
class Fixture:
    name: str
    group: FiniteGroup | None
    cayset: CayleySet | None
    flag_space: FlagSpace
    map: MapPermutation | None  # pinned map (FIG1 only)


def fig1_flag_space() -> FlagSpace:
    n = 4 * _FIG1_EDGES
    alpha, beta = [0] * n, [0] * n
    for e in range(_FIG1_EDGES):
        a = 4 * e
        alpha[a], alpha[a + 1] = a + 1, a
        alpha[a + 2], alpha[a + 3] = a + 3, a + 2
        beta[a], beta[a + 2] = a + 2, a
        beta[a + 1], beta[a + 3] = a + 3, a + 1
    return generic_flag_space(tuple(alpha), tuple(beta))


def fig1_map() -> MapPermutation:
    from .maps import validate_map

    F = fig1_flag_space()
    P = list(range(F.flag_count))
    for cyc in _FIG1_P_CYCLES:
        for i, f in enumerate(cyc):
            P[f] = cyc[(i + 1) % len(cyc)]
    return validate_map(F, P)


def fixture(name: str) -> Fixture:
    if name == "FIG1":
        M = fig1_map()
        return Fixture("FIG1", None, None, M.flag_space, M)
    if name not in _CAYLEY_SPECS:
        raise BadParameter(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    family, param, members = _CAYLEY_SPECS[name]
    G = named_group(family, param)
    S = validate_cayley_set(G, members)
    return Fixture(name, G, S, build_flag_space(G, S), None)


def run_fixture_checks(name: str) -> list[tuple[str, bool, str]]:
    """Rebuild the fixture and confirm its documented numbers."""
    from .maps import inventory
    from .oracle import SIGMA, acting_group, burnside_count, enumerate_embeddings
    from .rotations import build_dart_structure, realize

    fx = fixture(name)
    checks: list[tuple[str, bool, str]] = []

    if name == "FIG1":
        inv = inventory(fx.map)
        expect = (4, 6, 2, (4, 8), 0, True, 1)
        got = (
            inv.vertex_count,
            inv.edge_count,
            inv.face_count,
            tuple(sorted(inv.face_lengths)),
            inv.euler_characteristic,
            inv.orientable,
            inv.genus,
        )
        checks.append(("inventory", got == expect, f"{got}"))
        return checks

    F = fx.flag_space
    k = len(fx.cayset.members)
    checks.append(
        ("flag count", F.flag_count == 2 * fx.group.order * k, f"{F.flag_count}")
    )
    checks.append(
        ("edge count", F.edge_count == fx.group.order * k // 2, f"{F.edge_count}")
    )

    D = build_dart_structure(F)
    rho = tuple(tuple(D.darts_at(v)) for v in range(D.vertex_count))
    M = realize(D, rho, 0)
    inv = inventory(M)
    checks.append(("untwisted realization orientable", inv.orientable, f"chi={inv.euler_characteristic}"))

    gs = enumerate_embeddings(F, SIGMA, "O")
    oc = burnside_count(acting_group(fx.group, fx.cayset, which="rg"), gs)
    want = _ORIENTABLE_COUNTS[name]
    checks.append(
        ("orientable census", oc.orbit_count == want, f"{oc.orbit_count} (documented {want})")
    )
    return checks
