"""Closed-form censuses of maps on a Cayley graph under R(G) x H.

The per-class data is (order o, inverted-edge count l, branch, exponent
alpha); a class contributes 2^alpha (|S|-1)!^{|G|/o} fixed embeddings on
the locally orientable side and (|S|-1)!^{|G|/o} on the orientable side.
Totals divide the class sum by |G||H|.

l counts vertices moved to a neighbor by the half-order power, so every
inverted edge contributes both endpoints; with that normalization
alpha = (epsilon + l - nu)/o and the true edge-orbit count is
(2 epsilon + l)/(2o), both verified per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

import mpmath as mp
import numpy as np

from .autaction import GraphAutomorphism, product_group, right_regular
from .cayley import CayleySet
from .errors import (
    BadParameter,
    InternalInconsistency,
    NonIntegralExponent,
    NonIntegralSum,
    NotSemiRegular,
)
from .groups import FiniteGroup
from .perm import (
    ElementStats,
    PermGroup,
    check_table_size,
    conjugacy_classes_of,
    element_stats,
)

THETA = "Theta"
DELTA = "Delta"

MODE_PRIMES = (2**31 - 1, 10**9 + 7)


@dataclass(frozen=True)
class ClassStats:
    representative: GraphAutomorphism
    class_size: int
    order: int
    semi_regular: bool
    l_value: int
    branch: str
    edge_orbits: int
    alpha_exponent: int


@dataclass(frozen=True)
class CountReport:
    mode: str
    exact_value: int | None = None
    log2_value: object | None = None  # mpmath float
    residue: int | None = None
    prime: int | None = None


@dataclass(frozen=True)
class CensusResult:
    surface: str
    count: CountReport
    classes: tuple[ClassStats, ...]
    phi_values: tuple[int, ...]
    acting_size: int


def parse_mode(mode: str) -> tuple[str, int | None]:
    if mode in ("exact", "log2"):
        return mode, None
    if mode.startswith("modp:"):
        p = int(mode.split(":", 1)[1])
        if p < 2:
            raise BadParameter(f"modulus {p} is not a prime candidate")
        return "modp", p
    raise BadParameter(f"unknown mode {mode!r}")


def log2_of_int(n: int) -> mp.mpf:
    if n < 0:
        raise BadParameter("log2 of negative count")
    if n == 0:
        return mp.ninf
    with mp.workdps(60):
        return mp.log(mp.mpf(n), 2)


def make_report(exact: int, mode: str, prime: int | None = None) -> CountReport:
    kind, p = (mode, prime) if prime is not None else parse_mode(mode)
    if kind == "exact":
        return CountReport(mode="exact", exact_value=exact, log2_value=log2_of_int(exact))
    if kind == "log2":
        return CountReport(mode="log2", log2_value=log2_of_int(exact))
    return CountReport(mode="modp", residue=exact % p, prime=p)


# ---------------------------------------------------------------------------
# Per-class statistics
# ---------------------------------------------------------------------------

def acting_stats(G: FiniteGroup, S: CayleySet, acting: Sequence[GraphAutomorphism]) -> ElementStats:
    """Per-element statistics of ``acting`` on Cay(G : S), whose edges
    join t to s*t for s in S."""
    group = PermGroup([a.vertex_map for a in acting])
    adjacency = np.zeros((G.order, G.order), dtype=bool)
    table = np.asarray(G.table)
    adjacency[np.arange(G.order), table[list(S.members)]] = True
    return element_stats(group, adjacency)


def class_stats(G: FiniteGroup, S: CayleySet, stats: ElementStats, i: int) -> ClassStats:
    """Checked statistics of the class of element ``i`` of ``stats.group``."""
    vm = stats.group.element(i)
    if not stats.semi_regular[i]:
        raise NotSemiRegular(f"representative {vm} has unequal orbit lengths")
    nu = G.order
    k = len(S.members)
    eps = nu * k // 2
    o = int(stats.order[i])
    l_value = int(stats.l_value[i])

    branch = DELTA if (o % 2 == 0 and l_value > 0) else THETA
    if branch == DELTA and l_value % (o // 2):
        raise InternalInconsistency(
            f"inverted count {l_value} not divisible by half order {o // 2}"
        )

    edge_orbits = int(stats.edge_orbits[i])
    if edge_orbits < 0:
        raise BadParameter(f"acting element {vm} is not a graph automorphism")
    if edge_orbits * 2 * o != 2 * eps + l_value:
        raise InternalInconsistency(
            f"edge orbit count {edge_orbits} disagrees with (2e+l)/2o = "
            f"({2 * eps}+{l_value})/{2 * o}"
        )

    num = eps + l_value - nu
    if num < 0 or num % o:
        raise NonIntegralExponent(
            f"alpha = ({eps}+{l_value}-{nu})/{o} is not a non-negative integer"
        )
    return ClassStats(
        representative=GraphAutomorphism(vm),
        class_size=stats.group.class_size(i),
        order=o,
        semi_regular=True,
        l_value=l_value,
        branch=branch,
        edge_orbits=edge_orbits,
        alpha_exponent=num // o,
    )


def phi_exact(stats: ClassStats, surface: str, k: int) -> int:
    nu = len(stats.representative.vertex_map)
    base = factorial(k - 1) ** (nu // stats.order)
    if surface == "O":
        return base
    if surface == "L":
        return (1 << stats.alpha_exponent) * base
    if surface == "N":
        return ((1 << stats.alpha_exponent) - 1) * base
    raise BadParameter(f"unknown surface {surface!r}")


def phi_formula(stats: ClassStats, surface: str, k: int, mode: str = "exact") -> CountReport:
    return make_report(phi_exact(stats, surface, k), mode)


# ---------------------------------------------------------------------------
# Census totals
# ---------------------------------------------------------------------------

def _assert_constant_stats(
    stats: ElementStats, cls: np.ndarray, rep_stats: ClassStats, eps: int, nu: int
) -> None:
    """Every member's own statistics equal the representative's."""
    o, l_value, eo = stats.order[cls], stats.l_value[cls], stats.edge_orbits[cls]
    delta = (o % 2 == 0) & (l_value > 0)
    same = (
        (o == rep_stats.order)
        & (l_value == rep_stats.l_value)
        & (delta == (rep_stats.branch == DELTA))
        & ((eps + l_value - nu) // o == rep_stats.alpha_exponent)
        & (eo == rep_stats.edge_orbits)
    )
    if not same.all():
        vm = stats.group.element(cls[np.argmin(same)])
        raise InternalInconsistency(
            f"class statistics not constant: {vm} differs from "
            f"{rep_stats.representative.vertex_map}"
        )


def census(
    G: FiniteGroup,
    S: CayleySet,
    H: Sequence[GraphAutomorphism] | None = None,
    surface: str = "O",
    mode: str = "exact",
) -> CensusResult:
    if surface not in ("O", "N", "L"):
        raise BadParameter(f"unknown surface {surface!r}")
    kind, p = parse_mode(mode)
    k = len(S.members)
    if H is None:
        H = [GraphAutomorphism(tuple(range(G.order)))]
    check_table_size(G.order * len(H), G.order)
    acting = product_group(right_regular(G), H)
    acting_size = len(acting)
    if acting_size != G.order * len(H):
        raise InternalInconsistency("acting group size is not |G||H|")

    stats = acting_stats(G, S, acting)
    classes = conjugacy_classes_of(stats.group)
    if sum(len(c) for c in classes) != acting_size:
        raise InternalInconsistency("class sizes do not sum to the group order")

    stats_list: list[ClassStats] = []
    phis: list[int] = []
    total = 0
    for cls in classes:
        st = class_stats(G, S, stats, cls[0])
        if st.class_size != len(cls):
            raise InternalInconsistency("class size mismatch")
        _assert_constant_stats(stats, cls, st, G.order * k // 2, G.order)
        phi = phi_exact(st, surface, k)
        stats_list.append(st)
        phis.append(phi)
        total += len(cls) * phi

    q, r = divmod(total, acting_size)
    if r:
        raise NonIntegralSum(
            f"class sum {total} not divisible by |G||H| = {acting_size}"
        )
    if kind == "modp":
        # Independent modular evaluation, cross-checked against the exact path.
        residue = 0
        for st, cls in zip(stats_list, classes):
            base = factorial(k - 1) % p
            term = pow(base, len(st.representative.vertex_map) // st.order, p)
            if surface == "L":
                term = term * pow(2, st.alpha_exponent, p) % p
            elif surface == "N":
                term = term * ((pow(2, st.alpha_exponent, p) - 1) % p) % p
            residue = (residue + len(cls) * term) % p
        residue = residue * pow(acting_size, -1, p) % p
        if residue != q % p:
            raise InternalInconsistency("modular census disagrees with exact census")
        report = CountReport(mode="modp", residue=residue, prime=p)
    else:
        report = make_report(q, mode)
    return CensusResult(
        surface=surface,
        count=report,
        classes=tuple(stats_list),
        phi_values=tuple(phis),
        acting_size=acting_size,
    )


def grr_census(
    G: FiniteGroup, S: CayleySet, surface: str = "O", mode: str = "exact"
) -> CensusResult:
    """Census with H = 1; representatives are translations R(g), so the
    inverted-edge count is double checked in its conjugation form
    #{t : t g^{o/2} t^{-1} in S}."""
    result = census(G, S, None, surface, mode)
    members = set(S.members)
    for st in result.classes:
        g = st.representative.vertex_map[0]
        if st.order % 2 == 0:
            gh = G.power(g, st.order // 2)
            alt = sum(
                1
                for t in range(G.order)
                if G.table[G.table[t][gh]][G.inverses[t]] in members
            )
            if alt != st.l_value:
                raise InternalInconsistency(
                    f"conjugation form of l gives {alt}, abstract form {st.l_value}"
                )
    if all(st.order % 2 for st in result.classes):
        # Odd order: no half powers, single-branch total must coincide.
        if any(st.branch != THETA for st in result.classes):
            raise InternalInconsistency("odd-order group produced a Delta class")
    return result
