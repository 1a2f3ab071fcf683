"""Cayley graphs and their quadricell flag spaces.

A flag is a triple (g, s, sign): the side ``sign`` of the dart that leaves
vertex g along generator s toward s*g.  Flag ids are fixed by convention:

    id(g, s, sign) = 2*(g*|S| + rank of s in sorted S) + (0 if '+' else 1)

alpha flips the sign, beta sends (g, s, sign) to (s*g, s^{-1}, sign).  The
convention is normative: map files and every canonical form depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CONTAINS_IDENTITY,
    NOT_GENERATING,
    NOT_INVERSE_CLOSED,
    TOO_SMALL,
    BadParameter,
    CaySetInvalid,
    InternalInconsistency,
)
from .groups import FiniteGroup, subgroup_closure

PLUS, MINUS = 0, 1


@dataclass(frozen=True)
class CayleySet:
    members: tuple[int, ...]  # sorted element indices

    def __len__(self) -> int:
        return len(self.members)

    def rank(self, s: int) -> int:
        return self.members.index(s)


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]  # sorted neighbor lists

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]


@dataclass(frozen=True)
class FlagSpace:
    flag_count: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    group: FiniteGroup | None = None
    cayset: CayleySet | None = None
    source: str = "generic"  # "cayley" | "generic"

    @property
    def edge_count(self) -> int:
        return self.flag_count // 4


def validate_cayley_set(G: FiniteGroup, S: Sequence[int]) -> CayleySet:
    """Check S^{-1} = S, 1 not in S, <S> = G, |S| >= 2; collect all failures."""
    members = sorted(set(int(s) for s in S))
    for s in members:
        if not 0 <= s < G.order:
            raise BadParameter(f"element {s} out of range for group of order {G.order}")
    violations: list[tuple[str, str]] = []
    if len(members) < 2:
        violations.append((TOO_SMALL, f"|S| = {len(members)} < 2"))
    if 0 in members:
        violations.append((CONTAINS_IDENTITY, "identity element 0 in S"))
    for s in members:
        if G.inv(s) not in members:
            violations.append((NOT_INVERSE_CLOSED, f"inverse of {s} is {G.inv(s)}, not in S"))
            break
    generated = subgroup_closure(G, members)
    if len(generated) != G.order:
        violations.append((NOT_GENERATING, f"<S> has order {len(generated)} < {G.order}"))
    if violations:
        raise CaySetInvalid(violations)
    return CayleySet(members=tuple(members))


def build_cayley_graph(G: FiniteGroup, S: CayleySet) -> Graph:
    """Vertices G, edges {g, s*g}: connected |S|-regular simple graph."""
    neighbors = np.sort(G.table[list(S.members)], axis=0).T  # row g: the s*g
    return Graph(vertex_count=G.order, adjacency=tuple(map(tuple, neighbors.tolist())))


def build_flag_space(G: FiniteGroup, S: CayleySet) -> FlagSpace:
    k = len(S.members)
    n = 2 * G.order * k
    members = list(S.members)
    j_rev = [S.rank(G.inv(s)) for s in members]
    # dart g*k + j (generator j at g) meets dart (s_j g)*k + rank(s_j^-1)
    beta_darts = G.table[members].T.astype(np.int64) * k + j_rev
    beta = (2 * beta_darts[:, :, None] + np.array([PLUS, MINUS])).ravel()
    F = FlagSpace(
        flag_count=n,
        alpha=tuple((np.arange(n) ^ 1).tolist()),  # the other sign, PLUS = 0 and MINUS = 1
        beta=tuple(beta.tolist()),
        group=G,
        cayset=S,
        source="cayley",
    )
    _check_flag_space(F, internal=True)
    return F


def generic_flag_space(alpha: Sequence[int], beta: Sequence[int]) -> FlagSpace:
    """Flag space from explicit involutions (e.g. a non-Cayley test map)."""
    n = len(alpha)
    if len(beta) != n:
        raise BadParameter("alpha and beta must have equal length")
    F = FlagSpace(
        flag_count=n,
        alpha=tuple(int(x) for x in alpha),
        beta=tuple(int(x) for x in beta),
    )
    _check_flag_space(F, internal=False)
    return F


def _check_flag_space(F: FlagSpace, internal: bool) -> None:
    """Fixed-point-free involutions, alpha*beta fixed-point-free, quadricells of size 4."""
    err = InternalInconsistency if internal else BadParameter
    n = F.flag_count
    if n % 4:
        raise err(f"flag count {n} not divisible by 4")
    for name, perm in (("alpha", F.alpha), ("beta", F.beta)):
        if sorted(perm) != list(range(n)):
            raise err(f"{name} is not a permutation")
        for f in range(n):
            if perm[perm[f]] != f:
                raise err(f"{name} is not an involution at flag {f}")
            if perm[f] == f:
                raise err(f"{name} fixes flag {f}")
    for f in range(n):
        if F.alpha[F.beta[f]] == f:
            raise err(f"alpha*beta fixes flag {f} (degenerate quadricell)")
    for q in quadricells(F):
        if len(set(q)) != 4:
            raise err(f"quadricell {q} has fewer than 4 flags")


def quadricells(F: FlagSpace) -> list[tuple[int, int, int, int]]:
    """<alpha,beta>-orbits as (x, alpha x, beta x, alpha beta x), x minimal.

    The list order (by minimal flag) is the normative edge indexing.
    """
    seen = [False] * F.flag_count
    out = []
    for x in range(F.flag_count):
        if seen[x]:
            continue
        cell = (x, F.alpha[x], F.beta[x], F.alpha[F.beta[x]])
        for f in cell:
            seen[f] = True
        out.append(cell)
    return out
