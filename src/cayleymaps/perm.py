"""Permutations and permutation groups as integer arrays.

A permutation of ``0..n-1`` is a length-``n`` array ``p`` sending ``v`` to
``p[v]``; "``a`` after ``b``" is ``a[b]``.  The batch functions take one
permutation or a stack of them (shape ``(..., n)``) and never walk a cycle
step by step: cycles are labelled by pointer doubling (``log2 n`` rounds)
and powers are taken by repeated squaring.

:class:`PermGroup` holds a finite group of permutations as an
``(|A|, n)`` array whose rows are in lexicographic order (the order of
``sorted`` on the tuples), together with its multiplication table, which
also proves the rows closed under composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParameter, CapExceeded

# Building the multiplication table composes |A|^2 pairs of n points each and
# checks every product against a full row; refuse groups with more work.
DEFAULT_TABLE_CAP = 1 << 29


def check_table_size(size: int, degree: int) -> None:
    """Refuses a group of ``size`` permutations of ``degree`` points whose
    table would compose more than ``DEFAULT_TABLE_CAP`` points."""
    work = size * size * degree
    if work > DEFAULT_TABLE_CAP:
        raise CapExceeded(
            f"acting group of order {size} on {degree} points needs "
            f"{work} composed points, table cap is {DEFAULT_TABLE_CAP}"
        )


def cycle_labels(perms) -> np.ndarray:
    """The least point of the cycle through every point, row by row."""
    perms = np.asarray(perms)
    n = perms.shape[-1]
    label = np.broadcast_to(np.arange(n, dtype=perms.dtype), perms.shape).copy()
    step = perms.copy()
    span = 1
    while span < n:  # label[v] = min of the first 2*span points from v
        label = np.minimum(label, np.take_along_axis(label, step, -1))
        step = np.take_along_axis(step, step, -1)
        span *= 2
    return label


def cycle_lengths(perms) -> np.ndarray:
    """The length of the cycle through every point, row by row."""
    labels = cycle_labels(perms)
    n = labels.shape[-1]
    flat = labels.reshape(-1, n).astype(np.int64)
    flat += n * np.arange(len(flat))[:, None]
    return np.bincount(flat.ravel(), minlength=flat.size)[flat].reshape(labels.shape)


def order(perms):
    """Order of each permutation, the lcm of its cycle lengths (as int64,
    exact for elements of any group small enough for a PermGroup)."""
    return np.lcm.reduce(cycle_lengths(perms), axis=-1)


def semi_regular(perms):
    """Whether all cycles of each permutation have the same length."""
    lengths = cycle_lengths(perms)
    return (lengths == lengths[..., :1]).all(axis=-1)


def power(perms, k):
    """Each permutation raised to ``k`` (one exponent, or one per row)."""
    perms = np.asarray(perms)
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), perms.shape[:-1]).copy()
    out = np.broadcast_to(np.arange(perms.shape[-1], dtype=perms.dtype), perms.shape).copy()
    base = perms.copy()
    while k.any():
        odd = (k & 1).astype(bool)[..., None]
        out = np.where(odd, np.take_along_axis(base, out, -1), out)
        base = np.take_along_axis(base, base, -1)
        k >>= 1
    return out


def cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    """Entry ``i-1`` counts the ``i``-cycles of one permutation."""
    lengths = cycle_lengths(perm)
    n = len(lengths)
    return tuple((np.bincount(lengths, minlength=n + 1)[1:] // np.arange(1, n + 1)).tolist())


def _row_dtype(n: int):
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


class PermGroup:
    """A finite permutation group: sorted rows and multiplication table.

    ``table[a, b]`` is the row index of ``rows[a]`` after ``rows[b]``;
    ``inverse[a]`` is the row index of the inverse of ``rows[a]``.

    Rows are looked up one point at a time, without hashing: since the rows
    are sorted, the rows sharing a prefix are a run, and level ``j`` of the
    index keys each row by (first row of its run through point ``j-1``,
    point ``j``), a sorted integer column to binary-search.  The levels stop
    where every run is a single row, and a hit is then checked against the
    full row.
    """

    def __init__(self, maps: Sequence[Sequence[int]]):
        check_table_size(len(maps), len(maps[0]))
        pool = sorted(set(map(tuple, maps)))
        m, n = len(pool), len(pool[0])
        self.rows = rows = np.array(pool, dtype=_row_dtype(n))
        if not (rows[0] == np.arange(n)).all():  # the identity sorts first
            raise BadParameter("acting set lacks the identity")

        self._levels = []
        run_start = np.zeros(m, dtype=np.int64)
        for j in range(n):
            key = run_start * n + rows[:, j]
            self._levels.append(key)
            run_start = np.searchsorted(key, key)
            if (run_start == np.arange(m)).all():
                break

        self.table = np.empty((m, m), dtype=np.int32)
        for b in range(m):
            found = self.find(rows[:, rows[b]])  # every row after row b
            if (found < 0).any():
                raise BadParameter("acting set is not closed under composition")
            self.table[:, b] = found
        self.inverse = np.argmax(self.table == 0, axis=1)

    def __len__(self) -> int:
        return len(self.rows)

    def find(self, perms) -> np.ndarray:
        """Row index of each permutation in ``perms``, or -1 if absent."""
        perms = np.asarray(perms)
        n = perms.shape[1]
        pos = np.zeros(len(perms), dtype=np.int64)
        for j, key in enumerate(self._levels):
            pos = np.minimum(np.searchsorted(key, pos * n + perms[:, j]), len(key) - 1)
        hit = (self.rows[pos] == perms).all(axis=1)
        return np.where(hit, pos, -1)

    def element(self, i: int) -> tuple[int, ...]:
        return tuple(self.rows[i].tolist())

    def class_size(self, i: int) -> int:
        """Size of the conjugacy class of row ``i``: |A| / |centralizer|."""
        commuting = np.count_nonzero(self.table[:, i] == self.table[i, :])
        return len(self) // commuting


def conjugacy_classes_of(group: PermGroup) -> list[np.ndarray]:
    """Conjugacy classes as sorted arrays of row indices, ordered by their
    least member (so by the least permutation in each class)."""
    table, inverse = group.table, group.inverse
    seen = np.zeros(len(group), dtype=bool)
    classes = []
    for x in range(len(group)):
        if seen[x]:
            continue
        cls = np.flatnonzero(np.bincount(table[table[:, x], inverse], minlength=len(group)))
        seen[cls] = True
        classes.append(cls)
    return classes


@dataclass(frozen=True)
class ElementStats:
    """Per-element statistics of a group acting on a graph, indexed like
    ``group.rows``.  ``l_value`` counts the vertices the half-order power
    sends to a neighbor (0 for odd order); ``edge_orbits`` counts the orbits
    of the cyclic group generated by the element on the edges, and is -1
    where the element does not map edges to edges."""

    group: PermGroup
    order: np.ndarray
    semi_regular: np.ndarray
    l_value: np.ndarray
    edge_orbits: np.ndarray


def element_stats(group: PermGroup, adjacency: np.ndarray) -> ElementStats:
    """Statistics of every element of ``group`` acting on the graph with
    the symmetric boolean ``adjacency`` matrix."""
    rows = group.rows
    n = rows.shape[1]
    orders = order(rows)
    half = power(rows, orders // 2)
    inverted = np.count_nonzero(adjacency[np.arange(n), half], axis=1)
    l_value = np.where(orders % 2 == 0, inverted, 0)

    ends_u, ends_v = np.nonzero(np.triu(adjacency))
    edge_id = np.full((n, n), -1, dtype=np.int32)
    edge_id[ends_u, ends_v] = edge_id[ends_v, ends_u] = np.arange(len(ends_u))
    edge_perms = edge_id[rows[:, ends_u], rows[:, ends_v]]
    edge_orbits = np.count_nonzero(cycle_labels(edge_perms) == np.arange(len(ends_u)), axis=1)
    edge_orbits[(edge_perms < 0).any(axis=1)] = -1
    return ElementStats(group, orders, semi_regular(rows), l_value, edge_orbits)
