"""Permutations and permutation groups as integer arrays.

A permutation of ``0..n-1`` is a length-``n`` array ``p`` sending ``v`` to
``p[v]``; "``a`` after ``b``" is ``a[b]``.  The batch functions take one
permutation or a stack of them (shape ``(..., n)``) and never walk a cycle
step by step: cycles are labelled by pointer doubling, which stops at the
first round that lowers no label (each label is then already its cycle's
least point, see :func:`cycle_labels`), and the orbits of several
permutations by least-label propagation with shortcuts.

:class:`PermGroup` holds a finite group of permutations as an
``(|A|, n)`` array whose rows are in lexicographic order (the order of
``sorted`` on the tuples), together with its multiplication table.  Built
from a list of maps, the table is found by looking up every product, which
also proves the rows closed under composition; a group whose table is
already known (``PermGroup.of_table``) is taken as it is.

An abstract group is read the same way: row ``g`` of a multiplication
table (``table[g, t] = g t``) is the left-regular permutation
``t -> g t``, whose powers and cycles are those of ``g``, and
:func:`conjugacy_classes_of` takes any group table with its inverses and
labels every element by its least conjugate in one gather.

:func:`divisor_powers` works on element indices too, and is the one place
orders are computed: one power table holds ``a^d`` for every element a and
every divisor d of the group order, so the order is the least d with
``a^d = 1``; :func:`element_stats` reads from it that ``a`` is
semi-regular iff ``a^(o/p)`` fixes no point for every prime p dividing its
order o, and the edge orbits of ``<a>`` by Burnside's sum
``(1/o) sum over d | o of phi(o/d) fix_E(a^d)``; no row is labelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadParameter, CapExceeded

# A table search (``PermGroup(maps)``) composes |A|^2 pairs of n points and
# checks each product against a row; refuse more work, there and in the
# oracle's lift to flags.  A table read off a validated one is not searched.
DEFAULT_TABLE_CAP = 1 << 29

# Conjugates g x g^-1 gathered at once by ``conjugacy_classes_of``: groups up
# to order 1024 take one gather, larger ones a block of g at a time.
CONJUGATE_BLOCK = 1 << 20

# Edge-end images gathered at once by ``element_stats``: a block of elements
# whose images of every edge's two ends number at most this many.
EDGE_BLOCK = 1 << 16


def check_table_size(size: int, degree: int) -> None:
    """Refuses a group of ``size`` permutations of ``degree`` points whose
    table would compose more than ``DEFAULT_TABLE_CAP`` points."""
    work = size * size * degree
    if work > DEFAULT_TABLE_CAP:
        raise CapExceeded(
            f"acting group of order {size} on {degree} points needs "
            f"{work} composed points, table cap is {DEFAULT_TABLE_CAP}"
        )


def flat_index(perms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Indices into the flattened ``(m, n)`` stack: row ``r``, point ``v``
    becomes ``r*n + perms[r, v]``, so one gather ``x.ravel()[index]`` reads
    ``x[r, perms[r, v]]`` on every row at once.  ``out``, if given, is an
    intp array of ``m*n`` entries that receives them."""
    m, n = perms.shape
    out = np.empty(m * n, dtype=np.intp) if out is None else out
    np.add(perms, n * np.arange(m, dtype=np.intp)[:, None], out=out.reshape(m, n))
    return out


def cycle_labels(perms, index=None, buffers=None) -> np.ndarray:
    """The least point of the cycle through every point, row by row.
    ``index``, if given, is the ``flat_index`` of the ``(m, n)`` stack;
    ``buffers``, if given, are two intp arrays of ``m*n`` entries that the
    rounds write their steps into, in turn (``index`` is only read).

    Before the round that uses ``step = p^span``, ``label[v]`` is the least
    of the ``span`` points from ``v`` on.  A round that lowers no label ends
    the search: ``label[v] <= label[step[v]]`` for every ``v`` makes the
    labels constant along each chain ``v, step[v], ...``, whose windows tile
    the whole cycle, so each label is already its cycle's least point."""
    perms = np.asarray(perms)
    n = perms.shape[-1]
    step = flat_index(perms.reshape(-1, n)) if index is None else index
    label = np.tile(np.arange(n, dtype=perms.dtype), len(step) // n)
    span = 1
    while span < n:
        lower = np.minimum(label, label[step])
        if np.array_equal(lower, label):
            break
        label = lower
        span *= 2
        if span < n:
            step = _square(step, buffers)
    return label.reshape(perms.shape)


def _square(step: np.ndarray, buffers) -> np.ndarray:
    """``step[step]``, written into whichever of ``buffers`` (if given) is
    not ``step`` itself.  Every entry indexes ``step``, so ``mode="clip"``
    clips nothing; it spares ``np.take`` the copy of ``out`` that its
    default mode makes."""
    if buffers is None:
        return step[step]
    out = buffers[1] if step is buffers[0] else buffers[0]
    return np.take(step, step, out=out, mode="clip")


def orbit_labels(gens, labels=None, indices=None, buffer=None) -> np.ndarray:
    """The least point of the orbit through every point under the group
    generated by ``gens``, row by row.  The first generator is a stack
    ``(m, n)``; the others are shared ``(n,)`` permutations or stacks.
    ``labels``, if given, send every point to a point of its orbit no
    greater than itself, such as the first generator's ``cycle_labels``
    (the default).  ``indices``, if given, are the ``flat_index`` of every
    stacked generator, in order; ``buffer``, if given, is an intp array of
    ``m*n`` entries that receives each round's shortcut index.

    Each round lowers every label to the least label one generator step
    away, then shortcuts it through the label of its label (itself a point
    of the same orbit); the labels are final once a round changes none.
    """
    first = np.asarray(gens[0])
    m, n = first.shape
    shared = [np.asarray(g) for g in gens[1:] if np.ndim(g) == 1]
    if indices is None:
        indices = [flat_index(np.asarray(g)) for g in gens if np.ndim(g) == 2]
    offset = n * np.arange(m, dtype=np.intp)[:, None]
    label = cycle_labels(first, indices[0]) if labels is None else labels
    while True:
        new = label
        for g in shared:
            new = np.minimum(new, new[:, g])
        for g in indices:
            new = np.minimum(new, new.ravel()[g].reshape(m, n))
        shortcut = np.add(new, offset, out=None if buffer is None else buffer.reshape(m, n))
        new = new.ravel()[shortcut.ravel()].reshape(m, n)
        if np.array_equal(new, label):
            return label
        label = new


def cycles(p: Sequence[int], labels: np.ndarray) -> list[tuple[int, ...]]:
    """The cycles of one permutation from its ``cycle_labels``, fixed points
    included: ordered by least point, each starting there."""
    out = []
    for start in np.flatnonzero(labels == np.arange(len(labels))).tolist():
        cyc = [start]
        j = p[start]
        while j != start:
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def row_dtype(n: int):
    """The narrowest integer type holding the points of ``n``-point rows."""
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
        rows = np.array(pool, dtype=row_dtype(n))
        if not (rows[0] == np.arange(n)).all():  # the identity sorts first
            raise BadParameter("acting set lacks the identity")
        self._index(rows)

        self.table = np.empty((m, m), dtype=np.int32)
        for b in range(m):
            found = self.find(rows[:, rows[b]])  # every row after row b
            if (found < 0).any():
                raise BadParameter("acting set is not closed under composition")
            self.table[:, b] = found
        self.inverse = np.argmax(self.table == 0, axis=1)

    @classmethod
    def of_table(cls, rows: np.ndarray, table: np.ndarray, inverse: np.ndarray) -> "PermGroup":
        """The group whose sorted ``rows``, ``table`` and ``inverse`` are
        already known, taken as they are: no search."""
        group = cls.__new__(cls)
        group._index(rows)
        group.table, group.inverse = table, inverse
        return group

    def _index(self, rows: np.ndarray) -> None:
        m, n = rows.shape
        self.rows = rows
        self._levels = []
        run_start = np.zeros(m, dtype=np.int64)
        for j in range(n):
            key = run_start * n + rows[:, j]
            self._levels.append(key)
            run_start = np.searchsorted(key, key)
            if (run_start == np.arange(m)).all():
                break

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


def conjugacy_classes_of(table: np.ndarray, inverse: np.ndarray) -> list[np.ndarray]:
    """Conjugacy classes of the group with multiplication ``table`` and
    ``inverse`` (a :class:`PermGroup`'s, or a ``FiniteGroup``'s), as sorted
    arrays of element indices ordered by their least member.

    Every element is labelled by its least conjugate, the minimum over g of
    ``table[table[g, x], inverse[g]]`` (one gather per block of g, a single
    one unless |A|^2 passes ``CONJUGATE_BLOCK``); a stable sort by label
    then lists each class in ascending order, the classes by least member.
    """
    m = len(table)
    label = np.full(m, m, dtype=np.intp)
    step = max(1, CONJUGATE_BLOCK // m)
    for g in range(0, m, step):
        conj = table[table[g:g + step], inverse[g:g + step, None]]
        np.minimum(label, conj.min(axis=0), out=label)
    members = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[members])) + 1).tolist(), m]
    return [members[a:b] for a, b in zip(cuts, cuts[1:])]


@dataclass(frozen=True)
class ElementStats:
    """Per-element statistics of a group acting on a graph, indexed like
    the group's rows.  ``semi_regular`` holds where every cycle of the
    element has the same length: for order o, where ``a^(o/p)`` fixes no
    point for every prime p dividing o (a shorter cycle has a length
    dividing some o/p).  ``l_value`` counts the vertices the half-order
    power sends to a neighbor (0 for odd order); ``edge_orbits`` counts the
    orbits of the cyclic group generated by the element on the edges, and
    is -1 where the element does not map edges to edges."""

    order: np.ndarray
    semi_regular: np.ndarray
    l_value: np.ndarray
    edge_orbits: np.ndarray


def _divisors_and_primes(m: int) -> tuple[list[int], list[int], list[int]]:
    """The divisors of ``m`` in ascending order, Euler's phi of each, and
    the primes dividing ``m``."""
    primes, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    phi = []
    for d in divisors:
        for p in primes:
            if d % p == 0:
                d -= d // p
        phi.append(d)
    return divisors, phi, primes


class DivisorPowers(NamedTuple):
    """``powers[i, a]`` is ``a^d`` for every element a and the i-th divisor
    d of the group order (``position[d]`` is i; ``phi`` and ``primes`` as
    in ``_divisors_and_primes``), and ``order[a]`` is the least d with
    ``a^d`` the identity (Lagrange)."""
    divisors: np.ndarray
    phi: list[int]
    primes: list[int]
    position: np.ndarray
    powers: np.ndarray
    order: np.ndarray


def divisor_powers(table: np.ndarray) -> DivisorPowers:
    """The powers of every element of the group with multiplication
    ``table`` (identity 0) at every divisor d of its order: row d/p, p the
    least prime of d, raised to the p-th power in the table."""
    m = len(table)
    divisors, phi, primes = _divisors_and_primes(m)
    position = np.zeros(m + 1, dtype=np.intp)
    position[divisors] = np.arange(len(divisors))
    powers = np.empty((len(divisors), m), dtype=table.dtype)
    powers[0] = np.arange(m)
    for i, d in enumerate(divisors[1:], 1):
        p = next(p for p in primes if d % p == 0)
        out = base = powers[position[d // p]]
        for bit in bin(p)[3:]:  # base^p by squaring, bits after the leading one
            out = table[out, out]
            if bit == "1":
                out = table[out, base]
        powers[i] = out
    divisors = np.array(divisors, dtype=np.int64)
    orders = divisors[np.argmax(powers == 0, axis=0)]
    return DivisorPowers(divisors, phi, primes, position, powers, orders)


def element_stats(group: PermGroup, adjacency: np.ndarray) -> ElementStats:
    """Statistics of every element of ``group`` acting on the graph with
    the symmetric boolean ``adjacency`` matrix, read from the group's
    ``divisor_powers``: semi-regularity and l from the fixed points and
    inverted vertices of single powers, the edge orbits of ``<a>`` by
    Burnside's lemma, ``(1/o) sum over d | o of phi(o/d) fix_E(a^d)``,
    from the edges each element fixes.  a fixes {u, v} iff
    {a(u), a(v)} = {u, v}, and breaks the graph iff some a(u), a(v) are
    not adjacent; both are read off the images of the edge ends, a block
    of elements at a time."""
    rows = group.rows
    m, n = rows.shape
    divisors, phi, primes, position, powers, orders = divisor_powers(group.table)
    element = np.arange(m)

    fixes_a_point = (rows == np.arange(n, dtype=rows.dtype)).any(axis=1)
    primes = np.array(primes, dtype=np.int64)[:, None]
    prime_powers = powers[position[orders // primes], element]
    semi = ~((orders % primes == 0) & fixes_a_point[prime_powers]).any(axis=0)

    involutions = np.flatnonzero(orders == 2)
    inverted = np.zeros(m, dtype=np.int64)
    inverted[involutions] = np.count_nonzero(adjacency[np.arange(n), rows[involutions]], axis=1)
    l_value = np.where(orders % 2 == 0, inverted[powers[position[orders // 2], element]], 0)

    ends_u, ends_v = np.nonzero(np.triu(adjacency))  # u < v
    u, v = ends_u.astype(rows.dtype), ends_v.astype(rows.dtype)
    adjacent = adjacency.ravel()  # the edge {x, y} at x * n + y
    flat = np.min_scalar_type(-n * n)  # a signed dtype that holds every x * n + y
    fixed_edges = np.empty(m, dtype=np.intp)
    breaks = np.empty(m, dtype=bool)
    step = max(1, EDGE_BLOCK // max(len(u), 1))
    for start in range(0, m, step):
        block = slice(start, start + step)
        image_u, image_v = rows[block, ends_u], rows[block, ends_v]
        kept = np.minimum(image_u, image_v) == u
        kept &= np.maximum(image_u, image_v) == v
        fixed_edges[block] = np.count_nonzero(kept, axis=1)
        image = image_u.astype(flat)
        image *= n
        image += image_v
        breaks[block] = ~adjacent[image].all(axis=1)
    cofactor = orders // divisors[:, None]  # o/d, a divisor of o where d divides o
    burnside = np.where(
        orders % divisors[:, None] == 0,
        np.array(phi, dtype=np.int64)[position[cofactor]] * fixed_edges[powers], 0,
    ).sum(axis=0)
    edge_orbits = burnside // orders
    edge_orbits[breaks] = -1
    return ElementStats(orders, semi, l_value, edge_orbits)
