"""The conjugacy classes of Sigma_n as a compact class table.

A partition of n stands for the class of that cycle type.  The p(n)
partitions are listed in reverse lexicographic order by one memoized pass
that forms no multiplicity matrix: every r <= n/2 is built once as a memo
table, and the partitions of n are runs of rows that join the last rows of
a memo table with larger parts.  A row's class data (``ClassColumns``:
centralizer code, order, 1- and 2-cycles, the 2-adic data that decides
the fixed points of the half-order power, label length) is its memo row's
combined with its run's, each column in the narrowest dtype that holds it
at n <= 60.  Labels are held as references (``CycleTypeLabels``), a memo
label and a run's prefix per row, which a report gathers a chunk of rows
at a time; distinct centralizer codes become big class sizes once
(``CentralizerCode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from operator import mul
from typing import NamedTuple

import numpy as np

# A partition of n as cycle-type multiplicities: entry i-1 counts i-cycles.
Partition = tuple[int, ...]

# rows per block of the index searches in ``distinct``, so that no intp
# temporary spans the whole class table
SEARCH_ROWS = 1 << 12


class ClassColumns(NamedTuple):
    """Per-row class data of partitions, each in the narrowest dtype that
    holds it at n <= 60."""

    code: np.ndarray  # the centralizer order prod(i^{k_i} k_i!), ``CentralizerCode``
    order: np.ndarray  # uint32 lcm of the parts; Landau's g(60) = 1,021,020
    k1: np.ndarray  # uint8 number of 1-cycles
    k2: np.ndarray  # uint8 number of 2-cycles
    v2: np.ndarray  # uint8 largest 2-adic valuation of a part
    moved: np.ndarray  # uint8 points on the parts of valuation v2
    length: np.ndarray  # uint8 label length


@dataclass(frozen=True)
class CycleTypeLabels:
    """The cycle-type label of every row, held as references instead of
    strings: row r reads ``memo[memo_row[r]] + prefix[prefix_id[r]]``, the
    label of its parts up to n/2 (a row of the memo tables, with a trailing
    space unless empty) followed by that of its larger parts, which a run
    of rows shares; it is ``length[r]`` characters long.  A report gathers
    the memo labels and prefixes a chunk of rows at a time, and forms no
    label string per row."""

    memo: np.ndarray  # object array of str
    prefix: np.ndarray  # object array of str
    memo_row: np.ndarray
    prefix_id: np.ndarray
    length: np.ndarray  # uint8

    def __len__(self) -> int:
        return len(self.length)

    def rows(self, start: int, stop: int) -> list[str]:
        """The labels of rows start:stop, each built on the call."""
        return (self.memo[self.memo_row[start:stop]]
                + self.prefix[self.prefix_id[start:stop]]).tolist()


def class_table(n: int, coder: CentralizerCode) -> tuple[ClassColumns, CycleTypeLabels]:
    """The class data and cycle-type labels of the partitions of n, in
    reverse lexicographic order: [n], [n-1, 1], [n-2, 2], [n-2, 1, 1], ...

    In that order the partitions with largest part x of multiplicity k are
    x^k followed by the partitions of r - kx with parts below x, larger x
    and then larger k first, and the partitions of r with parts at most m
    are the last ``counts[r][m]`` partitions of r.  Every r <= n/2 is
    built whole once, as a memo table whose rows each join a row of a
    smaller table with one part x^k; the partitions of n are runs of rows
    that join the last rows of a memo table with larger parts, the
    remainder being split again by its largest part while it exceeds n/2.
    """
    counts = [[1] * (n + 1)] + [[0] * (n + 1) for _ in range(n)]
    for r in range(1, n + 1):
        for m in range(1, n + 1):
            counts[r][m] = counts[r][m - 1] + (counts[r - m][m] if m <= r else 0)
    half = n // 2
    offsets = list(accumulate((counts[r][r] for r in range(half + 1)), initial=0))
    # memo table r is rows offsets[r]:offsets[r + 1]; table 0 is row 0, the
    # empty partition
    memo = ClassColumns(np.zeros(offsets[-1], coder.dtype), np.ones(offsets[-1], np.uint32),
                        *(np.zeros(offsets[-1], np.uint8) for _ in range(5)))
    memo_labels = np.full(offsets[-1], "", dtype=object)
    for r in range(1, half + 1):
        runs = _Runs(counts, coder, offsets, r, r, " ")
        part, memo_row, prefix_id = _join_runs(memo, runs)
        rows = slice(offsets[r], offsets[r + 1])
        for column, values in zip(memo, part):
            column[rows] = values
        memo_labels[rows] = memo_labels[memo_row] + np.array(runs.labels, dtype=object)[prefix_id]
    runs = _Runs(counts, coder, offsets, n, half + 1, "")
    table, memo_row, prefix_id = _join_runs(memo, runs)
    prefix = np.array(runs.labels, dtype=object)
    return table, CycleTypeLabels(memo_labels, prefix, memo_row, prefix_id, table.length)


class _Runs:
    """The runs of rows of the partitions of r, in order.  Run j joins
    ``rows`` consecutive memo rows from ``first``, the last rows of a memo
    table below ``limit``, with larger parts: it is row j of ``values``,
    (first, rows, then the ``ClassColumns`` of its larger parts), and
    ``labels[j]``, their label followed by ``sep``."""

    def __init__(self, counts, coder: CentralizerCode, offsets: list[int], r: int,
                 limit: int, sep: str):
        self.counts, self.coder, self.offsets, self.limit, self.sep = (
            counts, coder, offsets, limit, sep)
        self.values: list[int] = []
        self.labels: list[str] = []
        self._split(r, r, 0, 1, 0, 0, 0, 0, "")  # no larger parts yet

    def _split(self, r: int, m: int, code: int, order: int, k1: int, k2: int, v2: int,
               moved: int, label: str) -> None:
        """Appends the runs of the partitions of r with parts <= m below
        larger parts with the given columns and label.  A method, not a
        nested function: a closure that calls itself is a reference cycle,
        which would keep the runs alive until the cycle collector runs."""
        counts, part_code, fact_code = self.counts, self.coder.part_code, self.coder.fact_code
        for x in range(min(r, m), 0, -1):
            v = (x & -x).bit_length() - 1
            x_order, x_v2 = lcm(order, x), max(v, v2)
            x_moved = moved if v <= v2 else 0  # points kept on parts of valuation x_v2
            tail = " " + label if label else ""
            for k in range(r // x, 0, -1):
                rest = r - k * x
                c = counts[rest][x - 1]
                if not c:
                    continue
                joined = (
                    code + part_code[x] * k + fact_code[k], x_order,
                    k1 + k if x == 1 else k1, k2 + k if x == 2 else k2,
                    x_v2, x_moved + k * x if v >= v2 else x_moved,
                    (f"{x}^{k}" if k > 1 else str(x)) + tail,
                )
                if rest >= self.limit:
                    self._split(rest, x - 1, *joined)
                    continue
                label_of_run = joined[6] + self.sep
                self.values += (self.offsets[rest + 1] - c, c, *joined[:6], len(label_of_run))
                self.labels.append(label_of_run)

    def columns(self, code_dtype) -> tuple[np.ndarray, np.ndarray, ClassColumns]:
        """The first memo row and row count of every run, and the columns
        of its larger parts."""
        values = np.array(self.values, dtype=np.uint64).reshape(-1, 9)
        return values[:, 0].astype(np.uint32), values[:, 1].astype(np.uint32), ClassColumns(
            values[:, 2].astype(code_dtype), values[:, 3].astype(np.uint32),
            *(values[:, j].astype(np.uint8) for j in range(4, 9)),
        )


def _join_runs(memo: ClassColumns, runs: _Runs) -> tuple[ClassColumns, np.ndarray, np.ndarray]:
    """The columns of the rows of ``runs``, and the memo row and run of
    each row."""
    first, per_run, large = runs.columns(memo.code.dtype)
    ends = np.cumsum(per_run, dtype=np.uint32)
    # the row's place in its run, plus the run's first memo row
    memo_row = np.arange(ends[-1], dtype=np.uint32)
    memo_row -= np.repeat(ends - per_run, per_run)
    memo_row += np.repeat(first, per_run)
    memo_row = memo_row.astype(index_dtype(len(memo.code)))
    prefix_id = np.repeat(np.arange(len(per_run), dtype=index_dtype(len(per_run))), per_run)
    small_v2, large_v2 = memo.v2[memo_row], large.v2[prefix_id]
    v2 = np.maximum(small_v2, large_v2)
    moved = np.where(small_v2 == v2, memo.moved[memo_row], 0)
    moved += np.where(large_v2 == v2, large.moved[prefix_id], 0)
    del small_v2, large_v2
    joined = ClassColumns(
        memo.code[memo_row] + large.code[prefix_id],
        np.lcm(memo.order[memo_row], large.order[prefix_id]),
        memo.k1[memo_row] + large.k1[prefix_id],
        memo.k2[memo_row] + large.k2[prefix_id],
        v2,
        moved,
        memo.length[memo_row] + large.length[prefix_id],
    )
    return joined, memo_row, prefix_id


def index_dtype(count: int):
    """The narrowest unsigned dtype that indexes ``count`` values."""
    return np.min_scalar_type(max(count - 1, 0))


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values, and each value's index among them in
    the narrowest dtype that holds it.  The index is found a block of rows
    at a time, from the block's own distinct values, so that no intp
    temporary spans the whole class table."""
    ordered = np.sort(values)
    found = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    del ordered
    index = np.empty(len(values), index_dtype(len(found)))
    for start in range(0, len(values), SEARCH_ROWS):
        block = slice(start, start + SEARCH_ROWS)
        in_block, inverse = np.unique(values[block], return_inverse=True)
        index[block] = np.searchsorted(found, in_block)[inverse]
    return found, index


def _token(i: int, k: int) -> str:
    return str(i) if k == 1 else f"{i}^{k}"


def cycle_type_label(part: Partition) -> str:
    """The cycle type in exponent notation, parts ascending: ``1^3 2^2``."""
    return " ".join([_token(i, k) for i, k in enumerate(part, start=1) if k])


def partition_of_label(label: str) -> Partition:
    """The multiplicity vector of a cycle-type label, ``cycle_type_label``
    read back."""
    parts = {}
    for token in label.split():
        i, _, k = token.partition("^")
        parts[int(i)] = int(k or 1)
    out = [0] * sum(i * k for i, k in parts.items())
    for i, k in parts.items():
        out[i - 1] = k
    return tuple(out)


class CentralizerCode:
    """The centralizer order prod(i^{k_i} k_i!) of a partition of n, coded
    exactly by its exponents over the primes p <= n in mixed radix with
    digits 0..v_p(n!) (it divides n!), in the narrowest unsigned dtype
    that holds every code.  The code of a partition is the sum of the
    codes ``part_code[i] * k + fact_code[k]`` of its parts i^k; each
    distinct code becomes a big integer once (``sizes``)."""

    def __init__(self, n: int):
        self.primes = [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]
        self.top = [_legendre(n, p) for p in self.primes]
        self.radix = list(accumulate((t + 1 for t in self.top), mul, initial=1))
        self.dtype = np.min_scalar_type(self.radix.pop() - 1)  # below the product of the radices
        self.part_code = [0] * (n + 1)  # part_code[i] codes i, fact_code[k] codes k!
        for p, w in zip(self.primes, self.radix):
            q = p
            while q <= n:  # each power of p dividing i adds one to its digit
                for i in range(q, n + 1, q):
                    self.part_code[i] += w
                q *= p
        self.fact_code = list(accumulate(self.part_code))

    def sizes(self, codes: np.ndarray) -> list[int]:
        """The class sizes n!/prod(i^{k_i} k_i!) of the given codes.  The
        prime powers are multiplied as uint64 in groups whose largest
        product fits, and the groups' products as big integers."""
        groups, bound = [np.ones(len(codes), np.uint64)], 1
        for p, w, t in zip(self.primes, self.radix, self.top):
            if bound * p**t >> 64:
                groups.append(np.ones(len(codes), np.uint64))
                bound = 1
            powers = np.array([p ** (t - e) for e in range(t + 1)], np.uint64)
            groups[-1] *= powers[codes // w % (t + 1)]
            bound *= p**t
        sizes = groups[0].astype(object)
        for group in groups[1:]:
            sizes *= group  # in place: one big integer per code
        return sizes.tolist()


def _legendre(k: int, p: int) -> int:
    """v_p(k!)."""
    v = 0
    while k:
        k //= p
        v += k
    return v
