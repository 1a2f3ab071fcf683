"""Command-line front end.

Every subcommand computes its whole report first, with tables held as
columns, and only then is the report rendered and written to stdout in
chunks of rows, each joined from pieces gathered off small tables of
strings (``Report``), so identical inputs give byte-identical output and
a refusal has happened before the first byte: a failure prints only its message and
ends with ``error-token: <Token>``.  ``--kv`` switches the same data to
line-oriented ``key=value`` form for scripting.  Exit codes are 0 (ok),
1 (validation), 2 (cap exceeded), 3 (internal invariant broke), 64
(usage).  A reader that closes stdout early (``| head``) cuts the output
short without a traceback, and the exit code stays the command's own.
``main`` builds the argument parser on its first call and reuses it, so a
process that runs many commands (a test suite, the benchmark) builds it once.
At import this module loads only the standard library, numpy and
``errors``: each subcommand imports the modules it runs when it runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import compress, repeat
from operator import not_
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import BadParameter, CayleymapsError, InternalInconsistency

if TYPE_CHECKING:
    from fractions import Fraction

    from .formulas import CountReport
    from .groups import FiniteGroup


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

class Indexed(NamedTuple):
    """A table column held as its distinct ``values`` and one ``index`` entry
    per row: cell i prints as ``str(values[index[i]])``."""

    values: Sequence
    index: np.ndarray


class Joined(NamedTuple):
    """A table column whose cell i is cell i of each of its ``parts``
    (``Indexed`` columns) in turn, ``length[i]`` characters in all: a
    cycle-type label is a memo label followed by its run's prefix."""

    parts: Sequence[Indexed]
    length: np.ndarray


class Report:
    """A report kept as items (fields, blank lines, tables with their cells
    held as columns) and rendered only once the command has returned, as
    aligned plain text or as ``key=value`` lines.

    A table row is rendered as a few pieces, each gathered by a per-row
    index from a table of strings that is formed once: an ``Indexed``
    column's distinct values with its padding, the column separator and
    (``--kv``) its key folded in, adjacent ``Indexed`` columns over one
    index array as one piece, a ``Joined`` column's parts and a pad of
    width less length spaces, and a plain column's cells, converted and
    padded a chunk at a time by ``map``.  A chunk of rows fills one
    reused (rows, pieces) object array whose constant pieces are written
    once, and is one join of it.  No Python code runs per row, except on
    a row whose last cell strips to nothing: that row is joined alone and
    stripped of all its trailing whitespace."""

    # a 512-row chunk of the sym-grr class table is 74 KB of text, and its
    # array of pieces 29 KB, both under glibc's default 128 KiB mmap
    # threshold; sym-grr 40 peaks 2.2 MB lower than with 4096-row chunks
    ROWS_PER_CHUNK = 512

    def __init__(self, kv: bool):
        self.kv = kv
        self.items: list[tuple] = []

    def field(self, key: str, value) -> None:
        self.items.append(("field", key, value))

    def blank(self) -> None:
        if not self.kv:
            self.items.append(("blank",))

    def table(self, name: str, headers: list[str], columns: list) -> None:
        """``columns`` holds one column per header, all of one length: a
        sequence of cells, an ``Indexed`` column or a ``Joined`` one; a
        cell prints as its ``str``."""
        self.items.append(("table", name, headers, columns))

    def chunks(self):
        """The rendered text in pieces, each ending with a newline."""
        sep = "=" if self.kv else ": "
        for i, item in enumerate(self.items):
            if item[0] == "field":
                yield f"{item[1]}{sep}{item[2]}\n"
            elif item[0] == "blank":
                yield "\n"
            else:
                yield from self._table_chunks(*item[1:], after_text=i > 0)

    def _table_chunks(self, name: str, headers: list[str], cols: list, after_text: bool):
        cols = [
            c if isinstance(c, (Indexed, Joined)) else _Cells(c, not set(map(type, c)) <= {str})
            for c in cols
        ]
        nrows = _length(cols[0]) if cols else 0
        last = len(cols) - 1
        pieces = []
        if self.kv:
            pieces.append(f"{name}.")
            for j, (h, col) in enumerate(zip(headers, cols)):
                pieces += [_ROW, f".{h}=", *_pieces(col, 0), "\n" if j == last else f"\n{name}."]
            pieces = _folded(pieces)
        else:
            widths = [max(len(h), _width(c)) for h, c in zip(headers, cols)]
            if after_text:
                yield "\n"
            yield "  ".join([h.ljust(w) for h, w in zip(headers, widths[:-1] + [0])]).rstrip() + "\n"
            # every column but the last is padded to its width plus the
            # two-space separator, so a row is its pieces joined
            for j, (col, w) in enumerate(zip(cols, widths)):
                pieces += _pieces(col, w + 2 if j < last else 0)
            pieces = _folded(pieces)
            if pieces:
                pieces = _folded(pieces[:-1] + [_stripped(pieces[-1]), "\n"])
        yield from _rendered(pieces, nrows, self.ROWS_PER_CHUNK)


# the row number of a --kv table line
_ROW = object()


class _Take(NamedTuple):
    """A piece gathered by a per-row ``index`` from a table of strings
    formed once, when rendering starts: entry k is
    ``fmt.format(*(values[k] for values in columns))``.  ``blank``, where
    set, marks the entries that leave nothing of a row's last cell once its
    trailing whitespace is stripped."""

    fmt: str
    columns: tuple
    index: np.ndarray
    blank: np.ndarray | None = None


class _Cells(NamedTuple):
    """A plain column's strings, made a chunk at a time (with ``str``
    where ``convert``), padded to ``width`` where it is not 0, and stripped
    of trailing whitespace where ``strip``."""

    cells: Sequence
    convert: bool
    width: int = 0
    strip: bool = False


class _Pad(NamedTuple):
    """A pad of spaces: entry k of ``table`` is k spaces, gathered by
    ``width`` less each row's ``length``."""

    table: np.ndarray
    width: int
    length: np.ndarray


def _length(column) -> int:
    if isinstance(column, Indexed):
        return len(column.index)
    return len(column.length) if isinstance(column, Joined) else len(column.cells)


def _width(column) -> int:
    """The widest string that some row prints: values the index never
    uses do not count."""
    if isinstance(column, Joined):
        return int(column.length.max(initial=0))
    if isinstance(column, Indexed):
        used = np.zeros(len(column.values), dtype=bool)
        used[column.index] = True  # no intp copy of the index, unlike a bincount
        cells = list(compress(column.values, used.tolist()))
    else:
        cells = column.cells
    if set(map(type, cells)) == {int}:
        # an int's decimal widens with its magnitude, so the widest is the
        # largest's or the least's: each cell is converted once
        cells = [max(cells), min(cells)]
    return max(map(len, map(str, cells)), default=0)


def _pieces(column, width: int) -> list:
    """The pieces of a column, padded to ``width`` when not 0."""
    if isinstance(column, Indexed):
        return [_Take(f"{{!s:<{width}}}" if width else "{!s}", (column.values,), column.index)]
    if isinstance(column, Joined):
        parts = [_Take("{!s}", (p.values,), p.index) for p in column.parts]
        if width:
            pads = np.array([" " * k for k in range(width + 1)], dtype=object)
            parts.append(_Pad(pads, width, column.length))
        return parts
    return [column._replace(width=width)]


def _folded(pieces: list) -> list:
    """The pieces with every constant string joined to the gathered piece
    next to it (to the one before, else the one after), and adjacent
    gathered pieces over one index array merged into one."""
    out: list = []
    for p in pieces:
        prev = out[-1] if out else None
        if isinstance(p, str):
            if isinstance(prev, _Take):
                out[-1] = prev._replace(fmt=prev.fmt + _literal(p))
            elif isinstance(prev, str):
                out[-1] = prev + p
            else:
                out.append(p)
        elif isinstance(p, _Take) and isinstance(prev, str):
            out[-1] = p._replace(fmt=_literal(prev) + p.fmt)
        elif isinstance(p, _Take) and isinstance(prev, _Take) and p.index is prev.index:
            out[-1] = p._replace(fmt=prev.fmt + p.fmt, columns=prev.columns + p.columns)
        else:
            out.append(p)
    return out


def _literal(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _table(piece: _Take) -> np.ndarray:
    """A gathered piece's table as an object array: each string formed once,
    in one pass, and an array of strings used as it is."""
    values = piece.columns[0]
    if piece.fmt in ("{}", "{!s}"):
        if isinstance(values, np.ndarray) and set(map(type, values)) <= {str}:
            return values
        piece = piece._replace(fmt="{!s}")
    count = min(map(len, piece.columns))
    return np.fromiter(map(piece.fmt.format, *piece.columns), dtype=object, count=count)


def _stripped(piece):
    """The last piece of a plain row with its trailing whitespace stripped,
    as the row's ``rstrip`` strips it; a row whose last piece is left empty
    is stripped whole when its chunk is joined."""
    if isinstance(piece, _Cells):
        return piece._replace(strip=True)
    table = list(map(str.rstrip, _table(piece)))
    blank = np.fromiter(map(not_, table), dtype=bool, count=len(table))
    return _Take("{}", (table,), piece.index, blank if blank.any() else None)


def _rendered(pieces: list, nrows: int, per_chunk: int):
    """The rows of a table in chunks of ``per_chunk``, each one join of an
    object array holding its rows' pieces."""
    if not nrows:
        return
    width = len(pieces)
    buf = np.empty((min(nrows, per_chunk), width), dtype=object)
    gathered = []
    for j, p in enumerate(pieces):
        if isinstance(p, str):
            buf[:, j] = p  # written once, for every chunk
        else:
            if isinstance(p, _Take):  # as (table, index, blank)
                p = (_table(p), p.index, p.blank)
            gathered.append((j, p))
    for start in range(0, nrows, per_chunk):
        stop = min(start + per_chunk, nrows)
        m = stop - start
        numbers = None
        strip: list[int] = []
        for j, p in gathered:
            if p is _ROW:
                if numbers is None:
                    numbers = np.fromiter(map(str, range(start, stop)), dtype=object, count=m)
                buf[:m, j] = numbers
            elif isinstance(p, _Cells):
                cells = p.cells[start:stop]
                if p.convert:
                    cells = map(str, cells)
                if p.width:
                    cells = map(str.ljust, cells, repeat(p.width))
                if p.strip:
                    cells = list(map(str.rstrip, cells))
                    if "" in cells:
                        strip = [r for r, c in enumerate(cells) if not c]
                buf[:m, j] = list(cells)
            elif isinstance(p, _Pad):
                lengths = p.length[start:stop].astype(np.intp)
                buf[:m, j] = p.table.take(p.width - lengths, mode="clip")
            else:
                table, index, blank = p
                index = index[start:stop]
                buf[:m, j] = table.take(index, mode="clip")  # every index is in range
                if blank is not None:
                    strip = np.flatnonzero(blank[index]).tolist()
        text = buf[:m].ravel().tolist()
        for r in strip:  # rows whose last cell strips to nothing
            row = slice(r * width, (r + 1) * width)
            text[row] = ["".join(text[row]).rstrip() + "\n"] + [""] * (width - 1)
        yield "".join(text)


def _b(x: bool) -> str:
    return "true" if x else "false"


def _fmt_log2(v) -> str:
    from mpmath import mp

    return mp.nstr(v, 15)


def decimal_string(n: int) -> str:
    """``str(n)`` in subquadratic time, for the binary totals that
    ``census formula`` and ``verify`` print (the closed forms of
    ``special`` form their exact-mode totals in decimal and print them with
    ``str``).

    CPython's int-to-str is quadratic in the digit count.  Here n is split
    at a middle bit, both halves are converted recursively to exact
    ``Decimal`` values and joined as hi * 2^w + lo by decimal arithmetic,
    whose multiplication is subquadratic, with the powers 2^w cached;
    CPython 3.12's ``_pylong`` does the same.
    """
    if n.bit_length() <= 8192:
        return str(n)
    import decimal

    D = decimal.Decimal
    pow2: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        v = pow2.get(w)
        if v is None:
            if w <= 128:
                v = D(2) ** w
            elif w - 1 in pow2:
                v = pow2[w - 1] * 2
            else:
                v = two_to(w >> 1) * two_to(w - (w >> 1))
            pow2[w] = v
        return v

    def convert(x: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return D(x)
        half = w >> 1
        hi = x >> half
        return convert(x - (hi << half), half) + convert(hi, w - half) * two_to(half)

    from .formulas import exact_context

    with decimal.localcontext(exact_context()):
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _count_fields(R: Report, prefix: str, rep: CountReport) -> None:
    R.field(f"{prefix}-mode", rep.mode)
    if rep.mode == "exact":
        # a closed form's total is already a decimal; a census's is an int
        exact = rep.exact_value
        R.field(prefix, decimal_string(exact) if isinstance(exact, int) else str(exact))
        R.field(f"{prefix}-log2", _fmt_log2(rep.log2_value))
    elif rep.mode == "log2":
        R.field(f"{prefix}-log2", _fmt_log2(rep.log2_value))
    else:
        R.field(f"{prefix}-residue", rep.residue)
        R.field(f"{prefix}-prime", rep.prime)


def _rep_labels(G: FiniteGroup, vms) -> list[str]:
    """The printed label of each vertex map in the stack ``vms``: the name
    of g for the right translation by g (the map equal to column g of the
    table, g its image of 0), else the map in brackets."""
    vms = np.asarray(vms)
    translation = (G.table.T[vms[:, 0]] == vms).all(axis=1)
    return [
        G.name_of(g) if t else "[" + " ".join(map(str, vm.tolist())) + "]"
        for g, t, vm in zip(vms[:, 0].tolist(), translation.tolist(), vms)
    ]


def _columns(rows: list[tuple], width: int) -> list:
    """The columns of a table given as ``width``-tuples, one per row."""
    return list(zip(*rows)) or [()] * width


def _fmt_ratio(r: Fraction | None) -> str:
    return "-" if r is None else str(r)


def _oracle_options(args) -> tuple[str, int]:
    """``--semantics`` and ``--cap``, with their defaults from ``oracle``."""
    from .oracle import DEFAULT_ORACLE_CAP, SIGMA

    return args.semantics or SIGMA, DEFAULT_ORACLE_CAP if args.cap is None else args.cap


def _load_pair(source: list[str]):
    """Two file paths, or one fixtures:NAME standing for the pair."""
    from .fileio import load_cayset, load_group, resolve_fixture

    if len(source) == 1:
        fx = resolve_fixture(source[0])
        if fx is None or fx.group is None or fx.cayset is None:
            raise BadParameter(
                "expected <group-file> <cayset-file>, or a single fixtures:NAME with both"
            )
        return fx.group, fx.cayset
    if len(source) == 2:
        G = load_group(source[0])
        return G, load_cayset(G, source[1])
    raise BadParameter("expected <group-file> <cayset-file>, or a single fixtures:NAME")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_group(args) -> Report:
    from .fileio import load_group
    from .perm import conjugacy_classes_of, divisor_powers

    G = load_group(args.group_file)
    R = Report(args.kv)
    classes = conjugacy_classes_of(G.table, G.inverses)
    R.field("order", G.order)
    R.field("abelian", _b(all(len(c) == 1 for c in classes)))
    R.field("exponent", int(np.lcm.reduce(divisor_powers(G.table).order)))
    R.field("conjugacy-classes", len(classes))
    R.field("valid", "true")
    return R


def cmd_cayley(args) -> Report:
    from .autaction import DEFAULT_GRAPH_AUT_CAP, decompose, graph_automorphism_group
    from .cayley import build_cayley_graph

    G, S = _load_pair(args.source)
    graph = build_cayley_graph(G, S)
    cap = DEFAULT_GRAPH_AUT_CAP if args.aut_cap is None else args.aut_cap
    full = graph_automorphism_group(graph, cap)
    dec = decompose(full, G)
    R = Report(args.kv)
    R.field("group-order", G.order)
    R.field("degree", len(S.members))
    R.field("aut-order", len(full))
    R.field("is-grr", _b(dec.is_grr))
    R.field("is-direct-product", _b(dec.is_direct_product))
    R.field("h-order", len(dec.complement) if dec.is_direct_product else 0)
    return R


def cmd_map(args) -> Report:
    from .cayley import build_flag_space
    from .fileio import load_cayset, load_group, load_map
    from .maps import inventory, map_automorphisms, orientation_preserving_automorphisms

    F = None
    if args.group_file is not None or args.cayset_file is not None:
        if args.group_file is None or args.cayset_file is None:
            raise BadParameter("--group and --cayset must be given together")
        G = load_group(args.group_file)
        F = build_flag_space(G, load_cayset(G, args.cayset_file))
    M = load_map(args.map_file, flag_space=F)
    inv = inventory(M)
    R = Report(args.kv)
    R.field("flags", M.flag_space.flag_count)
    R.field("vertices", inv.vertex_count)
    R.field("edges", inv.edge_count)
    R.field("faces", inv.face_count)
    R.field("face-lengths", ",".join(str(x) for x in inv.face_lengths))
    R.field("euler-characteristic", inv.euler_characteristic)
    R.field("orientable", _b(inv.orientable))
    R.field("genus" if inv.orientable else "crosscap", inv.genus)
    auts = map_automorphisms(M)
    R.field("aut-order", len(auts))
    R.field("orientation-preserving", len(orientation_preserving_automorphisms(M)))
    R.field("valid", "true")
    return R


def cmd_census_formula(args) -> Report:
    from .fileio import load_automorphisms
    from .formulas import census

    G, S = _load_pair(args.source)
    H = None
    if args.h_file is not None:
        H = load_automorphisms(args.h_file, vertex_count=G.order)
    res = census(G, S, H, args.surface, args.mode)
    R = Report(args.kv)
    R.field("surface", res.surface)
    R.field("acting-size", len(res.acting))
    R.field("classes", len(res.classes))
    reps = [st.row for st in res.classes]
    if H is None:  # R(G)'s row g is the translation by g
        labels = [G.name_of(g) for g in reps]
    else:
        labels = _rep_labels(G, res.acting.rows[reps])
    rows = [
        (label, st.class_size, st.order, st.l_value, st.branch, st.alpha_exponent, phi)
        for label, st, phi in zip(labels, res.classes, res.phi_values)
    ]
    R.table("class", ["class", "size", "order", "l", "branch", "alpha", "phi"], _columns(rows, 7))
    R.blank()
    _count_fields(R, "total", res.count)
    return R


def cmd_census_oracle(args) -> Report:
    from .cayley import build_flag_space
    from .fileio import save_map
    from .oracle import acting_group, burnside_count, enumerate_embeddings

    G, S = _load_pair(args.source)
    F = build_flag_space(G, S)
    semantics, cap = _oracle_options(args)
    gs = enumerate_embeddings(F, semantics, args.surface, cap)
    acting = acting_group(G, S, args.acting)
    oc = burnside_count(acting, gs)
    R = Report(args.kv)
    R.field("surface", args.surface)
    R.field("semantics", semantics)
    R.field("ground-set", len(gs.keys))
    R.field("acting-size", oc.acting_size)
    R.table("fixed", ["element", "fixed"], [_rep_labels(G, acting.rows), oc.fixed_counts])
    dump = None if args.dump is None else Path(args.dump)
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
        width = len(str(max(oc.orbit_count - 1, 0)))
    # one pass feeds the table and the dump: every iteration of oc.orbits
    # decodes the representatives anew; only the dump needs their maps
    listed = oc.orbits if dump is not None else ((None, inv) for inv in oc.orbit_inventories)
    orows = []
    for i, (size, (M, inv)) in enumerate(zip(oc.orbit_sizes, listed)):
        if dump is not None:
            save_map(M, str(dump / f"rep_{i:0{width}d}.map"))
        orows.append((i, size, inv.vertex_count, inv.edge_count, inv.face_count,
                      inv.euler_characteristic, _b(inv.orientable),
                      ",".join(str(x) for x in inv.face_lengths)))
    R.table(
        "orbit",
        ["orbit", "size", "vertices", "edges", "faces", "chi", "orientable", "face-lengths"],
        _columns(orows, 8),
    )
    R.blank()
    R.field("orbit-count", oc.orbit_count)
    if dump is not None:
        R.field("dump-dir", args.dump)
        R.field("dump-count", oc.orbit_count)
    return R


def cmd_verify(args) -> Report:
    from .fileio import load_automorphisms
    from .oracle import compare_with_formula

    G, S = _load_pair(args.source)
    H = None
    if args.h_file is not None:
        H = load_automorphisms(args.h_file, vertex_count=G.order)
    rep = compare_with_formula(G, S, H, args.surface, *_oracle_options(args))
    R = Report(args.kv)
    R.field("surface", rep.surface)
    R.field("semantics", rep.semantics)
    acting = rep.census_result.acting
    reps = [line.stats.row for line in rep.lines]
    if H is None:  # R(G)'s row g is the translation by g
        labels = [G.name_of(g) for g in reps]
    else:
        labels = _rep_labels(G, acting.rows[reps])
    rows = [
        (label, line.stats.class_size, line.stats.order, line.stats.l_value, line.stats.branch,
         line.formula_phi, line.oracle_fixed, _fmt_ratio(line.ratio))
        for label, line in zip(labels, rep.lines)
    ]
    R.table(
        "class",
        ["class", "size", "order", "l", "branch", "formula", "oracle", "ratio"],
        _columns(rows, 8),
    )
    R.blank()
    R.field("formula-total", decimal_string(rep.formula_total))
    R.field("oracle-orbits", rep.oracle_orbits)
    R.field("total-ratio", _fmt_ratio(rep.total_ratio))
    return R


def cmd_sym_grr(args) -> Report:
    from .cycletypes import cycle_type_label
    from .special import sym_locally_census, sym_orientable_census

    if args.surface == "O":
        res = sym_orientable_census(args.n, args.mode)
    else:
        res = sym_locally_census(args.n, args.mode)
    R = Report(args.kv)
    R.field("n", res.n)
    R.field("surface", res.surface)
    if res.special_type is not None:
        R.field("special-involution-type", cycle_type_label(res.special_type))
    rows, labels = res.rows, res.rows.labels
    l_index = np.zeros(len(rows), dtype=np.uint8)
    l_index[list(rows.l_printed)] = np.arange(1, len(rows.l_printed) + 1)
    R.table(
        "class",
        ["partition", "size", "order", "bucket", "l", "alpha", "exponent"],
        [
            Joined([Indexed(labels.memo, labels.memo_row), Indexed(labels.prefix, labels.prefix_id)],
                   labels.length),
            Indexed(rows.sizes, rows.size_id),
            Indexed(rows.orders, rows.term_id),
            Indexed(["B" if b else "A" for b in rows.buckets], rows.term_id),
            Indexed([0, *rows.l_printed.values()], l_index),
            Indexed(rows.alphas or ["-"] * len(rows.exponents), rows.term_id),
            Indexed(rows.exponents, rows.term_id),
        ],
    )
    if res.l_table:
        R.table(
            "l-table",
            ["partition", "printed", "recomputed"],
            _columns([(cycle_type_label(r.partition), r.printed, r.recomputed)
                      for r in res.l_table], 3),
        )
    R.blank()
    _count_fields(R, "total", res.total)
    if res.label is not None:
        R.field("label", res.label)
    return R


def cmd_three_inv(args) -> Report:
    from .special import three_involution_census, three_involution_comparison

    G, S = _load_pair(args.source)
    res = three_involution_census(G, S.members, args.surface, args.mode)
    R = Report(args.kv)
    R.field("group-order", res.group_order)
    R.field("surface", res.surface)
    R.field("hypothesis-ok", _b(res.hypothesis_ok))
    if res.violations:
        R.table(
            "violation",
            ["t", "x"],
            _columns([(G.name_of(t), G.name_of(x)) for t, x in res.violations], 2),
        )
    rows = [
        (G.name_of(r.representative), r.class_size, r.order, _b(r.even_order),
         r.base_exponent, r.alpha_exponent)
        for r in res.rows
    ]
    R.table(
        "class",
        ["class", "size", "order", "even", "base", "alpha"],
        _columns(rows, 6),
    )
    if args.compare:
        comparison = three_involution_comparison(G, S.members, args.surface)
        crows = [  # R(G)'s row g is the translation by g
            (G.name_of(st.row), assumed_l, st.l_value, assumed_alpha, st.alpha_exponent,
             phi_true, _b(match))
            for st, assumed_l, assumed_alpha, phi_true, match in comparison
        ]
        R.table(
            "compare",
            ["class", "assumed-l", "true-l", "assumed-alpha", "true-alpha", "phi", "match"],
            _columns(crows, 7),
        )
    R.blank()
    _count_fields(R, "total", res.total)
    return R


def cmd_elem2(args) -> Report:
    from .fileio import load_cayset_members
    from .special import elementary_abelian_census

    members = load_cayset_members(args.cayset_file)
    res = elementary_abelian_census(args.n, members, args.surface, args.mode)
    R = Report(args.kv)
    R.field("n", res.n)
    R.field("k", res.k)
    R.field("surface", res.surface)
    R.field("grr-valid", _b(res.grr_valid))
    _count_fields(R, "total", res.total)
    if res.label is not None:
        R.field("label", res.label)
    return R


def cmd_fixtures(args) -> Report:
    from .fixtures import FIXTURE_DESCRIPTIONS, FIXTURE_NAMES, fixture, run_fixture_checks

    R = Report(args.kv)
    if args.action == "list":
        R.table(
            "fixture",
            ["name", "description"],
            _columns([(name, FIXTURE_DESCRIPTIONS[name]) for name in FIXTURE_NAMES], 2),
        )
        return R
    names = [args.name] if args.name else list(FIXTURE_NAMES)
    for name in names:
        fixture(name)  # fail early on unknown names
    failures = []
    for name in names:
        for label, ok, detail in run_fixture_checks(name):
            R.field(f"{name}.{label}", "ok" if ok else f"FAIL ({detail})")
            if not ok:
                failures.append(f"{name}.{label}: {detail}")
    if failures:
        raise InternalInconsistency(
            "".join(R.chunks()) + f"{len(failures)} fixture check(s) failed"
        )
    R.field("checks", "all passed")
    return R


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors print help and exit 64 instead of argparse's default 2."""

    def error(self, message):
        self.print_help(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        print("error-token: Usage", file=sys.stderr)
        raise SystemExit(64)


def _pair_argument(sub) -> None:
    sub.add_argument(
        "source",
        nargs="+",
        metavar="SOURCE",
        help="group file and cayset file, or one fixtures:NAME",
    )


def build_parser() -> _Parser:
    """The argument parser.  Options whose defaults are library constants
    (``--aut-cap``, ``--semantics``, ``--cap``) default to None here and are
    filled in by the command that runs, so building the parser loads no
    library module."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kv", action="store_true", help="line-oriented key=value output")

    parser = _Parser(prog="cayleymaps", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = subs.add_parser("group", parents=[common], help="validate a group file")
    p.add_argument("action", choices=("check",))
    p.add_argument("group_file")
    p.set_defaults(func=cmd_group)

    p = subs.add_parser("cayley", parents=[common], help="connection set and graph checks")
    p.add_argument("action", choices=("check",))
    _pair_argument(p)
    p.add_argument("--aut-cap", type=int)
    p.set_defaults(func=cmd_cayley)

    p = subs.add_parser("map", parents=[common], help="validate a map file")
    p.add_argument("action", choices=("check",))
    p.add_argument("map_file")
    p.add_argument("--group", dest="group_file")
    p.add_argument("--cayset", dest="cayset_file")
    p.set_defaults(func=cmd_map)

    p = subs.add_parser("census", parents=[common], help="count embedding classes")
    csubs = p.add_subparsers(dest="path", metavar="PATH")

    pf = csubs.add_parser("formula", parents=[common], help="class-sum formulas")
    _pair_argument(pf)
    pf.add_argument("--h-file", dest="h_file")
    pf.add_argument("--surface", choices=("O", "N", "L"), default="O")
    pf.add_argument("--mode", default="exact")
    pf.set_defaults(func=cmd_census_formula)

    po = csubs.add_parser("oracle", parents=[common], help="exhaustive enumeration")
    _pair_argument(po)
    po.add_argument("--surface", choices=("O", "N", "L"), default="O")
    po.add_argument("--semantics", choices=("raw", "sigma", "dart"))
    po.add_argument("--acting", choices=("rg", "rgxh", "full"), default="rgxh")
    po.add_argument("--cap", type=int)
    po.add_argument("--dump", metavar="DIR")
    po.set_defaults(func=cmd_census_oracle)

    p = subs.add_parser("verify", parents=[common], help="formula vs oracle, with ratios")
    _pair_argument(p)
    p.add_argument("--h-file", dest="h_file")
    p.add_argument("--surface", choices=("O", "N", "L"), default="O")
    p.add_argument("--semantics", choices=("raw", "sigma", "dart"))
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sym-grr", parents=[common], help="symmetric-group cubic censuses")
    p.add_argument("n", type=int)
    p.add_argument("--surface", choices=("O", "L"), default="L")
    p.add_argument("--mode", default="exact")
    p.set_defaults(func=cmd_sym_grr)

    p = subs.add_parser(
        "three-inv", parents=[common], help="three-involution-generated censuses"
    )
    _pair_argument(p)
    p.add_argument("--surface", choices=("O", "N", "L"), default="L")
    p.add_argument("--mode", default="exact")
    p.add_argument("--compare", action="store_true", help="check the assumed l per class")
    p.set_defaults(func=cmd_three_inv)

    p = subs.add_parser(
        "elem2", parents=[common], help="elementary abelian 2-group censuses"
    )
    p.add_argument("n", type=int)
    p.add_argument("cayset_file")
    p.add_argument("--surface", choices=("O", "N", "L"), default="L")
    p.add_argument("--mode", default="exact")
    p.set_defaults(func=cmd_elem2)

    p = subs.add_parser("fixtures", parents=[common], help="named instances and self-checks")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_fixtures)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of this process, built on first use: building the tree
    costs milliseconds, and parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    # a refused sum's message prints the binary sum with str, at any size;
    # the default int-to-str guard (4300 digits) would refuse to print it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4_000_000)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        print("error-token: Usage", file=sys.stderr)
        return 64
    try:
        report = args.func(args)
    except CayleymapsError as e:
        msg = str(e)
        body = ([msg] if msg else []) + [f"error-token: {e.token}"]
        _write_stdout(["\n".join(body) + "\n"])
        return e.exit_code
    _write_stdout(report.chunks())
    return 0


def _write_stdout(chunks) -> None:
    """Writes the chunks to stdout and flushes it.  A reader that closes the
    pipe early (``| head``) ends the output quietly: stdout is pointed at the
    null device, so the flush at exit has nothing left to fail on."""
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
