"""The report writer: ``Indexed`` and ``Joined`` columns render byte for
byte as their expansion into plain cells, and every table as the per-row
``str.format`` writer that the pieces renderer replaced, plain and
``--kv``."""

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleymaps import cli
from cayleymaps.cli import Indexed, Joined, Report


def reference_table(name, headers, cols, kv, after_text, rows_per_chunk):
    """The writer as it was before indexed columns: every cell formatted by
    ``str.format``, widths from a second ``str`` of every cell."""
    nrows = len(cols[0]) if cols else 0
    out = []
    if kv:
        fmt = "\n".join(f"{name}.{{0}}.{h}={{{j}!s}}" for j, h in enumerate(headers, 1))
        rows = (fmt.format(i, *row) for i, row in enumerate(zip(*cols)))
    else:
        widths = [max(len(h), max(map(len, map(str, c)), default=0)) for h, c in zip(headers, cols)]
        fmt = "  ".join([f"{{!s:<{w}}}" for w in widths[:-1]] + ["{!s}"])
        if after_text:
            out.append("\n")
        out.append(fmt.format(*headers).rstrip() + "\n")
        rows = (fmt.format(*row).rstrip() for row in zip(*cols))
    for _ in range(0, nrows, rows_per_chunk):
        out.append("\n".join(islice(rows, rows_per_chunk)) + "\n")
    return out


def render(kv, name, headers, cols, rows_per_chunk=512, field=False):
    R = Report(kv)
    R.ROWS_PER_CHUNK = rows_per_chunk
    if field:
        R.field("n", 1)
    R.table(name, headers, cols)
    chunks = list(R.chunks())
    assert all(c.endswith("\n") for c in chunks)
    return chunks[1:] if field else chunks


def expand(col):
    if isinstance(col, Joined):
        return ["".join(map(str, cells)) for cells in zip(*map(expand, col.parts))]
    return [col.values[i] for i in col.index.tolist()] if isinstance(col, Indexed) else col


# cells of every kind a report prints: ints, strings (empty, with trailing
# or inner spaces) and fractions
cells = st.one_of(
    st.integers(-10**30, 10**30),
    st.text(alphabet=" ab-^", max_size=7),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
)
headers = st.text(alphabet="abc-", max_size=14)


labels = st.text(alphabet=" 12^", max_size=6)


def draw_index(draw, nrows, used):
    dtype = draw(st.sampled_from([np.uint8, np.intp]))
    return np.array(draw(st.lists(st.integers(0, used - 1), min_size=nrows, max_size=nrows)),
                    dtype=dtype)


def draw_indexed(draw, nrows, index=None):
    values = draw(st.lists(cells, min_size=1, max_size=5))
    # the index uses a prefix of the values; the rest, the widest one
    # among them, must not widen the column
    if index is None:
        index = draw_index(draw, nrows, draw(st.integers(1, len(values))))
    else:
        missing = max(0, int(index.max(initial=0)) + 1 - len(values))
        values += draw(st.lists(cells, min_size=missing, max_size=missing))
    return Indexed(values + ["w" * 40], index)


def draw_joined(draw, nrows):
    """A column laid out as the cycle-type labels are: a memo label and a
    prefix, each from its own table of strings."""
    memo = draw(st.lists(labels, min_size=1, max_size=6))
    prefix = draw(st.lists(labels, min_size=1, max_size=6))
    memo_row = draw_index(draw, nrows, len(memo))
    prefix_id = draw_index(draw, nrows, len(prefix))
    length = np.array([len(memo[a]) + len(prefix[b])
                       for a, b in zip(memo_row.tolist(), prefix_id.tolist())], dtype=np.uint8)
    parts = [Indexed(np.array(memo, dtype=object), memo_row),
             Indexed(np.array(prefix, dtype=object), prefix_id)]
    return Joined(parts, length)


@st.composite
def tables(draw):
    nrows = draw(st.integers(0, 11))
    heads, cols = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["plain", "ints", "indexed", "merged", "joined"]))
        if kind in ("plain", "ints"):
            some = cells if kind == "plain" else st.integers(-10**30, 10**30)
            new = [draw(st.lists(some, min_size=nrows, max_size=nrows))]
        elif kind == "indexed":
            new = [draw_indexed(draw, nrows)]
        elif kind == "merged":  # columns over one index array become one piece
            first = draw_indexed(draw, nrows)
            new = [first, draw_indexed(draw, nrows, first.index)]
        else:
            new = [draw_joined(draw, nrows)]
        heads += [draw(headers) for _ in new]
        cols += new
    return heads, cols


@settings(deadline=None)
@given(tables(), st.booleans(), st.sampled_from([1, 2, 3, 512]), st.booleans())
@example((["a", "b"], [Indexed([], np.zeros(0, np.uint8)), []]), False, 2, True)  # no rows
def test_indexed_columns_render_as_their_expansion(table, kv, rows_per_chunk, after_text):
    heads, cols = table
    plain = [expand(c) for c in cols]
    got = render(kv, "t", heads, cols, rows_per_chunk, field=after_text)
    assert "".join(got) == "".join(render(kv, "t", heads, plain, rows_per_chunk, field=after_text))
    assert got == reference_table("t", heads, plain, kv, after_text, rows_per_chunk)


def sym_table(nrows, rng):
    """A table shaped like the sym-grr class table: a label of memo, prefix
    and pad pieces, indexed columns two of which share an index array, an
    int column, and a last column with empty cells and cells that end in
    spaces."""
    memo = np.array(["", "1 ", "1^2 ", "2 ", "1 2^3 "], dtype=object)
    prefix = np.array(["3", "4^2", "17", ""], dtype=object)
    memo_row = rng.integers(0, len(memo), nrows).astype(np.uint8)
    prefix_id = rng.integers(0, len(prefix), nrows).astype(np.uint16)
    length = np.array([len(memo[a]) + len(prefix[b]) for a, b in zip(memo_row, prefix_id)],
                      dtype=np.uint8)
    term = rng.integers(0, 3, nrows).astype(np.uint8)
    heads = ["partition", "size", "order", "bucket", "n", "last"]
    cols = [
        Joined([Indexed(memo, memo_row), Indexed(prefix, prefix_id)], length),
        Indexed([10**40, 7, 123], rng.integers(0, 3, nrows).astype(np.intp)),
        Indexed([2, 12, 60], term),
        Indexed(["A", "B", "A"], term),
        rng.integers(-10**6, 10**6, nrows).tolist(),
        [["", "x ", "  ", "y", "- "][k] for k in rng.integers(0, 5, nrows).tolist()],
    ]
    return heads, cols


@pytest.mark.parametrize("kv", [False, True])
@pytest.mark.parametrize("nrows", [0, 1, 511, 512, 513, 1100])
def test_chunks_split_at_rows_per_chunk(nrows, kv):
    assert Report.ROWS_PER_CHUNK == 512
    heads, cols = sym_table(nrows, np.random.default_rng(nrows))
    plain = [expand(c) for c in cols]
    got = render(kv, "class", heads, cols, field=True)
    assert got == reference_table("class", heads, plain, kv, True, 512)
    assert len(got) == (nrows + 511) // 512 + (0 if kv else 2)


@pytest.mark.parametrize("last", [["", "x"], ["", ""], ["a ", " "], ["  ", "b  "]])
def test_a_row_is_stripped_as_a_whole(last):
    # a blank last cell strips the padding and trailing spaces before it,
    # whether the last column is plain, indexed, merged or joined
    index = np.array([0, 1], dtype=np.uint8)
    firsts = ["p ", "q"]
    tables = [
        [firsts, last],
        [Indexed(firsts, index), Indexed(last, index)],
        [Indexed(firsts, index), Indexed(last, index.copy())],
        [Indexed(firsts, index), Joined([Indexed(last, index), Indexed(["", ""], index)],
                                        np.array([len(c) for c in last], dtype=np.uint8))],
    ]
    for cols in tables:
        plain = [expand(c) for c in cols]
        for kv in (False, True):
            got = render(kv, "t", ["a", "b"], cols)
            assert got == reference_table("t", ["a", "b"], plain, kv, False, 512)


def reference_report(R):
    """A report's text from the reference writer, fed every table column
    expanded into plain cells."""
    sep = "=" if R.kv else ": "
    out = []
    for i, item in enumerate(R.items):
        if item[0] == "field":
            out.append(f"{item[1]}{sep}{item[2]}\n")
        elif item[0] == "blank":
            out.append("\n")
        else:
            name, heads, cols = item[1:]
            out += reference_table(name, heads, [expand(c) for c in cols], R.kv, i > 0, 512)
    return out


SYM_CASES = [(n, "O") for n in range(1, 13)] + [(7, "L"), (13, "L")]


@pytest.mark.parametrize("kv", [False, True])
@pytest.mark.parametrize("n,surface", SYM_CASES)
def test_sym_grr_renders_as_the_reference_writer(n, surface, kv):
    argv = ["sym-grr", str(n), "--surface", surface, "--mode", "log2"]
    R = cli.cmd_sym_grr(cli.build_parser().parse_args(argv + (["--kv"] if kv else [])))
    assert isinstance(R.items[3 if surface == "L" else 2][3][0], Joined)  # the labels
    assert list(R.chunks()) == reference_report(R)


def test_unused_values_do_not_widen_an_indexed_column():
    col = Indexed(["x", "much-too-wide"], np.array([0, 0], dtype=np.uint8))
    assert "".join(render(False, "t", ["a", "b"], [col, [1, 2]])) == "a  b\nx  1\nx  2\n"


def test_an_int_column_is_as_wide_as_its_widest_decimal():
    # the least entry is the widest here; a bool is not an int column
    text = "".join(render(False, "t", ["a", "b", "c"], [[5, -1000, 99], [True, -5, 100], [0, 1, 2]]))
    assert text == "a      b     c\n5      True  0\n-1000  -5    1\n99     100   2\n"


def test_a_header_wider_than_every_cell_sets_the_width():
    col = Indexed([Fraction(1, 2), 7], np.array([1, 0]))
    text = "".join(render(False, "t", ["wide-header", "z"], [col, ["p ", ""]]))
    assert text == "wide-header  z\n7            p\n1/2\n"
    kv = "".join(render(True, "t", ["wide-header", "z"], [col, ["p ", ""]]))
    assert kv == "t.0.wide-header=7\nt.0.z=p \nt.1.wide-header=1/2\nt.1.z=\n"


def test_an_empty_table_prints_only_its_header():
    cols = [Indexed([10**9], np.zeros(0, np.uint8)), []]
    assert render(False, "t", ["size", "label"], cols) == ["size  label\n"]
    assert render(True, "t", ["size", "label"], cols) == []


def test_rendering_leaves_the_columns_as_they_were():
    # the distinct values are padded in place, on the writer's own strings
    labels, sizes = ["1^2", "2"], ["5", "60"]
    R = Report(False)
    R.table("t", ["partition", "size", "n"],
            [labels, Indexed(sizes, np.array([1, 0])), Indexed([3], np.zeros(2, np.uint8))])
    assert "".join(R.chunks()) == "partition  size  n\n1^2        60    3\n2          5     3\n"
    assert (labels, sizes) == (["1^2", "2"], ["5", "60"])
