"""The report writer: an ``Indexed`` column renders byte for byte as its
expansion into plain cells, and both as the per-row ``str.format`` writer
that it replaced, plain and ``--kv``."""

from fractions import Fraction
from itertools import islice

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleymaps.cli import Indexed, Report


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
    return [col.values[i] for i in col.index.tolist()] if isinstance(col, Indexed) else col


# cells of every kind a report prints: ints, strings (empty, with trailing
# or inner spaces) and fractions
cells = st.one_of(
    st.integers(-10**30, 10**30),
    st.text(alphabet=" ab-^", max_size=7),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
)
headers = st.text(alphabet="abc-", max_size=14)


@st.composite
def tables(draw):
    nrows = draw(st.integers(0, 11))
    heads, cols = [], []
    for _ in range(draw(st.integers(1, 5))):
        heads.append(draw(headers))
        kind = draw(st.sampled_from(["plain", "ints", "indexed"]))
        if kind != "indexed":
            some = cells if kind == "plain" else st.integers(-10**30, 10**30)
            cols.append(draw(st.lists(some, min_size=nrows, max_size=nrows)))
            continue
        values = draw(st.lists(cells, min_size=1, max_size=5))
        # the index uses a prefix of the values; the rest, the widest one
        # among them, must not widen the column
        used = draw(st.integers(1, len(values)))
        dtype = draw(st.sampled_from([np.uint8, np.intp]))
        index = np.array(draw(st.lists(st.integers(0, used - 1), min_size=nrows, max_size=nrows)),
                         dtype=dtype)
        cols.append(Indexed(values + ["w" * 40], index))
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
