"""The byte-level number reader of ``fileio`` against the per-token reader
it replaced.

``ref_*`` below is the file reading as it was before the byte reader: the
whole file decoded and split into ``str`` tokens, each converted as
``int()`` converts it.  Every file drawn here, spelled with any mix of
ASCII and Unicode spaces, signs, underscores, leading zeros, long tokens,
non-ASCII digits, a byte-order mark or bad tokens, must load to the same
value or fail with the same exception type and message.
"""

import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cayleymaps import fileio, fixture, named_group
from cayleymaps.cayley import generic_flag_space
from cayleymaps.errors import BadParameter
from cayleymaps.groups import build_group_from_table, check_order_cap
from cayleymaps.maps import validate_map


# ---------------------------------------------------------------------------
# Reference: one str per token
# ---------------------------------------------------------------------------

def ref_tokens_of(path):
    return Path(path).read_text().split()


def ref_ints(path, toks):
    try:
        return np.array(toks, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    out = []
    try:
        for t in toks:
            out.append(int(t))
    except ValueError:
        raise BadParameter(f"{path}: {t!r} is not an integer") from None
    return np.array(out, dtype=object)


def ref_load_group(path):
    toks = ref_tokens_of(path)
    if len(toks) < 2 or toks[0] != "group":
        raise BadParameter(f"{path}: expected leading 'group <order>'")
    (n,) = ref_ints(path, toks[1:2]).tolist()
    if n < 0:
        raise BadParameter(f"{path}: group order {toks[1]!r} is negative")
    check_order_cap(n)  # the one intended change: the cap is checked before the table
    need = 2 + n * n
    if len(toks) < need:
        raise BadParameter(f"{path}: table needs {n * n} entries")
    table = ref_ints(path, toks[2:need]).reshape(n, n)
    names = None
    rest = toks[need:]
    if rest:
        if rest[0] != "names" or len(rest) != 1 + n:
            raise BadParameter(f"{path}: trailing content is not a names line")
        names = tuple(rest[1:])
    return build_group_from_table(table, names=names)


def ref_load_cayset_members(path):
    toks = ref_tokens_of(path)
    if len(toks) < 2 or toks[0] != "cayset":
        raise BadParameter(f"{path}: expected leading 'cayset <k>'")
    (k,) = ref_ints(path, toks[1:2]).tolist()
    if len(toks) != 2 + k:
        raise BadParameter(f"{path}: expected exactly {k} element indices")
    return tuple(ref_ints(path, toks[2:]).tolist())


def ref_load_map(path):
    toks = ref_tokens_of(path)
    if len(toks) < 2 or toks[0] != "map":
        raise BadParameter(f"{path}: expected leading 'map <flag_count>'")
    (n,) = ref_ints(path, toks[1:2]).tolist()
    body = ref_ints(path, toks[2:]).tolist()
    if len(body) == n:
        raise BadParameter(
            f"{path}: plain map file needs a group and connection set for its flag space"
        )
    if len(body) == 3 * n:
        F = generic_flag_space(body[n : 2 * n], body[2 * n :])
        return validate_map(F, body[:n])
    raise BadParameter(
        f"{path}: expected {n} images (plus optionally alpha and beta lines)"
    )


def ref_load_automorphisms(path, vertex_count=None):
    out = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        vm = tuple(ref_ints(f"{path}:{ln}", line.split()).tolist())
        if vertex_count is not None and len(vm) != vertex_count:
            raise BadParameter(f"{path}:{ln}: expected {vertex_count} vertex images")
        if sorted(vm) != list(range(len(vm))):
            raise BadParameter(f"{path}:{ln}: not a permutation")
        out.append(vm)
    if not out:
        raise BadParameter(f"{path}: no automorphisms found")
    return out


def outcome(load, path):
    """What loading gives: a comparable value, or the exception's type and text."""
    try:
        got = load(path)
    except Exception as e:  # noqa: BLE001 -- the exception is the outcome
        return type(e).__name__, str(e)
    if hasattr(got, "table"):
        return got.table.tolist(), got.names
    if hasattr(got, "P"):
        return got.P, got.flag_space.alpha, got.flag_space.beta
    return got


# ---------------------------------------------------------------------------
# Spellings
# ---------------------------------------------------------------------------

# the ASCII whitespace of str.split(), the CRLF pair, and three Unicode spaces
ASCII_SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r\n"]
SPACES = ASCII_SPACES + ["\xa0", "\u2003", "\x85"]
BOM = "\ufeff"
BAD = ["x", "1.0", "0x1", "1_", "--1", "names", BOM]
HUGE = ["9" * 18, "1" + "0" * 18, "9" * 19, "9" * 23, "-" + "9" * 23]


def ascii_spellings(v):
    """ASCII-digit spellings of v >= 0, 1 to 23 digits long."""
    s = str(v)
    return [s, "0" + s, s.rjust(18, "0"), s.rjust(19, "0"), s.rjust(23, "0")]


def spellings(v):
    """Spellings that int() reads as v (signed, with underscores, in
    Arabic-Indic or fullwidth digits), and one after a BOM, which it refuses."""
    s = str(abs(v))
    sign = "-" if v < 0 else ""
    return [sign + t for t in ascii_spellings(abs(v))] + [
        ("-" if v < 0 else "+") + s,
        sign + ("_".join(s) if len(s) > 1 else "0_" + s),
        sign + "".join(chr(0x0660 + int(d)) for d in s),
        sign + "".join(chr(0xFF10 + int(d)) for d in s),
        BOM + sign + s,
    ]


@st.composite
def texts(draw, values, keyword=None):
    """A file holding ``keyword`` (if any) then ``values``, each spelled
    and separated by a drawn choice; sometimes a token is dropped, added or
    replaced by a bad or huge one, and sometimes the file starts with a BOM."""
    plain = draw(st.booleans())
    toks = [draw(st.sampled_from(ascii_spellings(v) if plain and v >= 0 else spellings(v)))
            for v in values]
    edit = draw(st.sampled_from(["none", "none", "drop", "add", "bad", "huge"]))
    if toks and edit in ("drop", "bad", "huge"):
        i = draw(st.integers(0, len(toks) - 1))
        if edit == "drop":
            del toks[i]
        else:
            toks[i] = draw(st.sampled_from(BAD if edit == "bad" else HUGE))
    elif edit == "add":
        toks.append(draw(st.sampled_from(["0", "7", "x"])))
    if keyword:
        toks.insert(0, keyword)
    seps = ASCII_SPACES if plain else SPACES
    out = draw(st.sampled_from([""] if plain else ["", "", BOM]))
    out += draw(st.sampled_from(["", " ", "\n"]))
    for t in toks:
        out += t + draw(st.sampled_from(seps))
    return out


def write(tmp_path, text):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode())
    return str(path)


@st.composite
def group_texts(draw):
    n = draw(st.integers(1, 5))
    table = named_group(draw(st.sampled_from(["cyclic", "dihedral"])), 2 * ((n + 1) // 2)).table
    if draw(st.booleans()):
        table = table[:n, :n]  # not a group: the validator's refusal must match
    n = table.shape[0]
    values = [n, *table.ravel().tolist()]
    text = draw(texts(values, "group"))
    if draw(st.booleans()):
        names = [f"e{i}" for i in range(n + draw(st.sampled_from([0, 0, 1])))]
        text += draw(st.sampled_from(["\n", " "])) + " ".join(["names", *names]) + "\n"
    return text


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.lists(st.integers(0, 999), max_size=12).flatmap(texts))
def test_reader_converts_what_int_converts(values_text):
    data = values_text.encode()
    assume(data.isascii())  # only ASCII bodies reach the byte reader
    toks = fileio._tokens(data)
    try:
        got = fileio._ints("f", toks[:]).tolist()
    except BadParameter as e:
        got = str(e)
    try:
        want = ref_ints("f", values_text.split()).tolist()
    except BadParameter as e:
        want = str(e)
    assert got == want


@SETTINGS
@given(text=group_texts())
def test_load_group_matches_the_token_reader(tmp_path, text):
    path = write(tmp_path, text)
    assert outcome(fileio.load_group, path) == outcome(ref_load_group, path)


@SETTINGS
@given(values=st.lists(st.integers(-2, 12), max_size=6), data=st.data())
def test_load_cayset_members_matches_the_token_reader(tmp_path, values, data):
    text = data.draw(texts([len(values), *values], "cayset"))
    path = write(tmp_path, text)
    assert outcome(fileio.load_cayset_members, path) == outcome(ref_load_cayset_members, path)


@SETTINGS
@given(data=st.data())
def test_load_map_matches_the_token_reader(tmp_path, data):
    M = fixture("FIG1").map
    F = M.flag_space
    values = [F.flag_count, *M.P, *F.alpha, *F.beta]
    path = write(tmp_path, data.draw(texts(values, "map")))
    assert outcome(fileio.load_map, path) == outcome(ref_load_map, path)


LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\n\n"]
INLINE = [" ", "\t", "\x1f", " \t ", "\xa0", "\u2003"]


@SETTINGS
@given(perms=st.lists(st.permutations(range(4)), min_size=1, max_size=4), data=st.data())
def test_load_automorphisms_matches_the_token_reader(tmp_path, perms, data):
    lines = [data.draw(texts(list(p))) for p in perms]
    text = ""
    for line in lines:
        line = line.translate({ord(c): ord(" ") for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85"})
        text += line.replace(" ", data.draw(st.sampled_from(INLINE)))
        text += data.draw(st.sampled_from(LINE_BREAKS))
    path = write(tmp_path, text)
    count = data.draw(st.sampled_from([None, 4, 3]))
    assert outcome(lambda p: fileio.load_automorphisms(p, count), path) == \
        outcome(lambda p: ref_load_automorphisms(p, count), path)


def test_group_table_loads_without_a_string_per_entry(tmp_path):
    # an order-300 table as one str per token would hold 90,000 strings
    # (about 5 MB); the byte reader's peak stays within 4x the int64 table
    G = named_group("cyclic", 300)
    path = tmp_path / "z300.group"
    fileio.save_group(G, str(path))
    limit = 4 * 300 * 300 * 8
    tracemalloc.start()
    try:
        H = fileio.load_group(str(path))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ref_load_group(str(path))
        _, ref_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(H.table, G.table) and H.names == G.names
    assert peak < limit < ref_peak
