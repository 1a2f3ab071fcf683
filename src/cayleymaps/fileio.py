"""Plain-text readers and writers for every on-disk object.

All formats are single-space separated with one trailing newline, so a
saved file is byte-identical across runs.  Anywhere a path is expected,
a ``fixtures:NAME`` token resolves to the named registry instance
instead of touching the filesystem.

Files are read as whitespace-separated tokens, each number as ``int()``
reads it.  An ASCII file is read as bytes: its header (``group <order>``,
``cayset <k>``, ``map <n>``) is split off in Python, and when every other
token is ASCII digits the body becomes one int64 array, converted by
numpy (``_digit_ints``) with no Python string per entry.  Any other body
(signs, ``_``, non-ASCII digits or spaces, a bad token, a value of 10^18
or more) and any non-ASCII file takes the per-token path (``_ints``), so
every spelling and every refusal is the same on both.  A group table
reaches the validator as that array, reshaped.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .cayley import CayleySet, FlagSpace, generic_flag_space, validate_cayley_set
from .errors import BadParameter
from .groups import FiniteGroup, build_group_from_table, check_order_cap

if TYPE_CHECKING:
    from .fixtures import Fixture
    from .maps import MapPermutation

FIXTURE_PREFIX = "fixtures:"

# The ASCII characters ``str.split()`` treats as whitespace; numpy's text
# reader skips all but the last four, which are mapped to spaces first.
_SPACES = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_TO_SPACE = bytes.maketrans(_SPACES[6:], b"    ")
_DIGITS_AND_SPACES = b"0123456789" + _SPACES[:6]
# digit bytes are compared a block at a time: a mask of a whole order-5040
# table would take another 121 MB
_BLOCK = 1 << 22
# every integer below this has at most 18 digits and fits int64
_DIGIT_LIMIT = 10**18
# the first two tokens of an ASCII file; the second ends at a space or the end
_HEAD = re.compile(rb"[%s]*([^%s]+)[%s]+([^%s]+)" % ((re.escape(_SPACES),) * 4))
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e]")  # str.splitlines on ASCII


def resolve_fixture(token: str) -> Fixture | None:
    if isinstance(token, str) and token.startswith(FIXTURE_PREFIX):
        from .fixtures import fixture

        return fixture(token[len(FIXTURE_PREFIX):])
    return None


def _digit_ints(body: bytes) -> np.ndarray | None:
    """The tokens of an ASCII ``body`` as one int64 array, when every token
    is ASCII digits with a value below 10^18; otherwise None.

    Every byte is classified through one 256-entry table (``bytes.translate``
    deleting digits and spaces leaves the rest), and the tokens are counted
    as the digits that follow a space.  Only then is ``np.fromstring``
    called, on bytes holding nothing but digits and the spaces it skips,
    and its array is kept only if it has one entry per counted token.  Its
    integer parse (``strtoll``) saturates, so a value too large for int64
    reads as the int64 maximum and fails the 10^18 bound too."""
    rest = body.translate(None, _DIGITS_AND_SPACES)
    if rest:
        if rest.translate(None, _SPACES):
            return None
        body = body.translate(_TO_SPACE)
    raw = np.frombuffer(body, dtype=np.uint8)
    tokens, in_token = 0, False
    for start in range(0, len(raw), _BLOCK):
        digit = raw[start:start + _BLOCK] > ord(" ")
        tokens += int(np.count_nonzero(digit[1:] > digit[:-1])) + (bool(digit[0]) and not in_token)
        in_token = bool(digit[-1])
    if not tokens:  # np.fromstring reads a blank string as [0]
        return np.zeros(0, dtype=np.int64)
    ints = np.fromstring(body, dtype=np.int64, sep=" ")
    if len(ints) != tokens or ints.max() >= _DIGIT_LIMIT:
        return None
    return ints


def _ints(path: str, toks) -> np.ndarray:
    """The tokens as one integer array, converted in a single pass.

    An array (tokens already read by ``_digit_ints``) is returned as it is.
    Otherwise each token is read as ``int()`` reads it, so the first that is
    not an integer is refused by name.  Integers beyond int64 are kept exact
    in an object array, for the caller to refuse as out of range."""
    if isinstance(toks, np.ndarray):
        return toks
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


class _Tokens:
    """The tokens after a file's header, in order: a run already converted
    to integers (``ints``), then the rest as text (``words``)."""

    def __init__(self, ints: np.ndarray, words: list[str]):
        self.ints, self.words = ints, words

    def __len__(self) -> int:
        return len(self.ints) + len(self.words)

    def __getitem__(self, part: slice):
        """The tokens in ``part``: an array while they are all converted
        ones, else their text."""
        start, stop, _ = part.indices(len(self))
        k = len(self.ints)
        if stop <= k:
            return self.ints[start:stop]
        return [str(v) for v in self.ints[start:k].tolist()] + self.words[max(start - k, 0):stop - k]


def _split_head(path: str) -> tuple[list[str], bytes | list[str]]:
    """The first two tokens of a file, and what follows them: the bytes,
    when the file is ASCII, else the tokens as text."""
    data = Path(path).read_bytes()
    if data.isascii():
        m = _HEAD.match(data)
        if m is not None:
            return [m[1].decode(), m[2].decode()], data[m.end():]
        toks = data.decode().split()
    else:  # read as text, so that decoding and its errors are read_text's
        toks = Path(path).read_text().split()
    return toks[:2], toks[2:]


def _tokens(body: bytes | list[str], tail: bytes | None = None) -> _Tokens:
    """The tokens of a body from ``_split_head``.  ASCII-digit bodies become
    one array; ``tail``, a keyword that starts a closing line of text (the
    ``names`` line), is split off first so that the digits before it do."""
    if isinstance(body, list):
        return _Tokens(np.zeros(0, dtype=np.int64), body)
    words: list[str] = []
    at = body.rfind(tail) if tail else -1
    if at > 0 and body[at - 1] in _SPACES and body[at + len(tail):at + len(tail) + 1] in _SPACES:
        body, words = body[:at], body[at:].decode().split()
    ints = _digit_ints(body)
    if ints is None:
        return _Tokens(np.zeros(0, dtype=np.int64), body.decode().split() + words)
    return _Tokens(ints, words)


def load_group(path: str) -> FiniteGroup:
    fx = resolve_fixture(path)
    if fx is not None:
        if fx.group is None:
            raise BadParameter(f"fixture {fx.name} has no group")
        return fx.group
    head, body = _split_head(path)
    if len(head) < 2 or head[0] != "group":
        raise BadParameter(f"{path}: expected leading 'group <order>'")
    (n,) = _ints(path, head[1:]).tolist()
    if n < 0:
        raise BadParameter(f"{path}: group order {head[1]!r} is negative")
    check_order_cap(n)  # before the body is read: an oversize table is refused unparsed
    toks = _tokens(body, tail=b"names")
    del body  # the file's bytes are not kept through validation
    need = n * n
    if len(toks) < need:
        raise BadParameter(f"{path}: table needs {n * n} entries")
    table = _ints(path, toks[:need]).reshape(n, n)
    names = None
    rest = toks[need:]
    if len(rest):
        if rest[0] != "names" or len(rest) != 1 + n:
            raise BadParameter(f"{path}: trailing content is not a names line")
        names = tuple(rest[1:])
    return build_group_from_table(table, names=names)


def save_group(G: FiniteGroup, path: str) -> None:
    lines = [f"group {G.order}"]
    lines += [" ".join(map(str, row)) for row in G.table.tolist()]
    # the format is whitespace-separated, so labels with spaces cannot ride along
    if G.names is not None and all(n and not any(c.isspace() for c in n) for n in G.names):
        lines.append("names " + " ".join(G.names))
    Path(path).write_text("\n".join(lines) + "\n")


def load_cayset_members(path: str) -> tuple[int, ...]:
    """Raw element indices, unvalidated (elem2 has no group table to check against)."""
    fx = resolve_fixture(path)
    if fx is not None:
        if fx.cayset is None:
            raise BadParameter(f"fixture {fx.name} has no connection set")
        return fx.cayset.members
    head, body = _split_head(path)
    if len(head) < 2 or head[0] != "cayset":
        raise BadParameter(f"{path}: expected leading 'cayset <k>'")
    (k,) = _ints(path, head[1:]).tolist()
    toks = _tokens(body)
    if len(toks) != k:
        raise BadParameter(f"{path}: expected exactly {k} element indices")
    return tuple(_ints(path, toks[:]).tolist())


def load_cayset(G: FiniteGroup, path: str) -> CayleySet:
    fx = resolve_fixture(path)
    if fx is not None:
        if fx.cayset is None:
            raise BadParameter(f"fixture {fx.name} has no connection set")
        return fx.cayset
    return validate_cayley_set(G, load_cayset_members(path))


def load_map(path: str, flag_space: FlagSpace | None = None) -> MapPermutation:
    from .maps import validate_map

    fx = resolve_fixture(path)
    if fx is not None:
        if fx.map is None:
            raise BadParameter(f"fixture {fx.name} has no pinned map")
        return fx.map
    head, body = _split_head(path)
    if len(head) < 2 or head[0] != "map":
        raise BadParameter(f"{path}: expected leading 'map <flag_count>'")
    (n,) = _ints(path, head[1:]).tolist()
    body = _ints(path, _tokens(body)[:]).tolist()
    if len(body) == n:
        if flag_space is None:
            raise BadParameter(
                f"{path}: plain map file needs a group and connection set for its flag space"
            )
        if flag_space.flag_count != n:
            raise BadParameter(
                f"{path}: map on {n} flags does not fit flag space of {flag_space.flag_count}"
            )
        return validate_map(flag_space, body)
    if len(body) == 3 * n:
        F = generic_flag_space(body[n : 2 * n], body[2 * n :])
        return validate_map(F, body[:n])
    raise BadParameter(
        f"{path}: expected {n} images (plus optionally alpha and beta lines)"
    )


def save_map(M: MapPermutation, path: str) -> None:
    F = M.flag_space
    lines = [f"map {F.flag_count}", " ".join(str(x) for x in M.P)]
    if F.source != "cayley":
        lines.append(" ".join(str(x) for x in F.alpha))
        lines.append(" ".join(str(x) for x in F.beta))
    Path(path).write_text("\n".join(lines) + "\n")


def load_automorphisms(path: str, vertex_count: int | None = None) -> list[tuple[int, ...]]:
    """One automorphism per line, each a full list of vertex images."""
    data = Path(path).read_bytes()
    if data.isascii():
        lines = _LINE_BREAK.split(data)
    else:
        lines = [line.split() for line in Path(path).read_text().splitlines()]
    out = []
    for ln, line in enumerate(lines, start=1):
        toks = _tokens(line)
        if not len(toks):
            continue
        vm = tuple(_ints(f"{path}:{ln}", toks[:]).tolist())
        if vertex_count is not None and len(vm) != vertex_count:
            raise BadParameter(f"{path}:{ln}: expected {vertex_count} vertex images")
        if sorted(vm) != list(range(len(vm))):
            raise BadParameter(f"{path}:{ln}: not a permutation")
        out.append(vm)
    if not out:
        raise BadParameter(f"{path}: no automorphisms found")
    return out
