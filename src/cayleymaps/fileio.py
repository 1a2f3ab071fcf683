"""Plain-text readers and writers for every on-disk object.

All formats are single-space separated with one trailing newline, so a
saved file is byte-identical across runs.  Anywhere a path is expected,
a ``fixtures:NAME`` token resolves to the named registry instance
instead of touching the filesystem.

Every number is read by one reader, ``_ints``, which converts a file's
tokens to one integer array in a single pass; a group table reaches the
validator as that array, reshaped, with no Python lists in between.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cayley import CayleySet, FlagSpace, generic_flag_space, validate_cayley_set
from .errors import BadParameter
from .fixtures import Fixture, fixture
from .groups import FiniteGroup, build_group_from_table
from .maps import MapPermutation, validate_map

FIXTURE_PREFIX = "fixtures:"


def resolve_fixture(token: str) -> Fixture | None:
    if isinstance(token, str) and token.startswith(FIXTURE_PREFIX):
        return fixture(token[len(FIXTURE_PREFIX):])
    return None


def _tokens_of(path: str) -> list[str]:
    text = Path(path).read_text()
    return text.split()


def _ints(path: str, toks: list[str]) -> np.ndarray:
    """The tokens as one integer array, converted in a single pass.

    Each token is read as ``int()`` reads it, so the first that is not an
    integer is refused by name.  Integers beyond int64 are kept exact in an
    object array, for the caller to refuse as out of range."""
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


def load_group(path: str) -> FiniteGroup:
    fx = resolve_fixture(path)
    if fx is not None:
        if fx.group is None:
            raise BadParameter(f"fixture {fx.name} has no group")
        return fx.group
    toks = _tokens_of(path)
    if len(toks) < 2 or toks[0] != "group":
        raise BadParameter(f"{path}: expected leading 'group <order>'")
    (n,) = _ints(path, toks[1:2]).tolist()
    if n < 0:
        raise BadParameter(f"{path}: group order {toks[1]!r} is negative")
    need = 2 + n * n
    if len(toks) < need:
        raise BadParameter(f"{path}: table needs {n * n} entries")
    table = _ints(path, toks[2:need]).reshape(n, n)
    names = None
    rest = toks[need:]
    if rest:
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
    toks = _tokens_of(path)
    if len(toks) < 2 or toks[0] != "cayset":
        raise BadParameter(f"{path}: expected leading 'cayset <k>'")
    (k,) = _ints(path, toks[1:2]).tolist()
    if len(toks) != 2 + k:
        raise BadParameter(f"{path}: expected exactly {k} element indices")
    return tuple(_ints(path, toks[2:]).tolist())


def load_cayset(G: FiniteGroup, path: str) -> CayleySet:
    fx = resolve_fixture(path)
    if fx is not None:
        if fx.cayset is None:
            raise BadParameter(f"fixture {fx.name} has no connection set")
        return fx.cayset
    return validate_cayley_set(G, load_cayset_members(path))


def save_cayset(S: CayleySet, path: str) -> None:
    line = f"cayset {len(S.members)}\n" + " ".join(str(s) for s in S.members)
    Path(path).write_text(line + "\n")


def load_map(path: str, flag_space: FlagSpace | None = None) -> MapPermutation:
    fx = resolve_fixture(path)
    if fx is not None:
        if fx.map is None:
            raise BadParameter(f"fixture {fx.name} has no pinned map")
        return fx.map
    toks = _tokens_of(path)
    if len(toks) < 2 or toks[0] != "map":
        raise BadParameter(f"{path}: expected leading 'map <flag_count>'")
    (n,) = _ints(path, toks[1:2]).tolist()
    body = _ints(path, toks[2:]).tolist()
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
    out = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        vm = tuple(_ints(f"{path}:{ln}", line.split()).tolist())
        if vertex_count is not None and len(vm) != vertex_count:
            raise BadParameter(f"{path}:{ln}: expected {vertex_count} vertex images")
        if sorted(vm) != list(range(len(vm))):
            raise BadParameter(f"{path}:{ln}: not a permutation")
        out.append(vm)
    if not out:
        raise BadParameter(f"{path}: no automorphisms found")
    return out


def save_automorphisms(auts, path: str) -> None:
    lines = [" ".join(str(x) for x in vm) for vm in auts]
    Path(path).write_text("\n".join(lines) + "\n")
