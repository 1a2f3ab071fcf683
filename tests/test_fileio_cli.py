"""File formats round-trip byte-identically; the CLI is deterministic text."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cayleymaps
from cayleymaps import enumerate_embeddings, fixture, named_group, validate_cayley_set
from cayleymaps.autaction import right_regular
from cayleymaps.cli import main
from cayleymaps.errors import BadParameter, NotAGroup
from cayleymaps.fileio import (
    load_automorphisms,
    load_cayset,
    load_cayset_members,
    load_group,
    load_map,
    resolve_fixture,
    save_group,
    save_map,
)
from cayleymaps.maps import inventory


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_group_round_trip(tmp_path):
    for G in (named_group("dihedral", 12), named_group("cyclic", 5),
              named_group("elementary_abelian_2", 3)):
        path = tmp_path / "g.group"
        save_group(G, str(path))
        G2 = load_group(str(path))
        assert np.array_equal(G2.table, G.table)
        assert G2.names == G.names
        save_group(G2, str(tmp_path / "h.group"))
        assert (tmp_path / "h.group").read_text() == path.read_text()


def test_symmetric_group_reloads_unnamed(tmp_path):
    # cycle-notation names contain spaces, which the format cannot carry
    G = named_group("symmetric", 3)
    path = tmp_path / "s3.group"
    save_group(G, str(path))
    assert "names" not in path.read_text()
    G2 = load_group(str(path))
    assert np.array_equal(G2.table, G.table)
    assert G2.names is None


def test_group_loader_rejections(tmp_path):
    def write(text):
        p = tmp_path / "bad.group"
        p.write_text(text)
        return str(p)

    with pytest.raises(BadParameter, match="leading 'group"):
        load_group(write("table 2\n0 1\n1 0\n"))
    with pytest.raises(BadParameter, match="table needs"):
        load_group(write("group 2\n0 1\n"))
    with pytest.raises(BadParameter, match="names line"):
        load_group(write("group 2\n0 1\n1 0\nnames a\n"))
    # identity must be element 0
    shifted = "group 4\n3 0 1 2\n0 1 2 3\n1 2 3 0\n2 3 0 1\n"
    with pytest.raises(NotAGroup):
        load_group(write(shifted))


def _cyclic_table_text(n, spell=str, sep=" ", newline="\n"):
    """The group file of Z_n with every entry written by ``spell``."""
    rows = [sep.join(spell(v) for v in row) for row in named_group("cyclic", n).table.tolist()]
    return newline.join([f"group{sep}{n}", *rows]) + newline


@pytest.mark.parametrize("spell,sep,newline", [
    (lambda v: f"+{v}", " ", "\n"),
    (lambda v: f"{v:03d}", " ", "\n"),
    (lambda v: "1_0" if v == 10 else str(v), " ", "\n"),
    (str, "\t", "\r\n"),
    (lambda v: "".join(chr(0x0660 + int(d)) for d in str(v)), " ", "\n"),  # Arabic-Indic
    (lambda v: "".join(chr(0xFF10 + int(d)) for d in str(v)), " \t ", "\r\n"),  # fullwidth
])
def test_group_loader_reads_what_int_reads(tmp_path, spell, sep, newline):
    path = tmp_path / "z12.group"
    path.write_bytes(_cyclic_table_text(12, spell, sep, newline).encode())
    assert np.array_equal(load_group(str(path)).table, named_group("cyclic", 12).table)


@pytest.mark.parametrize("bad", ["1.0", "0x1", "a"])
def test_loaders_name_the_first_token_that_is_not_an_integer(tmp_path, bad):
    # a later bad token and an entry beyond int64 before it do not change
    # which token is named
    def spell(v):
        return {3: "99999999999999999999999", 5: bad, 7: "q"}.get(v, str(v))

    path = tmp_path / "z12.group"
    path.write_text(_cyclic_table_text(12, spell))
    with pytest.raises(BadParameter) as err:
        load_group(str(path))
    assert str(err.value) == f"{path}: {bad!r} is not an integer"

    path = tmp_path / "s.set"
    path.write_text(f"cayset 3\n1 {bad} q\n")
    with pytest.raises(BadParameter) as err:
        load_cayset_members(str(path))
    assert str(err.value) == f"{path}: {bad!r} is not an integer"


@pytest.mark.parametrize("entry,where", [
    ("99999999999999999999999", "(1,1)"),
    ("-99999999999999999999999", "(0,1)"),
])
def test_cli_group_entries_beyond_int64_are_out_of_range(capsys, tmp_path, entry, where):
    path = tmp_path / "big.group"
    table = [["0", "1"], ["1", "0"]]
    i, j = int(where[1]), int(where[3])
    table[i][j] = entry
    path.write_text("group 2\n" + "\n".join(" ".join(row) for row in table) + "\n")
    code, out, _ = run_cli(capsys, "group", "check", str(path))
    assert code == 1
    assert out == f"entry out of range at {where}\nerror-token: NotAGroup\n"


def test_cli_group_header_over_the_cap_is_refused_before_its_table(capsys, tmp_path):
    # the order is checked against the cap before the body is read, so a
    # short table is refused for its size, not its length
    path = tmp_path / "big.group"
    path.write_text("group 5041\n0 1\n1 0\n")
    code, out, _ = run_cli(capsys, "group", "check", str(path))
    assert code == 2
    assert out == "group order 5041 exceeds cap 5040\nerror-token: CapExceeded\n"


def test_cayset_round_trip_and_rejections(tmp_path):
    G = named_group("dihedral", 12)
    path = tmp_path / "s.cayset"
    path.write_text("cayset 3\n6 7 8\n")
    assert load_cayset_members(str(path)) == (6, 7, 8)
    assert load_cayset(G, str(path)).members == (6, 7, 8)

    bad = tmp_path / "bad.cayset"
    bad.write_text("set 3\n6 7 8\n")
    with pytest.raises(BadParameter, match="leading 'cayset"):
        load_cayset_members(str(bad))
    bad.write_text("cayset 3\n6 7\n")
    with pytest.raises(BadParameter, match="exactly 3"):
        load_cayset_members(str(bad))


def test_map_round_trip_on_cayley_flag_space(tmp_path):
    fx = fixture("K3")
    gs = enumerate_embeddings(fx.flag_space, "sigma", "O")
    M = gs.representatives_of(gs.space.realize(gs.codes[:1]))[0]
    path = tmp_path / "m.map"
    save_map(M, str(path))
    assert path.read_text() == "map 12\n2 3 0 1 7 6 5 4 10 11 8 9\n"
    M2 = load_map(str(path), fx.flag_space)
    assert M2.P == M.P
    with pytest.raises(BadParameter, match="needs a group"):
        load_map(str(path))
    with pytest.raises(BadParameter, match="does not fit"):
        load_map(str(path), fixture("CUBE").flag_space)


def test_map_round_trip_generic(tmp_path):
    M = fixture("FIG1").map
    path = tmp_path / "fig1.map"
    save_map(M, str(path))
    text = path.read_text()
    assert len(text.splitlines()) == 4  # header, P, alpha, beta
    M2 = load_map(str(path))
    assert M2.P == M.P
    assert M2.flag_space.alpha == M.flag_space.alpha
    assert M2.flag_space.beta == M.flag_space.beta
    assert inventory(M2).euler_characteristic == 0


def test_map_loader_rejections(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("perm 4\n1 0 3 2\n")
    with pytest.raises(BadParameter, match="leading 'map"):
        load_map(str(bad))
    bad.write_text("map 4\n1 0 3\n")
    with pytest.raises(BadParameter, match="expected 4 images"):
        load_map(str(bad))


def test_automorphism_round_trip_and_rejections(tmp_path):
    auts = right_regular(fixture("K3").group).rows.tolist()
    path = tmp_path / "a.auts"
    path.write_text("0 1 2\n1 2 0\n2 0 1\n")
    back = load_automorphisms(str(path), vertex_count=3)
    assert back == [tuple(a) for a in auts]

    with pytest.raises(BadParameter, match="expected 4 vertex images"):
        load_automorphisms(str(path), vertex_count=4)
    bad = tmp_path / "bad.auts"
    bad.write_text("0 1 1\n")
    with pytest.raises(BadParameter, match="not a permutation"):
        load_automorphisms(str(bad))
    bad.write_text("\n")
    with pytest.raises(BadParameter, match="no automorphisms"):
        load_automorphisms(str(bad))


def test_fixture_tokens():
    assert resolve_fixture("plain/path.group") is None
    assert load_group("fixtures:K3").order == 3
    assert load_cayset_members("fixtures:CUBE") == (1, 2, 4)
    assert load_map("fixtures:FIG1").flag_space.flag_count == 24
    with pytest.raises(BadParameter, match="has no group"):
        load_group("fixtures:FIG1")
    with pytest.raises(BadParameter, match="has no pinned map"):
        load_map("fixtures:K3")
    with pytest.raises(BadParameter, match="unknown fixture"):
        load_group("fixtures:NOPE")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VERIFY_CUBE_O = """\
surface: O
semantics: sigma

class  size  order  l  branch  formula  oracle  ratio
000    1     1      0  Theta   256      256     1
001    1     2      8  Delta   16       16      1
010    1     2      8  Delta   16       16      1
011    1     2      0  Theta   16       16      1
100    1     2      8  Delta   16       16      1
101    1     2      0  Theta   16       16      1
110    1     2      0  Theta   16       16      1
111    1     2      0  Theta   16       16      1

formula-total: 46
oracle-orbits: 46
total-ratio: 1
"""


def test_cli_verify_cube_is_frozen_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "fixtures:CUBE", "--surface", "O")
    assert code == 0
    assert out == VERIFY_CUBE_O


def test_cli_output_is_deterministic(capsys):
    runs = [
        run_cli(capsys, "verify", "fixtures:CUBE", "--surface", "O"),
        run_cli(capsys, "verify", "fixtures:CUBE", "--surface", "O"),
    ]
    assert all(code == 0 for code, _, _ in runs)
    assert len({out for _, out, _ in runs}) == 1


def test_cli_group_check(capsys):
    code, out, _ = run_cli(capsys, "group", "check", "fixtures:K3", "--kv")
    assert code == 0
    assert out == "order=3\nabelian=true\nexponent=3\nconjugacy-classes=3\nvalid=true\n"


def test_cli_cayley_check(capsys):
    code, out, _ = run_cli(capsys, "cayley", "check", "fixtures:CUBE")
    assert code == 0
    assert out == (
        "group-order: 8\ndegree: 3\naut-order: 48\nis-grr: false\n"
        "is-direct-product: false\nh-order: 0\n"
    )


def test_cli_map_check_fig1(capsys):
    code, out, _ = run_cli(capsys, "map", "check", "fixtures:FIG1")
    assert code == 0
    assert out == (
        "flags: 24\nvertices: 4\nedges: 6\nfaces: 2\nface-lengths: 4,8\n"
        "euler-characteristic: 0\norientable: true\ngenus: 1\n"
        "aut-order: 8\norientation-preserving: 4\nvalid: true\n"
    )


def test_cli_map_check_with_group_and_cayset(capsys, tmp_path):
    fx = fixture("K3")
    m, g, s = tmp_path / "k3.map", tmp_path / "k3.group", tmp_path / "k3.cayset"
    gs = enumerate_embeddings(fx.flag_space, "sigma", "O")
    M = gs.representatives_of(gs.space.realize(gs.codes[:1]))[0]
    save_map(M, str(m))
    save_group(fx.group, str(g))
    s.write_text("cayset 2\n1 2\n")
    code, out, _ = run_cli(
        capsys, "map", "check", str(m), "--group", str(g), "--cayset", str(s)
    )
    assert code == 0
    assert "euler-characteristic: 2" in out
    assert "aut-order: 12" in out
    assert "orientation-preserving: 6" in out
    assert out.endswith("valid: true\n")

    code, out, _ = run_cli(capsys, "map", "check", str(m), "--group", str(g))
    assert code == 1
    assert out.endswith("error-token: BadParameter\n")


def test_cli_census_formula_cube(capsys):
    code, out, _ = run_cli(
        capsys, "census", "formula", "fixtures:CUBE", "--surface", "L"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "surface: L"
    assert "class  size  order  l  branch  alpha  phi" in lines
    assert "001    1     2      8  Delta   6      1024" in lines
    assert "total: 928" in lines
    assert any(line.startswith("total-log2: 9.857980995") for line in lines)


def test_cli_census_formula_kv_parses(capsys):
    code, out, _ = run_cli(
        capsys, "census", "formula", "fixtures:CUBE", "--surface", "L", "--kv"
    )
    assert code == 0
    pairs = dict(line.split("=", 1) for line in out.splitlines())
    assert pairs["total"] == "928"
    assert pairs["class.0.phi"] == "4096"
    assert pairs["class.1.branch"] == "Delta"
    assert pairs["classes"] == "8"


def test_cli_census_oracle_with_dump(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "census", "oracle", "fixtures:K3", "--surface", "L",
        "--dump", str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert "ground-set: 2" in lines
    assert "orbit-count: 2" in lines
    assert f"dump-dir: {tmp_path}" in lines
    assert "dump-count: 2" in lines
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["rep_0.map", "rep_1.map"]
    F = fixture("K3").flag_space
    chis = sorted(
        inventory(load_map(str(tmp_path / f), F)).euler_characteristic for f in files
    )
    assert chis == [1, 2]


def test_cli_three_inv_compare_frozen(capsys, tmp_path):
    g, s = tmp_path / "d6.group", tmp_path / "d6.cayset"
    G = named_group("dihedral", 12)
    save_group(G, str(g))
    s.write_text("cayset 3\n6 7 8\n")
    code, out, _ = run_cli(
        capsys, "three-inv", str(g), str(s), "--surface", "L", "--compare"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group-order: 12"
    assert "hypothesis-ok: false" in lines
    assert "r3  s0" in lines
    assert "s5  s2" in lines
    assert "r1     12         0       3              1           8       false" in lines
    assert "s0     12         8       9              7           8192    false" in lines
    assert "total: 40976" in lines


def test_cli_sym_grr_and_elem2(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sym-grr", "7", "--surface", "L")
    assert code == 0
    lines = out.splitlines()
    assert "special-involution-type: 1^3 2^2" in lines
    assert "1^3 2^2    48       48" in lines
    assert "1^5 2      1800     240" in lines
    assert "total-log2: 7547.70079198161" in lines
    assert "label: formula value only" in lines

    cs = tmp_path / "e3.cayset"
    cs.write_text("cayset 3\n1 2 4\n")
    code, out, _ = run_cli(capsys, "elem2", "3", str(cs), "--surface", "O")
    assert code == 0
    assert "total: 46" in out.splitlines()
    assert "grr-valid: false" in out.splitlines()


def test_cli_fixtures_list_and_run(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "list")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name  description"
    assert lines[1].startswith("K3    Cay(Z_3")
    assert len(lines) == 6

    code, out, _ = run_cli(capsys, "fixtures", "run", "K3")
    assert code == 0
    assert out.endswith("checks: all passed\n")
    assert "K3.orientable census: ok" in out

    code, out, _ = run_cli(capsys, "fixtures", "run")
    assert code == 0
    for name in ("K3", "C4", "C5", "CUBE", "FIG1"):
        assert f"{name}." in out


def test_cli_dump_decodes_each_representative_once(capsys, tmp_path, monkeypatch):
    # the orbit table and the dump are fed from one decoding pass: each
    # orbit's lead row is decoded once, and the files match the two-pass output
    import hashlib

    from cayleymaps import oracle

    calls = []
    decode = oracle.inventories

    def counted(F, rows):
        calls.extend(rows)
        return decode(F, rows)

    monkeypatch.setattr(oracle, "inventories", counted)
    code, out, _ = run_cli(
        capsys, "census", "oracle", "fixtures:CUBE", "--surface", "L", "--dump", str(tmp_path),
    )
    assert code == 0
    assert "orbit-count: 1184" in out.splitlines()
    assert len(calls) == 1184
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == (
        "b4f6101de8b2d728b1a59e3a818807727f71dc1133795f136967add20cb3f770"
    )
    stdout = out.replace(str(tmp_path), "DIR").encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "b0089aeac1e3f58337d42398aa4826a11700914b5d5ae68a4061831a4c0ad461"
    )


def test_cli_census_oracle_builds_maps_only_to_dump(capsys, tmp_path, monkeypatch):
    # the orbit table needs only the inventories; a map per orbit is built
    # only for the files of --dump
    from cayleymaps import oracle

    built = []
    maps_of = oracle.GroundSet.representatives_of

    def counted(self, rows):
        built.extend(rows)
        return maps_of(self, rows)

    monkeypatch.setattr(oracle.GroundSet, "representatives_of", counted)
    argv = ("census", "oracle", "fixtures:CUBE", "--surface", "O", "--acting", "rg")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and built == []
    code, dumped, _ = run_cli(capsys, *argv, "--dump", str(tmp_path))
    assert code == 0 and len(built) == len(list(tmp_path.iterdir())) > 0
    assert dumped.startswith(plain.rsplit("\n\n", 1)[0])


@pytest.mark.parametrize("text,message", [
    ("0 1 2\n0 1 2\n", "H lists an automorphism twice"),
    ("0 1 2\n1 2 0\n2 0 1\n",
     "H contains the right translation by g1; H may share only the identity with R(G)"),
    # the identity, doubling, and doubling followed by +1 on C5
    ("0 1 2 3 4\n0 2 4 1 3\n1 3 0 2 4\n",
     "two maps of H differ by the right translation by g4; "
     "H may meet each coset of R(G) only once"),
])
@pytest.mark.parametrize("command", [["census", "formula"], ["verify"]])
def test_cli_h_file_meeting_r_g_is_refused(capsys, tmp_path, text, message, command):
    path = tmp_path / "bad.h"
    path.write_text(text)
    source = {3: "fixtures:K3", 5: "fixtures:C5"}[len(text.split("\n")[0].split())]
    code, out, _ = run_cli(capsys, *command, source, "--h-file", str(path))
    assert code == 1
    assert out == f"{message}\nerror-token: BadParameter\n"


def test_cli_exit_codes_and_error_tokens(capsys, tmp_path):
    # domain error: exit 1, token on the last stdout line
    code, out, _ = run_cli(capsys, "three-inv", "fixtures:K3")
    assert code == 1
    assert out.endswith("error-token: BadParameter\n")

    bad = tmp_path / "bad.group"
    bad.write_text("group 2\n0 1\n0 1\n")
    code, out, _ = run_cli(capsys, "group", "check", str(bad))
    assert code == 1
    assert out.endswith("error-token: NotAGroup\n")

    # cap refusal: exit 2
    code, out, _ = run_cli(capsys, "census", "oracle", "fixtures:CUBE",
                           "--semantics", "raw")
    assert code == 2
    assert out.endswith("error-token: CapExceeded\n")

    # usage error: exit 64, token on stderr
    code, out, err = run_cli(capsys, "nosuch")
    assert code == 64
    assert err.rstrip("\n").endswith("error-token: Usage")

    code, out, err = run_cli(capsys, "sym-grr")
    assert code == 64
    assert err.rstrip("\n").endswith("error-token: Usage")


def test_cli_stops_quietly_when_the_reader_closes_the_pipe():
    # the table is far larger than a pipe buffer, so the writer is still
    # writing when the read end closes after one line
    src = str(Path(cayleymaps.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "cayleymaps.cli", "sym-grr", "30", "--surface", "O", "--mode", "log2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"n: 30\n"
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("kind,text,token", [
    ("group", "group x\n0\n", "'x'"),
    ("group", "group 2\n0 1\n1 q\n", "'q'"),
    ("group", "group\n", None),
    ("group", "group -1\n0\n", "'-1'"),
    ("cayset", "cayset 2\n1 q\n", "'q'"),
    ("cayset", "cayset two\n1 2\n", "'two'"),
    ("elem2", "cayset 2\n1 q\n", "'q'"),
    ("map", "map 4\n1 0 z 2\n", "'z'"),
    ("map", "map four\n1 0 3 2\n", "'four'"),
    ("h-file", "0 1 2 3 4 5 6 7\n0 1 2 3 4 5 6 x7\n", "'x7'"),
])
def test_cli_malformed_numbers_refuse(capsys, tmp_path, kind, text, token):
    path = tmp_path / "input"
    path.write_text(text)
    argv = {
        "group": ["group", "check", str(path)],
        "cayset": ["cayley", "check", "fixtures:CUBE", str(path)],
        "elem2": ["elem2", "3", str(path)],
        "map": ["map", "check", str(path)],
        "h-file": ["census", "formula", "fixtures:CUBE", "--h-file", str(path)],
    }[kind]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.endswith("error-token: BadParameter\n")
    assert str(path) in out
    if token is not None:
        assert token in out


@pytest.mark.parametrize("argv", [
    ["census", "formula", "fixtures:CUBE", "--mode", "modp:abc"],
    ["sym-grr", "9", "--mode", "modp:zz"],
    ["elem2", "3", "fixtures:CUBE", "--mode", "modp:"],
    ["three-inv", "fixtures:CUBE", "--mode", "modp:1e9"],
])
def test_cli_malformed_modulus_refuses(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.endswith("error-token: BadParameter\n")
    assert repr(argv[-1].split(":", 1)[1]) in out


@pytest.mark.parametrize("argv,out", [
    # a modulus sharing a factor with |G||H| has no inverse of it: refused
    (["fixtures:CUBE", "--mode", "modp:6"],
     "modulus 6 shares a factor with the normalizer 8\nerror-token: BadParameter\n"),
    (["fixtures:CUBE", "--mode", "modp:12"],
     "modulus 12 shares a factor with the normalizer 8\nerror-token: BadParameter\n"),
    (["fixtures:C5", "--mode", "modp:10"],
     "modulus 10 shares a factor with the normalizer 5\nerror-token: BadParameter\n"),
    (["fixtures:CUBE", "--mode", "modp:4"],
     "modulus 4 divides the normalizer 8\nerror-token: BadParameter\n"),
])
def test_cli_modulus_not_prime_to_the_normalizer_refuses(capsys, argv, out):
    assert run_cli(capsys, "census", "formula", *argv) == (1, out, "")


def test_cli_composite_modulus_prime_to_the_normalizer_is_reduced(capsys):
    code, out, _ = run_cli(capsys, "census", "formula", "fixtures:CUBE", "--mode", "modp:9")
    assert code == 0
    assert out.endswith("total-mode: modp\ntotal-residue: 1\ntotal-prime: 9\n")


def test_cli_reuses_one_parser_with_fresh_run_output(capsys, monkeypatch):
    # every call through the one parser of a process prints what a fresh
    # interpreter prints for the same command
    from cayleymaps import cli

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width
    src = str(Path(cayleymaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    commands = [
        ["census", "formula", "fixtures:CUBE", "--nosuch"],
        ["census", "formula", "fixtures:CUBE", "--surface", "N", "--kv"],
        ["verify", "fixtures:CUBE", "--surface", "O"],
        ["sym-grr", "7"],
    ]
    fresh = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "cayleymaps.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert fresh[0][0] == 64 and fresh[0][2].endswith("error-token: Usage\n")
    assert [code for code, _, _ in fresh[1:]] == [0, 0, 0]

    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert [run_cli(capsys, *argv) for argv in commands] == fresh
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_cli_r_g_class_labels_equal_the_generic_labels(capsys, tmp_path):
    # with H = 1 each class is labelled by its representative's name; an H
    # file holding only the identity takes the generic path, which finds
    # the same rows to be translations
    from cayleymaps.groups import direct_product

    G = direct_product(named_group("cyclic", 2), named_group("dihedral", 6))
    names = list(G.names)
    S = validate_cayley_set(G, tuple(sorted(names.index(n) for n in ("(g1,r0)", "(g0,s0)", "(g0,s1)"))))
    group, cayset, h = (str(tmp_path / n) for n in ("g.group", "g.cayset", "id.h"))
    save_group(G, group)
    Path(cayset).write_text(f"cayset 3\n{' '.join(map(str, S.members))}\n")
    Path(h).write_text(" ".join(map(str, range(G.order))) + "\n")
    for command, extra in [
        (["census", "formula"], []), (["census", "formula"], ["--kv", "--surface", "L"]),
        (["verify"], []), (["verify"], ["--kv"]),
    ]:
        argv = [*command, group, cayset, *extra]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "(g1,r0)" in out, argv
        assert run_cli(capsys, *argv, "--h-file", h) == (code, out, ""), argv
