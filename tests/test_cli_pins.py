"""Stdout of the group-touching commands, orbit listings, map checks and
sym-grr, pinned by SHA-256.

The group-command digests were recorded from the tuple-table
implementation that the array-backed group layer replaced, and the sym-grr
ones from the row-at-a-time partition sum that the columnar one replaced,
so they pin that each replacement prints byte-identical text (plain and
``--kv``) and exit codes.  The orbit listings and the FIG1 map check were
recorded from the one-row validation and Python cycle walk that the batch
inventory replaced.  No output may
carry a numpy scalar repr (``np.int16(3)``), which a stray array entry in
a tuple or an f-string repr would print.
"""

import hashlib

import pytest

from cayleymaps import named_group
from cayleymaps.cli import main
from cayleymaps.fileio import save_group
from cayleymaps.groups import direct_product

# (C_2 x D_6, {3, 7, 8}): a prism-like cubic graph whose automorphism group
# is R(G) x H with H of order 2; H is that complement, written out.  Its
# product with R(G) holds conjugations, which fix the identity vertex, so
# the census refuses it (NotSemiRegular); with H = 1 it counts.
C2D6_SET = "cayset 3\n3 7 8\n"
C2D6_H = "0 1 2 3 4 5 6 7 8 9 10 11\n9 11 10 6 8 7 3 5 4 0 2 1\n"
C2D6_H1 = "0 1 2 3 4 5 6 7 8 9 10 11\n"
# the Coxeter transpositions (2 3), (1 2), (0 1) of S_4
S4_SET = "cayset 3\n1 2 6\n"
# a Latin square with two-sided identity 0 that is not associative
NONASSOC = "group 5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"

CASES = {
    "group-d12": ["group", "check", "{d12}"],
    "group-s4": ["group", "check", "{s4}"],
    "group-nonassoc": ["group", "check", "{nonassoc}"],
    "cayley-c2d6": ["cayley", "check", "{c2d6}", "{c2d6_set}"],
    "formula-c2d6-h": ["census", "formula", "{c2d6}", "{c2d6_set}", "--h-file", "{c2d6_h}"],
    "formula-c2d6-h1-L": [
        "census", "formula", "{c2d6}", "{c2d6_set}", "--h-file", "{c2d6_h1}", "--surface", "L",
    ],
    "formula-c2d6-h1-N-modp": [
        "census", "formula", "{c2d6}", "{c2d6_set}", "--h-file", "{c2d6_h1}", "--surface", "N",
        "--mode", "modp:1000003",
    ],
    "three-inv-s4-compare": ["three-inv", "{s4}", "{s4_set}", "--compare"],
    "three-inv-s4-compare-N-log2": [
        "three-inv", "{s4}", "{s4_set}", "--compare", "--surface", "N", "--mode", "log2",
    ],
    # orbit listings and a map inventory, pinned before the listing moved
    # from one-row validation and cycle walks to batch reads of the labels
    "oracle-c4-L-raw": ["census", "oracle", "fixtures:C4", "--surface", "L", "--semantics", "raw"],
    "oracle-c5-N-raw": ["census", "oracle", "fixtures:C5", "--surface", "N", "--semantics", "raw"],
    "oracle-cube-L-dart": [
        "census", "oracle", "fixtures:CUBE", "--surface", "L", "--semantics", "dart",
    ],
    "oracle-cube-N": ["census", "oracle", "fixtures:CUBE", "--surface", "N"],
    "map-fig1": ["map", "check", "fixtures:FIG1"],
}

# case -> (exit code, SHA-256 of stdout plain, SHA-256 of stdout with --kv)
PINS = {
    "cayley-c2d6": (
        0,
        "2d9b5b4bc9c22847d6586c8e02a7b20260fad515957b11db52b5e63a74076ca2",
        "00ac3d77cafd8d112e323c6abc52917f13b787ca1343a189c0db28817485b47f",
    ),
    "formula-c2d6-h": (
        1,
        "469aa79d508afdc08f08d065baf91cd55fe58bb2499067f0e353bdc14a872aaa",
        "469aa79d508afdc08f08d065baf91cd55fe58bb2499067f0e353bdc14a872aaa",
    ),
    "formula-c2d6-h1-L": (
        0,
        "6125f93f0869b75279ba4478cbd52155ec85fe548d460688293a70da04f2bad8",
        "0fa9f69802acd351c9ead78e302651c639fa820d379a57f28abf2e21776eb668",
    ),
    "formula-c2d6-h1-N-modp": (
        0,
        "845bbf9fb70aaedd081a77f62d2148f516fba27fa58adcbc50a8a5bcdde478d1",
        "569abb20e7e684de39112647ba40e870d77d9fc18ae84f99c4503c19cc7b5e4e",
    ),
    "group-d12": (
        0,
        "5b446b98344013bf8147d4ac790652fd39a7889c1d1e383ce2bfe29c6f400101",
        "66a79bac79ee1ec8c3fe3a8d0994b01bebb1fa6ad81e38cde7efc4ae6d178070",
    ),
    "group-nonassoc": (
        1,
        "6116241876ba20653fc8f07b6fee4e39f88abcbdb74f2e810f289045e5716bf9",
        "6116241876ba20653fc8f07b6fee4e39f88abcbdb74f2e810f289045e5716bf9",
    ),
    "group-s4": (
        0,
        "50aa14d8ea7ca0a248a5ca6c953205dcf735591f66e3427a066df0cc02166b8d",
        "8f1cc1a4474ab7623d365db1adc3051f80406a4eb9484968c77369d68df718bb",
    ),
    "map-fig1": (
        0,
        "58a349971f31fae7c0860fe0e15a7ec0d90b4cf6160c16c72538e7d94ed061f2",
        "65b41792d8cf4f1db153a2b0980d5d146de962c96096b6cb0f670b773ad9bfb1",
    ),
    "oracle-c4-L-raw": (
        0,
        "7662427b657acc3f078a110fba412562c22f31b0d1e74b26a120330650f1ad2e",
        "db00dc15289a13302bbbb475a7c87378ea546337b2529d8cbfce75d2cc5255b7",
    ),
    "oracle-c5-N-raw": (
        0,
        "3ac64ae37ab337140364e1a277b6a2001d2e72f8f400bbda30e006d0700f15aa",
        "3dae0ff299e988ba810769bdf54a44b1b76051314949beb9ddb3efbd4dbab9a3",
    ),
    "oracle-cube-L-dart": (
        0,
        "2907b26414a136aa3b49ae1041cbe6159d1c85229764aac564bbe12c9f5750ae",
        "6cb8bfc2834506e0d832c26b97a697b785f8a5770285c5db6d200a4b99d390b6",
    ),
    "oracle-cube-N": (
        0,
        "73f7e7e3429559217652165394eb04e6c26482905115010b77ea6caccf834f3b",
        "c43285c3dff92ed9f6b2bff5a3d095316103bde631d80a37f37f2198ba6c7965",
    ),
    "three-inv-s4-compare": (
        0,
        "baf15a9357fbe9354458f5007471282e062dd2ad668b221bfe7c8d51eb003f64",
        "3f5a3d0522ad471c448c1c58f3f05a0c1285ae805bb6dc6500eb5a3db2b2b1c6",
    ),
    "three-inv-s4-compare-N-log2": (
        0,
        "696c22680da4eeb4e0449a7989ca894b2646c154ed349ab458a08ec9b722f58c",
        "efc80254546a0272fd693b8b98d8b1dda002c084a1b437092d67e09fab10b16b",
    ),
}


def write_inputs(tmp_path) -> dict[str, str]:
    files = {
        "d12": named_group("dihedral", 12),
        "s4": named_group("symmetric", 4),
        "c2d6": direct_product(named_group("cyclic", 2), named_group("dihedral", 6)),
    }
    paths = {}
    for key, G in files.items():
        paths[key] = str(tmp_path / f"{key}.group")
        save_group(G, paths[key])
    texts = {"c2d6_set": C2D6_SET, "c2d6_h": C2D6_H, "c2d6_h1": C2D6_H1, "s4_set": S4_SET,
             "nonassoc": NONASSOC}
    for key, text in texts.items():
        paths[key] = str(tmp_path / key)
        (tmp_path / key).write_text(text)
    return paths


def run_case(capsys, paths, argv) -> tuple[int, str]:
    rc = main([a.format(**paths) for a in argv])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_pinned(case, capsys, tmp_path):
    paths = write_inputs(tmp_path)
    rc, plain = run_case(capsys, paths, CASES[case])
    rc_kv, kv = run_case(capsys, paths, CASES[case] + ["--kv"])
    assert rc == rc_kv
    assert "np." not in plain and "np." not in kv
    digest = (rc, hashlib.sha256(plain.encode()).hexdigest(), hashlib.sha256(kv.encode()).hexdigest())
    assert digest == PINS[case]


# sym-grr stdout recorded from the row-at-a-time partition sum that the
# columnar one replaced: argv -> (exit code, SHA-256 of stdout).
SYM_PINS = {
    ("40", "--surface", "O", "--mode", "log2"):
        (0, "6d5282701dd474a64ea69e100d87fdc5a2bf98779e80b15c468883fee75d7422"),
    ("25", "--surface", "L", "--mode", "log2"):
        (0, "3f18b182b0f3d458e1f98c6e7fc657fab322dc9f6a2faebf4257925fa148cbb4"),
    ("25", "--surface", "L", "--mode", "log2", "--kv"):
        (0, "a12f7577951e3d7f81a74f5218548b14bbae8bba49440d450e0130eabb4d0c5b"),
    ("31", "--surface", "L", "--mode", "modp:1000003"):
        (0, "55befa864ef1a8df3a5999b3f9471145298a1688d71aa34f87f3612ec51d236d"),
    ("7", "--surface", "L", "--kv"):
        (0, "ffb98f5fadb440268d1bf04ffe1fd6cd4f3a4a244295e5dcc2ca90c044b7f698"),
    # recorded from the writer that formatted every cell per row, before
    # class sizes, orders and exponents became indexed columns
    ("30", "--surface", "O", "--mode", "log2", "--kv"):
        (0, "44c441560af2499f2e49fb40fea9b5000c10de64ee7d67d4ded27edfc520a859"),
    ("9", "--surface", "O", "--kv"):
        (0, "7bb927755b385fa1c89ab906de01fc238922bd2321b83f4625232a6988ec5919"),
}

# refusals print their message and token and nothing else: no table row
# reaches stdout before the census has run to its end
SYM_REFUSALS = {
    ("25", "--surface", "L", "--mode", "modp:2"):
        (1, "modulus 2 must be an odd prime\nerror-token: BadParameter\n"),
    ("61", "--mode", "log2"):
        (2, "n = 61 exceeds the log2-mode cap 60\nerror-token: CapExceeded\n"),
    ("12", "--surface", "L", "--mode", "log2"):
        (1, "n = 12 is not of the form 6m+1 with m >= 1\nerror-token: BadParameter\n"),
}


@pytest.mark.parametrize("argv", list(SYM_PINS), ids=" ".join)
def test_sym_grr_stdout_is_pinned(argv, capsys):
    rc = main(["sym-grr", *argv])
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == SYM_PINS[argv]


@pytest.mark.parametrize("argv", list(SYM_REFUSALS), ids=" ".join)
def test_sym_grr_refusals_print_only_the_error(argv, capsys):
    rc = main(["sym-grr", *argv])
    assert (rc, capsys.readouterr().out) == SYM_REFUSALS[argv]
