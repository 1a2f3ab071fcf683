"""Exact-mode totals of the closed forms, formed in decimal: each against
the binary sum of the same terms, which log2 and modular mode still form.

Every total is printed by ``str``; here it must equal the binary total's
digits, carry no exponent, and give the same ``total-log2`` as log2 mode.
"""

import contextlib
import io
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from cayleymaps import cli, formulas, named_group, special
from cayleymaps.errors import NonIntegralSum
from cayleymaps.formulas import exact_quotient, log2_of_int
from cayleymaps.groups import subgroup_closure
from cayleymaps.perm import divisor_powers


def spanning_set(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """k distinct non-zero vectors of (Z_2)^n of rank n."""
    while True:
        S = rng.sample(range(1, 1 << n), k)
        basis = []
        for v in S:
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        if len(basis) == n:
            return tuple(sorted(S))


def involution_triple(rng: random.Random, G) -> tuple[int, ...]:
    """Three distinct involutions of G that generate it."""
    orders = divisor_powers(G.table).order.tolist()
    involutions = [g for g, o in enumerate(orders) if o == 2]
    while True:
        S = tuple(sorted(rng.sample(involutions, 3)))
        if len(subgroup_closure(G, S)) == G.order:
            return S


def _cases():
    cases = {}
    for n in range(1, 11):
        cases[f"sym-O-{n}"] = lambda mode, n=n: special.sym_orientable_census(n, mode).total
    cases["sym-L-7"] = lambda mode: special.sym_locally_census(7, mode).total
    cases["elem2-O-1"] = lambda mode: special.elementary_abelian_census(1, (1,), "O", mode).total
    for n in range(2, 17):
        rng = random.Random(n)
        S = spanning_set(rng, n, min(rng.randint(n, n + 3), 2**n - 1))
        for surface in "ONL":
            cases[f"elem2-{surface}-{n}"] = (
                lambda mode, n=n, S=S, surface=surface:
                special.elementary_abelian_census(n, S, surface, mode).total
            )
    rng = random.Random(24)
    for m in (4, 6, 10, 16, 22, 36):  # even m: every surface's exponents are integral
        G = named_group("dihedral", 2 * m)
        S = involution_triple(rng, G)
        for surface in "ONL":
            cases[f"dih-{surface}-{2 * m}"] = (
                lambda mode, G=G, S=S, surface=surface:
                special.three_involution_census(G, S, surface, mode).total
            )
    return cases


CASES = _cases()


def outcome(f, *args):
    """f(*args), or the ``NonIntegralSum`` it raises."""
    try:
        return f(*args)
    except NonIntegralSum as e:
        return e


@pytest.fixture
def pairs(monkeypatch):
    """Each decimal sum the closed forms form, next to the binary sum of
    the same terms; either may be a refusal."""
    out = []

    def recorded(terms, divisor, base=1, in_decimal=False):
        total = outcome(exact_quotient, terms, divisor, base, in_decimal)
        if in_decimal:
            out.append((total, outcome(exact_quotient, terms, divisor, base)))
        if isinstance(total, NonIntegralSum):
            raise total
        return total

    monkeypatch.setattr(special, "exact_quotient", recorded)
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_decimal_total_prints_the_binary_total(case, pairs):
    report = outcome(CASES[case], "exact")
    [(total, binary)] = pairs
    if isinstance(binary, NonIntegralSum):  # elem2 at n = 2 off the orientable side
        assert report is total and str(total) == str(binary) and total.token == binary.token
        return
    assert isinstance(total, Decimal) and isinstance(binary, int)
    assert report.exact_value is total
    text = str(total)
    assert text == cli.decimal_string(binary)
    assert "E" not in text and total.as_tuple().exponent == 0


@pytest.mark.parametrize("case", list(CASES))
def test_total_log2_is_the_same_in_exact_and_log2_mode(case, pairs):
    exact, log2 = outcome(CASES[case], "exact"), outcome(CASES[case], "log2")
    assert len(pairs) == 1  # log2 mode forms no decimal sum
    if isinstance(exact, NonIntegralSum):
        assert str(log2) == str(exact)
        return
    assert cli._fmt_log2(exact.log2_value) == cli._fmt_log2(log2.log2_value)


def test_log2_and_modular_modes_sum_in_binary(pairs):
    for mode in ("log2", "modp:1000003"):
        special.sym_orientable_census(9, mode)
        special.elementary_abelian_census(14, tuple(1 << i for i in range(14)), "L", mode)
    assert pairs == []


def test_the_cli_prints_a_decimal_total_as_digits():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sym-grr", "7", "--surface", "L", "--kv"]) == 0
    [line] = [line for line in out.getvalue().splitlines() if line.startswith("total=")]
    assert line[len("total="):].isdigit()


def reference_sum(terms, base):
    return sum(Fraction(num * base**b << e, d) for e, b, num, d in terms)


@pytest.mark.parametrize("terms, divisor, base", [
    ([(0, 0, 1, 3)], 1, 1),
    ([(1, 0, 3, 4), (0, 0, 1, 1)], 1, 1),
    ([(0, 0, -7, 4)], 1, 1),
    ([(3, 2, 5, 9), (40, 1, -1, 6), (7, 3, 2, 1)], 11, 6),
    ([(5, 0, 1, 1)], 3, 1),
    ([(0, 0, -32, 1)], 3, 1),
    ([(12000, 0, 1, 1), (0, 0, 1, 1)], 7, 1),
    ([(2, 4, 1, 1), (9, 2, 3, 1)], 5, 12),
])
def test_a_non_integral_sum_is_refused_alike_in_both_radices(terms, divisor, base):
    whole = reference_sum(terms, base)
    if whole.denominator != 1:
        expected = f"census sum {whole} is not an integer"
    else:
        expected = f"census sum {whole} not divisible by {divisor}"
    errors = []
    for in_decimal in (False, True):
        with pytest.raises(NonIntegralSum) as info:
            exact_quotient(terms, divisor, base, in_decimal)
        errors.append(info.value)
    assert [str(e) for e in errors] == [expected, expected]
    assert [e.token for e in errors] == ["NonIntegralSum"] * 2


def test_an_integral_sum_is_the_same_in_both_radices():
    rng = random.Random(5)
    for _ in range(40):
        base = rng.randint(1, 5040)
        terms = [(rng.randint(0, 300), rng.randint(0, 40), rng.randint(-50, 50), 1)
                 for _ in range(rng.randint(1, 6))]
        whole = reference_sum(terms, base)
        divisor = rng.choice([d for d in range(1, 30) if whole % d == 0])
        binary = exact_quotient(terms, divisor, base)
        total = exact_quotient(terms, divisor, base, in_decimal=True)
        assert binary == whole / divisor
        assert str(total) == str(binary)


def midpoint(rng, prec, shift):
    """An integer halfway between two neighbouring prec-bit floats."""
    man = rng.getrandbits(prec - 1) | 1 << (prec - 1)
    return (2 * man + 1) << shift


@pytest.mark.parametrize("dps", [15, 60])
def test_mpf_of_a_decimal_is_the_mpf_of_its_int(dps, monkeypatch):
    converted = []
    original = formulas.mpf_of_int

    def counted(n):
        if isinstance(n, int) and n.bit_length() > 300:
            converted.append(n)
        return original(n)

    monkeypatch.setattr(formulas, "mpf_of_int", counted)
    rng = random.Random(dps)
    with mp.workdps(dps):
        prec = mp.mp.prec
        values = [1, 7, 10**40, 10**79 - 1, 10**79, 10**80, 10**81 + 1, 10**300, 2**prec + 1]
        values += [rng.getrandbits(rng.randint(100, 5000)) for _ in range(40)]
        values += [(1 << 1000) - 1, 1 << 1000, 3 << 2000]
        ties = [midpoint(rng, prec, shift) for shift in (400, 1000, 3000)]
        for n in values + ties:
            assert original(Decimal(n)) == original(n), n
    # a tie lies within the leading digits' bounds, so it is converted
    assert [n for n in converted if n in ties] == ties
    assert not [n for n in converted if n in values]


def test_log2_of_a_decimal_total_is_the_log2_of_its_int():
    total = special.sym_orientable_census(9, "exact").total.exact_value
    assert log2_of_int(total) == log2_of_int(int(total))
    assert log2_of_int(Decimal(0)) == mp.ninf
