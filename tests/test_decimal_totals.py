"""Exact-mode totals of the closed forms, formed in decimal: each against
the binary sum of the same terms, which modular mode still forms.  log2
mode forms no exact sum: it checks integrality modularly and reads the
log-sum.

Every total is printed by ``str``; here it must equal the binary total's
digits, carry no exponent, and give the same ``total-log2`` as log2 mode.

``formulas.term_report`` alone decides what each mode forms; the last
tests pin, family by family and mode by mode, which totals it forms, in
which radix, and where it checks integrality instead.
"""

import contextlib
import io
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from cayleymaps import cli, formulas, named_group, special
from cayleymaps.errors import CapExceeded, NonIntegralExponent, NonIntegralSum
from cayleymaps.formulas import check_integral, exact_quotient, log2_of_int
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
    the same terms; either may be a refusal.  ``exact_quotient`` is
    wrapped in ``formulas``, where ``term_report`` forms the sums, and in
    ``special``, which forms (1 + 1)/2 for ``elem2`` at n = 1."""
    out = []

    def recorded(terms, divisor, base=1, in_decimal=False):
        total = outcome(exact_quotient, terms, divisor, base, in_decimal)
        if in_decimal:
            out.append((total, outcome(exact_quotient, terms, divisor, base)))
        if isinstance(total, NonIntegralSum):
            raise total
        return total

    monkeypatch.setattr(formulas, "exact_quotient", recorded)
    monkeypatch.setattr(special, "exact_quotient", recorded)
    return out


def parse_digits(s: str) -> int:
    """Digits to int by halves, subquadratic: ``str`` of a binary total of
    a million digits takes seconds, and ``int`` of a string as long."""
    pow10 = {}

    def rec(lo, hi):
        if hi - lo <= 3000:
            return int(s[lo:hi])
        mid = (lo + hi) // 2
        k = hi - mid
        if k not in pow10:
            pow10[k] = 10**k
        return rec(lo, mid) * pow10[k] + rec(mid, hi)

    return rec(0, len(s))


@pytest.mark.parametrize("case", list(CASES))
def test_decimal_total_prints_the_binary_total(case, pairs):
    report = outcome(CASES[case], "exact")
    if case == "elem2-O-1":  # (1 + 1)/2, formed in binary in every mode
        assert pairs == [] and report.exact_value == 1 and type(report.exact_value) is int
        return
    [(total, binary)] = pairs
    if isinstance(binary, NonIntegralSum):  # elem2 at n = 2 off the orientable side
        assert report is total and str(total) == str(binary) and total.token == binary.token
        return
    assert isinstance(total, Decimal) and isinstance(binary, int)
    assert report.exact_value is total
    text = str(total)
    assert text.isdigit() and parse_digits(text) == binary
    assert "E" not in text and total.as_tuple().exponent == 0


@pytest.mark.parametrize("case", list(CASES))
def test_total_log2_is_the_same_in_exact_and_log2_mode(case, pairs):
    exact, log2 = outcome(CASES[case], "exact"), outcome(CASES[case], "log2")
    # log2 mode forms no decimal sum, exact mode one but at n = 1
    assert len(pairs) == (case != "elem2-O-1")
    if isinstance(exact, NonIntegralSum):
        assert str(log2) == str(exact)
        return
    assert cli._fmt_log2(exact.log2_value) == cli._fmt_log2(log2.log2_value)


def test_log2_and_modular_modes_sum_in_binary(pairs):
    for mode in ("log2", "modp:1000003"):
        special.sym_orientable_census(9, mode)
        special.elementary_abelian_census(14, tuple(1 << i for i in range(14)), "L", mode)
    assert pairs == []


def test_log2_mode_forms_an_exact_sum_only_to_word_a_refusal(monkeypatch):
    calls = []

    def recorded(f):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(special, "exact_quotient", recorded(special.exact_quotient))
    monkeypatch.setattr(formulas, "exact_quotient", recorded(formulas.exact_quotient))
    refused = []
    for case, run in CASES.items():
        if not case.startswith(("sym-", "elem2-")) or case == "elem2-O-1":
            continue  # n = 1 reports its count (1 + 1)/2 in every mode
        del calls[:]
        report = outcome(run, "log2")
        if isinstance(report, NonIntegralSum):
            assert len(calls) == 1, case
            refused.append(case)
        else:
            assert calls == [] and report.mode == "log2", case
    assert refused == ["elem2-N-2", "elem2-L-2"]


@pytest.mark.parametrize("surface, text", [
    ("L", "census sum 10 not divisible by 4"),
    ("N", "census sum 6 not divisible by 4"),
])
def test_elem2_on_the_4_cycle_refuses_in_log2_mode(surface, text, capsys):
    # Cay((Z_2)^2 : {e_1, e_2}) is the 4-cycle; off the orientable side its
    # published sum is not a multiple of |G| = 4
    with pytest.raises(NonIntegralSum) as info:
        special.elementary_abelian_census(2, (1, 2), surface, "log2")
    assert str(info.value) == text and info.value.token == "NonIntegralSum"
    assert str(outcome(special.elementary_abelian_census, 2, (1, 2), surface, "exact")) == text


def random_terms(rng: random.Random, count: int, dens: int):
    return [(rng.randint(0, 300), rng.randint(0, 40), rng.randint(-50, 50), rng.randint(1, dens))
            for _ in range(count)]


def test_the_modular_integrality_check_refuses_as_the_exact_sum_does():
    rng = random.Random(11)
    outcomes = {"integral": 0, "not an integer": 0, "not divisible": 0}
    for i in range(300):
        base = rng.choice([1, 2, 6, 24, 120, rng.randint(1, 5040)])
        terms = random_terms(rng, rng.randint(1, 6), 12 if i % 3 else 1)
        whole = reference_sum(terms, base)
        if i % 2 and whole.denominator == 1:  # half of the integral sums divide evenly
            divisor = rng.choice([d for d in range(1, 30) if whole % d == 0])
        else:
            divisor = rng.randint(1, 30)
        expected = outcome(exact_quotient, terms, divisor, base)
        checked = outcome(check_integral, terms, divisor, base)
        if isinstance(expected, NonIntegralSum):
            assert type(checked) is NonIntegralSum and str(checked) == str(expected)
            outcomes["not an integer" if "integer" in str(expected) else "not divisible"] += 1
        else:
            assert checked is None and expected == whole / divisor
            outcomes["integral"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_the_factor_memo_equals_the_binary_sum():
    # (b, s) pairs whose halves lie several factors back, pairs that share
    # b, the same (b, s) given more than once, and coefficients of both signs
    rng = random.Random(12)
    for _ in range(40):
        base = rng.choice([1, 2, 3, 12, 5040, rng.randint(1, 720)])
        twos = (base & -base).bit_length() - 1
        b0, s0 = rng.randint(1, 9), rng.randint(twos * 9, 60)
        pairs = [(b0 << j, s0 << j) for j in range(rng.randint(2, 5))]
        pairs += [(b + rng.randint(1, 3), s + rng.randint(1, 40)) for b, s in pairs]
        pairs += [(b, s + rng.randint(1, 40)) for b, s in pairs[::2]]
        pairs += rng.sample(pairs, 3)
        terms = [(s - twos * b, b, rng.choice([-1, 1]) * rng.randint(1, 99), rng.choice([1, 1, 3]))
                 for b, s in pairs if s >= twos * b]
        whole = reference_sum(terms, base)
        divisor = rng.choice([d for d in range(1, 12) if whole % d == 0] or [1])
        binary = outcome(exact_quotient, terms, divisor, base)
        total = outcome(exact_quotient, terms, divisor, base, True)
        assert str(total) == str(binary) and type(total) in (Decimal, NonIntegralSum)
        if whole.denominator == 1:
            assert binary == whole / divisor


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


# What each mode forms.  ``exact_quotient`` and ``check_integral`` are
# wrapped wherever a module holds them, so a closed form that formed or
# checked a total itself would be recorded too.

DECIMAL, BINARY, CHECK = "decimal total", "binary total", "integrality check"


@pytest.fixture
def forms(monkeypatch):
    """Every total formed, by the radix asked for, and every modular
    integrality check, in order.  A total is formed in binary here, whatever
    radix is recorded: the radix changes no value, and a binary sum of a
    million digits costs a fraction of a decimal one."""
    events = []
    quotient, check = formulas.exact_quotient, formulas.check_integral

    def recorded_quotient(terms, divisor, base=1, in_decimal=False):
        events.append(DECIMAL if in_decimal else BINARY)
        return quotient(terms, divisor, base)

    def recorded_check(terms, divisor, base=1):
        events.append(CHECK)
        return check(terms, divisor, base)  # forms a binary total on a refusal

    for module in (formulas, special):
        for name, wrapper in (("exact_quotient", recorded_quotient),
                              ("check_integral", recorded_check)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return events


def _form_cases():
    """(name, run, checked): ``checked`` holds where the family's sum is
    checked in modular and log2 modes, at or below its exact-mode cap;
    ``three-inv`` never checks it."""
    cases = []
    for n in range(1, 13):
        cases.append((f"sym-O-{n}", lambda mode, n=n: special.sym_orientable_census(n, mode),
                      n <= special.SYM_EXACT_CAP))
    for n in (7, 13):
        cases.append((f"sym-L-{n}", lambda mode, n=n: special.sym_locally_census(n, mode),
                      n <= special.SYM_EXACT_CAP))
    cases.append(("elem2-O-1", lambda mode: special.elementary_abelian_census(1, (1,), "O", mode),
                  None))
    for n in [*range(2, 17), 17, 24]:
        rng = random.Random(100 + n)
        ks = (2, 3) if n == 2 else range(n + 1, n + 4)  # k = 2: the 4-cycle, refused off O
        for k in ks:
            S = spanning_set(rng, n, k)
            for surface in "ONL":
                cases.append((
                    f"elem2-{surface}-{n}-{k}",
                    lambda mode, n=n, S=S, surface=surface:
                    special.elementary_abelian_census(n, S, surface, mode),
                    n <= special.ELEM2_EXACT_CAP,
                ))
    rng = random.Random(29)
    for m in (3, 4, 5, 6, 7, 9, 10, 12, 15, 18):  # odd m: fractional exponents off O
        G = named_group("dihedral", 2 * m)
        S = involution_triple(rng, G)
        for surface in "ONL":
            cases.append((
                f"dih-{surface}-{2 * m}",
                lambda mode, G=G, S=S, surface=surface:
                special.three_involution_census(G, S, surface, mode),
                False,
            ))
    return cases


FORM_CASES = _form_cases()


def expected_forms(mode: str, checked: bool | None, result) -> list[str]:
    """What the closed forms form in ``mode``: exact mode a decimal total;
    modular mode a binary total to cross-check, and log2 mode a modular
    integrality check, only where ``checked``.  A refusal before the sum
    (a cap, a fractional exponent) forms nothing, and a refused check
    forms the binary total that words it.  ``checked`` None is ``elem2``
    at n = 1, whose (1 + 1)/2 is formed in binary in every mode."""
    if checked is None:
        return [BINARY]
    if isinstance(result, (CapExceeded, NonIntegralExponent)):
        return []
    if mode == "exact":
        return [DECIMAL]
    if not checked:
        return []
    if mode == "log2":
        return [CHECK, BINARY] if isinstance(result, NonIntegralSum) else [CHECK]
    return [BINARY]


@pytest.mark.parametrize("mode", ["exact", "log2", "modp:1000003"])
def test_each_mode_forms_what_term_report_decides(mode, forms):
    tally = {DECIMAL: 0, BINARY: 0, CHECK: 0, "refused": 0}
    for name, run, checked in FORM_CASES:
        del forms[:]
        try:
            result = run(mode)
        except (CapExceeded, NonIntegralExponent, NonIntegralSum) as e:
            result = e
            tally["refused"] += 1
        assert forms == expected_forms(mode, checked, result), name
        for event in forms:
            tally[event] += 1
    # every branch above is taken: the refusals are the caps (sym n = 11,
    # 12 and 13, elem2 n = 17 and 24), the fractional exponents of odd m
    # and the 4-cycle's sum
    assert tally == {
        "exact": {DECIMAL: 163, BINARY: 1, CHECK: 0, "refused": 33},
        "log2": {DECIMAL: 0, BINARY: 3, CHECK: 143, "refused": 2},
        "modp:1000003": {DECIMAL: 0, BINARY: 144, CHECK: 0, "refused": 12},
    }[mode]
