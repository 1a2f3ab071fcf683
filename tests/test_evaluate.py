"""The term-sum evaluator: pruned log2 sums, top-bits log2, modular
residues and decimal output, each against a plain reference."""

import hashlib
import random
import sys
from fractions import Fraction
from math import factorial, gcd

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleymaps import cli, fixture
from cayleymaps.errors import BadParameter, CapExceeded, InternalInconsistency, NonIntegralSum
from cayleymaps.formulas import census, exact_quotient, log2_of_int, mpf_of_int, term_report
from cayleymaps.special import sym_locally_census, sym_orientable_census


def reference_log2_sum(terms, divisor):
    """The unpruned sum the evaluator must reproduce bit for bit: every
    term's log through mpmath, the star picked as the first maximum, every
    other term added to the accumulator in order.  Terms are (e, num, den)."""
    e_max = max(e for e, num, den in terms if num)
    with mp.workdps(60 + len(str(e_max))):
        keyed = []
        for e, num, den in terms:
            if num:
                f = mp.log(mp.mpf(num), 2) - mp.log(mp.mpf(den), 2)
                keyed.append((e, f))
        star = max(range(len(keyed)), key=lambda i: mp.mpf(keyed[i][0]) + keyed[i][1])
        e0, f0 = keyed[star]
        acc = mp.mpf(1)
        for i, (e, f) in enumerate(keyed):
            if i != star:
                acc += mp.power(2, mp.mpf(e - e0) + (f - f0))
        return mp.mpf(e0) + f0 + mp.log(acc, 2) - mp.log(mp.mpf(divisor), 2)


def pruned_log2_sum(terms, divisor):
    value = term_report([(e, 0, num, den) for e, num, den in terms], divisor, "log2").log2_value
    assert isinstance(value, mp.mpf)
    return value


def prec_for(e_max):
    with mp.workdps(60 + len(str(e_max))):
        return mp.mp.prec


def random_terms(rng):
    top = rng.choice([40, 3_000, 10**9, 10**30])
    p = prec_for(top)
    terms = []
    for _ in range(rng.randint(1, 25)):
        kind = rng.random()
        if kind < 0.3:  # near the top: ties and near-ties for the star
            e = top - rng.randint(0, 3)
        elif kind < 0.7:  # around the skip threshold, p + 8 below the top
            e = max(0, top - p - rng.randint(-12, 12))
        else:
            e = rng.randint(0, top)
        num = rng.randint(1, 1 << rng.randint(1, 70))
        den = rng.randint(1, 1 << rng.randint(0, 12))
        terms.append((e, num, den))
    if rng.random() < 0.3:
        terms.append(terms[rng.randrange(len(terms))])  # an exact tie
    if rng.random() < 0.2:
        terms.insert(rng.randrange(len(terms) + 1), (top, 0, 1))  # zero terms drop out
    return terms


def terms_near_one(rng):
    """Terms of a sum near 1, whose log2 keeps every bit of the accumulator:
    a different rounding anywhere in it shows in the result."""
    p = prec_for(0)
    terms = [(0, 1, 1)]
    for _ in range(rng.randint(1, 25)):
        j = rng.choice([0, 1, 2, rng.randint(p - 12, p + 24), rng.randint(p - 12, p + 24)])
        num = rng.randint(1, 1 << rng.randint(1, 12))
        terms.append((0, num, (1 << j) * rng.choice([1, 1, 3, 5])))
    rng.shuffle(terms)
    if rng.random() < 0.5:  # a tie for the star: the first one must win
        top = max(terms, key=lambda t: Fraction(t[1], t[2]))
        terms.insert(rng.randrange(len(terms) + 1), top)
    return terms


@pytest.mark.parametrize("seed", range(60))
def test_pruned_log2_sum_equals_the_unpruned_sum(seed):
    rng = random.Random(seed)
    terms = random_terms(rng)
    divisor = rng.choice([1, 6, 5040, factorial(30)])
    assert pruned_log2_sum(terms, divisor) == reference_log2_sum(terms, divisor)


@pytest.mark.parametrize("seed", range(200))
def test_pruned_log2_sum_keeps_every_bit_near_one(seed):
    terms = terms_near_one(random.Random(seed))
    assert pruned_log2_sum(terms, 1) == reference_log2_sum(terms, 1)


def test_pruned_log2_sum_on_hand_made_lists():
    top = 10**6
    p = prec_for(top)
    cases = [
        [(top, 1, 1)],  # a single term
        [(17, 5, 3)],  # a single term below 1 after the divisor
        [(top, 3, 1), (top + 1, 3, 2)],  # equal values, different keys
        [(top, 3, 2), (top - 1, 3, 1), (top, 3, 2)],
        [(top, 7, 4), (top, 7, 4), (top - 2, 28, 4)],
        [(3, 1, 1), (1, 4, 1), (0, 8, 1)],  # all equal to 8
        [(top, 1, 1), (top - 3, 8, 1), (top - 4, 17, 1)],  # near-ties within the margin
    ]
    # Terms on either side of the skip threshold hi < top - (p + 8) of the
    # star 2^top; some of them are large enough to move the last bit.
    for e in range(top - p - 16, top - p - 4):
        for num in (1, 3, 255, 256, 257, (1 << 9) - 1):
            cases.append([(top, 1, 1), (e, num, 1)])
            cases.append([(e, num, 1), (top, 1, 1), (e, num, 1)])
            cases.append([(top, 1, 1), (e, num, 3)])
    cases.append([(top, 1, 1)] + [(top - p + 1, 1, 1)] * 3)
    cases.append([(top, 1, 1)] + [(top - p - 9, 1, 1)] * 40)
    for terms in cases:
        for divisor in (1, 7):
            assert pruned_log2_sum(terms, divisor) == reference_log2_sum(terms, divisor), terms


def signed_log2_check(terms, divisor):
    total = sum(Fraction(num * 2**e, den) for e, num, den in terms)
    value = term_report([(e, 0, num, den) for e, num, den in terms], divisor, "log2").log2_value
    with mp.workdps(120):
        expected = mp.log(mp.mpf(total.numerator) / total.denominator / divisor, 2)
    assert abs(value - expected) < mp.mpf(2) ** -150


def test_signed_terms_are_summed_without_pruning():
    # mixed signs below a dominant 2^200, against the exact rational at
    # higher precision
    rng = random.Random(3)
    for _ in range(20):
        terms = [(rng.randint(50, 120), rng.choice([1, -1]) * rng.randint(1, 1000), 1) for _ in range(6)]
        signed_log2_check(terms + [(200, 1, 1)], 3)
    # 2^1000 - 2^999 - ... - 2^850 = 2^850 cancels 150 bits, so a term far
    # below the skip threshold of a positive sum still moves the value
    p = prec_for(1000)
    cancelling = [(1000, 1, 1)] + [(1000 - i, -1, 1) for i in range(1, 151)]
    signed_log2_check(cancelling + [(1000 - p - 20, 1, 1)], 3)


@pytest.mark.parametrize(
    "n,surface", [(7, "O"), (7, "L"), (13, "O"), (13, "L"), (19, "O"), (19, "L"),
                  (24, "O"), (25, "O"), (25, "L"), (30, "O")],
)
def test_sym_log2_equals_the_unpruned_sum(n, surface):
    census_fn = sym_orientable_census if surface == "O" else sym_locally_census
    res = census_fn(n, "log2")
    rows = res.rows
    terms = [
        (rows.exponents[t], rows.sizes[s], 1)
        for t, s in zip(rows.term_id.tolist(), rows.size_id.tolist())
    ]
    nf = factorial(n)
    expected = reference_log2_sum(terms, nf)
    assert pruned_log2_sum(terms, nf) == expected
    if n > 10:  # below that the log2 comes from the exact total
        assert res.total.log2_value == expected


def exact_log2(n):
    with mp.workdps(60):
        return mp.log(mp.mpf(n), 2)


def test_log2_of_int_equals_the_log_of_the_rounded_integer():
    with mp.workdps(60):
        p = mp.mp.prec
    values = [1, 2, 3, 10**50, (1 << 300) - 1]
    for k in range(p - 4, p + 24):
        values += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    for k in (p + 9, p + 10, p + 40, 1000, 4096, 100_000):
        top = 1 << k
        for j in range(p - 2, p + 3):
            # around 2^(k-p), half an ulp of 2^k: exact ties, ties with an
            # odd last kept bit, and one above each
            half = 1 << (k - j)
            values += [top + half, top + half + 1, top + 3 * half, top + 3 * half + 1]
        values += [2 * top - 1, 2 * top - (1 << (k - p))]
    rng = random.Random(11)
    values += [rng.getrandbits(rng.randint(1, 1_000_000)) | 1 for _ in range(20)]
    for v in values:
        with mp.workdps(60):
            assert mpf_of_int(v) == mp.mpf(v), v
        assert log2_of_int(v) == exact_log2(v), v


def random_integral_sum(rng):
    """Terms (e, 0, num, den) with an integral sum, and a divisor of it."""
    terms = [(rng.randint(0, 300), 0, rng.randint(-10**6, 10**6), rng.choice([1, 3, 5, 9, 35]))
             for _ in range(rng.randint(1, 8))]
    total = sum(Fraction(num << e, den) for e, _, num, den in terms)
    terms.append((0, 0, -total.numerator % total.denominator, total.denominator))
    whole = int(total + Fraction(terms[-1][2], terms[-1][3]))
    divisor = gcd(whole, 2**10 * 3 * 5 * 7) or 1
    return terms, whole, divisor


def test_exact_quotient_and_residues_agree():
    rng = random.Random(5)
    for _ in range(100):
        terms, whole, divisor = random_integral_sum(rng)
        q = exact_quotient(terms, divisor)
        assert q * divisor == whole
        for p in (11, 13, 1_000_003, 2**31 - 1):
            if any(den % p == 0 for *_, den in terms):
                continue
            assert term_report(terms, divisor, f"modp:{p}").residue == q % p
            assert term_report(terms, divisor, f"modp:{p}", exact=q).residue == q % p
        with pytest.raises(InternalInconsistency):
            term_report(terms, divisor, "modp:1000003", exact=q + 1)


def test_residues_use_exact_powers():
    # a base and composite moduli coprime to the divisor: no Fermat shortcut
    terms = [(70, 3, 5, 1), (2, 9, -1, 1), (0, 0, 4, 1)]
    whole = 5 * 6**3 * 2**70 - 6**9 * 4 + 4
    for p in (2, 9, 15, 49, 1_000_003):
        assert term_report(terms, 1, f"modp:{p}", base=6).residue == whole % p
    assert exact_quotient(terms, 1, base=6) == whole


# a term (e, b, num, den); b = 0, repeated b and b doubling the one below
# all occur, and base = 2^twos * odd
_terms = st.lists(
    st.tuples(
        st.integers(0, 80),
        st.one_of(st.integers(0, 40), st.sampled_from([0, 8, 16, 32])),
        st.integers(-10**6, 10**6),
        st.sampled_from([1, 1, 3, 5, 9]),
    ),
    min_size=1,
    max_size=8,
)


@settings(deadline=None)
@given(st.integers(0, 12), st.integers(0, 50), _terms, st.sampled_from([1, 2, 3, 4, 7, 12]),
       st.booleans())
@example(0, 0, [(3, 5, 2, 1), (0, 5, -1, 1), (1, 0, 7, 1)], 1, False)  # base 1
@example(12, 0, [(0, 0, 1, 1), (0, 16, -3, 1), (2, 32, 5, 1)], 4, False)  # base 2^12
def test_exact_quotient_equals_the_plain_power_sum(twos, half_odd, terms, divisor, whole):
    base = (2 * half_odd + 1) << twos
    total = sum(Fraction(num * base**b << e, den) for e, b, num, den in terms)
    if whole:  # one more term makes the sum an integer
        terms = terms + [(0, 0, -total.numerator % total.denominator, total.denominator)]
        total += Fraction(terms[-1][2], terms[-1][3])
    if total.denominator == 1 and total.numerator % divisor == 0:
        assert exact_quotient(terms, divisor, base) == total.numerator // divisor
    else:
        with pytest.raises(NonIntegralSum):
            exact_quotient(terms, divisor, base)


def test_term_report_modes_and_refusals():
    terms = [(3, 0, 5, 1), (0, 0, 2, 1)]  # 42
    assert term_report(terms, 7, "exact", exact=6).exact_value == 6
    assert term_report(terms, 7, "log2", exact=6).log2_value == log2_of_int(6)
    with pytest.raises(CapExceeded):
        term_report(terms, 7, "exact")
    with pytest.raises(BadParameter, match="divides the normalizer"):
        term_report(terms, 7, "modp:7")
    with pytest.raises(BadParameter, match="divides a census term"):
        term_report([(0, 0, 5, 11)], 1, "modp:11")
    with pytest.raises(NonIntegralSum, match="not divisible by 5"):
        exact_quotient(terms, 5)
    with pytest.raises(NonIntegralSum, match="census sum 1/3 is not an integer"):
        exact_quotient([(0, 0, 1, 3)], 1)


def test_census_refuses_a_modulus_dividing_the_acting_group():
    fx = fixture("CUBE")
    with pytest.raises(BadParameter, match="divides the normalizer"):
        census(fx.group, fx.cayset, surface="L", mode="modp:2")
    exact = census(fx.group, fx.cayset, surface="N").count.exact_value
    assert census(fx.group, fx.cayset, surface="N", mode="modp:3").count.residue == exact % 3


def parse_digits(s):
    """Digits to int by halves: subquadratic, and independent of decimal."""
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


def test_decimal_string_matches_str():
    values = [0, 1, 9, 10, 12345, -7, 2**8192, 2**8192 - 1, 2**8193]
    for k in (2466, 2467, 4000):
        values += [10**k - 1, 10**k, 10**k + 1, -(10**k)]
    rng = random.Random(2)
    values += [rng.getrandbits(rng.randint(8000, 14000)) for _ in range(10)]
    values += [-1, -(rng.getrandbits(166_100) | 1 << 166_099)]  # 50,001 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for v in values:
            assert cli.decimal_string(v) == str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_string_of_big_integers():
    rng = random.Random(4)
    for bits in (20_000, 150_000, 400_000, 3_000_000):
        v = rng.getrandbits(bits) | (1 << (bits - 1))
        s = cli.decimal_string(v)
        assert s.isdigit() and s[0] != "0"
        assert parse_digits(s) == v
    for k in (20_000, 300_000):
        assert cli.decimal_string(10**k) == "1" + "0" * k
        assert cli.decimal_string(10**k - 1) == "9" * k


BIG_OUTPUTS = {
    ("sym-grr", "10", "--surface", "O"):
        "cda4092c34b4f46b4963917c8a554ed99aa37363d48d23b2dfa7c57d6573c5b7",
    ("sym-grr", "10", "--surface", "O", "--kv"):
        "ddb8745025d1fa49c66f72afeb165ad9597cdabd8c6bbdd25f19249c6f522c66",
    ("elem2", "16", "SET"):
        "175f9eeb4d52470c7e8a9ecb2fc92cd3bdd2d3a3f98e7e5fb4387068735cd971",
    ("elem2", "16", "SET", "--kv"):
        "9fc2bb3ab728ca48d4416c1868a47702f4795b20f698348128e376ec432bda62",
    ("sym-grr", "40", "--surface", "O", "--mode", "log2"):
        "6d5282701dd474a64ea69e100d87fdc5a2bf98779e80b15c468883fee75d7422",
    ("sym-grr", "40", "--surface", "O", "--mode", "log2", "--kv"):
        "5ee70622130f7c383a6cb85c02538715c0def756a57be3aea213a7792a8c5fb1",
    ("sym-grr", "43", "--surface", "L", "--mode", "log2"):
        "4075b5be1cdf6a6be1232c6a2991cfcb3d7d9a269fb34c9e244ce33f0dcd5d62",
    ("sym-grr", "43", "--surface", "L", "--mode", "log2", "--kv"):
        "762b2c17cd35a74167155aaa6eac79051f65269501b000d5210ded0d9631ef50",
}


@pytest.mark.parametrize("argv", list(BIG_OUTPUTS), ids=" ".join)
def test_big_exact_outputs_are_frozen(argv, tmp_path, capsys):
    """Outputs of more than a million bytes, frozen as stdout digests: the
    exact totals of about a million digits of sym-grr 10 on the orientable
    side and of elem2 16 on the default L side, with S the unit vectors
    and the all-ones vector; and the log2-mode class tables of sym-grr 40
    on O and 43 on L (37,338 and 63,261 rows)."""
    cayset = tmp_path / "e16.set"
    cayset.write_text("cayset 17\n" + " ".join(str(1 << i) for i in range(16)) + " 65535\n")
    args = [str(cayset) if a == "SET" else a for a in argv]
    assert cli.main(args) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) > 1_000_000
    assert hashlib.sha256(out).hexdigest() == BIG_OUTPUTS[argv]
