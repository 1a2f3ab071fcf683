"""Worked censuses for three families of graphs with a regular
automorphism representation.

Symmetric groups with a cubic connection set {x, y, y^-1}, x^2 = y^3 = e,
are summed over integer partitions rather than group elements: a partition
stands for the conjugacy class of that cycle type, with class size
n!/prod(i^{k_i} k_i!) and element order lcm of its parts.  The locally
orientable sum needs, per class, only whether the half-order power lands in
one special involution class, and the power of a class is computed
combinatorially (an i-cycle raised to the j-th power splits into gcd(i,j)
cycles of length i/gcd(i,j)) without touching any permutation.

The other two families (groups generated by three involutions, elementary
abelian 2-groups) have closed forms per conjugacy class; both are evaluated
as published, with the published inverted-edge counts recomputable from
first principles so discrepancies surface instead of hiding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

import mpmath as mp

from .cayley import validate_cayley_set
from .errors import (
    CONTAINS_IDENTITY,
    NOT_GENERATING,
    TOO_SMALL,
    BadParameter,
    CapExceeded,
    CaySetInvalid,
    InternalInconsistency,
    NonIntegralExponent,
    NonIntegralSum,
    NotInvolutions,
)
from .formulas import (
    CountReport,
    acting_stats,
    class_stats,
    log2_of_int,
    parse_mode,
    phi_exact,
)
from .groups import FiniteGroup, conjugacy_classes, element_order, subgroup_closure
from .perm import cycle_type

# A partition of n as cycle-type multiplicities: entry i-1 counts i-cycles.
Partition = tuple[int, ...]

SYM_EXACT_CAP = 10
SYM_BIG_CAP = 60
ELEM2_EXACT_CAP = 16
ELEM2_BIG_CAP = 64

# The Hetzel/Godsil classification: every group outside these families has
# a graphical regular representation.  Reference data only; nothing below
# consults it.
GRR_EXCEPTIONS = (
    "abelian groups of exponent greater than 2",
    "generalized dicyclic groups",
    "Z_2^2",
    "Z_2^3",
    "Z_2^4",
    "D_6",
    "D_8",
    "D_10",
    "A_4",
    "<a,b,c | a2=b2=c2=1, abc=bca=cab>",
    "<a,b | a8=b2=1, bab=b5>",
    "<a,b,c | a3=c3=b2=1, ac=ca, (ab)2=(cb)2=1>",
    "<a,b,c | a3=b3=c3=1, ac=ca, bc=cb, c=[a,b]>",
    "Q_8 x Z_3",
    "Q_8 x Z_4",
)


def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n as multiplicity vectors, largest first part first."""
    if n < 1:
        raise BadParameter(f"partitions of {n} undefined; need n >= 1")
    if n > SYM_BIG_CAP:
        raise CapExceeded(f"n = {n} exceeds the partition cap {SYM_BIG_CAP}")
    return tuple(_iter_partitions(n))


def _iter_partitions(n: int):
    counts = [0] * n

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield tuple(counts)
            return
        for part in range(min(remaining, max_part), 0, -1):
            counts[part - 1] += 1
            yield from rec(remaining - part, part)
            counts[part - 1] -= 1

    yield from rec(n, n)


def class_size(n: int, part: Partition) -> int:
    den = 1
    for i, k in enumerate(part, start=1):
        den *= i**k * factorial(k)
    return factorial(n) // den


def centralizer_order(part: Partition) -> int:
    out = 1
    for i, k in enumerate(part, start=1):
        out *= i**k * factorial(k)
    return out


def lcm_of_partition(part: Partition) -> int:
    return lcm(*[i for i, k in enumerate(part, start=1) if k])


def power_type(part: Partition, j: int) -> Partition:
    """Cycle type of g^j for g of cycle type ``part``."""
    out = [0] * len(part)
    for i, k in enumerate(part, start=1):
        if k:
            g = gcd(i, j)
            out[i // g - 1] += k * g
    return tuple(out)


def representative_of_type(part: Partition) -> tuple[int, ...]:
    """One permutation of the given cycle type, cycles laid out consecutively."""
    vm = []
    base = 0
    for i, k in enumerate(part, start=1):
        for _ in range(k):
            vm.extend(base + (j + 1) % i for j in range(i))
            base += i
    return tuple(vm)


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def special_involution_type(n: int) -> Partition:
    """The class holding the cubic generator x for n = 6m+1: [1^3 2^{3m-1}]
    when m is odd, [1^5 2^{3m-2}] when m is even."""
    m = _m_of(n)
    out = [0] * n
    if m % 2:
        out[0], out[1] = 3, 3 * m - 1
    else:
        out[0], out[1] = 5, 3 * m - 2
    return tuple(out)


def _m_of(n: int) -> int:
    m, r = divmod(n - 1, 6)
    if r or m < 1:
        raise BadParameter(f"n = {n} is not of the form 6m+1 with m >= 1")
    return m


@dataclass(frozen=True)
class SymClassInfo:
    partition: Partition
    class_size: int
    order: int
    half_power_type: Partition | None
    bucket: str  # "A" or "B"


def sym_class_info(n: int, part: Partition, special: Partition) -> SymClassInfo:
    o = lcm_of_partition(part)
    if o % 2:
        return SymClassInfo(part, class_size(n, part), o, None, "A")
    half = power_type(part, o // 2)
    bucket = "B" if half == special else "A"
    return SymClassInfo(part, class_size(n, part), o, half, bucket)


@dataclass(frozen=True)
class SymClassRow:
    info: SymClassInfo
    l_printed: int
    alpha_exponent: int | None  # None on the orientable side
    term_exponent: int


@dataclass(frozen=True)
class LTableRow:
    partition: Partition
    printed: int  # the published double-factorial expression
    recomputed: int  # centralizer order of the class, the abstract value


@dataclass(frozen=True)
class SymCensusResult:
    n: int
    surface: str
    special_type: Partition | None
    rows: tuple[SymClassRow, ...]
    l_table: tuple[LTableRow, ...] | None
    total: CountReport
    label: str | None


def _sym_caps(n: int, kind: str):
    if n < 1:
        raise BadParameter(f"need n >= 1, got {n}")
    cap = SYM_EXACT_CAP if kind == "exact" else SYM_BIG_CAP
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the {kind}-mode cap {cap}")


def _sym_label(n: int) -> str | None:
    # the cubic GRR construction is only proved from n = 19 up
    return None if n >= 19 else "formula value only"


def _printed_l(n: int, part: Partition) -> int:
    m = _m_of(n)
    t1, t2 = [0] * n, [0] * n
    t1[0], t1[1] = 3, 3 * m - 1
    t2[0], t2[1] = 5, 3 * m - 2
    if part == tuple(t1):
        return 6 * double_factorial(n - 3)
    if part == tuple(t2):
        return 120 * double_factorial(n - 2)  # (n-2)!! as published
    return 0


def sym_l_table(n: int) -> tuple[LTableRow, ...]:
    """The published inverted-edge counts next to their recomputation.

    The abstract count of t with t g^{o/2} t^{-1} = x is the centralizer
    order of x's class when g^{o/2} is conjugate to x, so the published
    double-factorial expressions should equal prod(i^{k_i} k_i!) on the two
    special classes.  The first line does; the second does not, and both
    values are reported.
    """
    rows = []
    for part in _iter_partitions(n):
        printed = _printed_l(n, part)
        if printed:
            rows.append(LTableRow(part, printed, centralizer_order(part)))
    return tuple(rows)


def _exact_from_terms(terms, divisor: int) -> int:
    total = sum(Fraction(num * (1 << e), den) for e, num, den in terms)
    if total.denominator != 1:
        raise NonIntegralSum(f"census sum {total} is not an integer")
    q, r = divmod(total.numerator, divisor)
    if r:
        raise NonIntegralSum(f"census sum {total} not divisible by {divisor}")
    return q


def _report_from_terms(terms, divisor: int, mode: str, exact_cross=None) -> CountReport:
    """Sum of num*2^e/den terms over a common divisor, in the given mode.

    ``terms`` is a list of (e, num, den); the sum (not each term) must be an
    integer multiple of ``divisor``.
    """
    kind, p = parse_mode(mode)
    if kind == "exact":
        if exact_cross is None:
            exact_cross = _exact_from_terms(terms, divisor)
        return CountReport(mode="exact", exact_value=exact_cross, log2_value=log2_of_int(exact_cross))
    if kind == "log2":
        if exact_cross is not None:
            return CountReport(mode="log2", log2_value=log2_of_int(exact_cross))
        return CountReport(mode="log2", log2_value=_log2_sum(terms, divisor))
    if p < 3:
        raise BadParameter(f"modulus {p} must be an odd prime")
    if divisor % p == 0:
        raise BadParameter(f"modulus {p} divides the normalizer {divisor}")
    acc = 0
    for e, num, den in terms:
        if num % p == 0 or den % p == 0:
            raise BadParameter(f"modulus {p} divides a census term")
        t = pow(2, e % (p - 1), p) * (num % p) * pow(den % p, -1, p)
        acc = (acc + t) % p
    residue = acc * pow(divisor % p, -1, p) % p
    if exact_cross is not None and residue != exact_cross % p:
        raise InternalInconsistency(
            f"modular path {residue} disagrees with exact value mod {p}"
        )
    return CountReport(mode="modp", residue=residue, prime=p)


def _log2_sum(terms, divisor: int) -> mp.mpf:
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


def _sym_exact_possible(n: int) -> bool:
    return n <= SYM_EXACT_CAP


def sym_orientable_census(n: int, mode: str = "exact") -> SymCensusResult:
    """Partition sum for maps of a cubic graph of Sigma_n on orientable
    surfaces: sum of 2^{n!/lcm} / prod(i^{k_i} k_i!)."""
    kind, p = parse_mode(mode)
    _sym_caps(n, kind)
    nf = factorial(n)
    rows = []
    terms = []
    for part in _iter_partitions(n):
        o = lcm_of_partition(part)
        size = class_size(n, part)
        e = nf // o
        info = SymClassInfo(part, size, o, None, "A")
        rows.append(SymClassRow(info, 0, None, e))
        terms.append((e, size, 1))
    total = _sym_total(terms, nf, kind, p, mode)
    return SymCensusResult(n, "O", None, tuple(rows), None, total, _sym_label(n))


def sym_locally_census(n: int, mode: str = "exact") -> SymCensusResult:
    """Partition sum for maps of the cubic graph of Sigma_n, n = 6m+1, on all
    surfaces: sum of 2^{alpha_1 + n!/lcm} / prod(i^{k_i} k_i!), the branch of
    alpha_1 decided by whether the half-order power of the class lies in the
    involution class of the generator x (b_1 for odd m, b_2 for even m)."""
    kind, p = parse_mode(mode)
    _sym_caps(n, kind)
    m = _m_of(n)
    special = special_involution_type(n)
    extra = 12 * double_factorial(n - 3) if m % 2 else 240 * double_factorial(n - 5)
    nf = factorial(n)
    rows = []
    terms = []
    for part in _iter_partitions(n):
        info = sym_class_info(n, part, special)
        num = nf if info.bucket == "A" else nf + extra
        alpha, r = divmod(num, 2 * info.order)
        if r:
            raise NonIntegralExponent(
                f"alpha_1 = {num}/{2 * info.order} is not an integer on {part}"
            )
        e = alpha + nf // info.order
        rows.append(SymClassRow(info, _printed_l(n, part), alpha, e))
        terms.append((e, info.class_size, 1))
    total = _sym_total(terms, nf, kind, p, mode)
    return SymCensusResult(n, "L", special, tuple(rows), sym_l_table(n), total, _sym_label(n))


def _sym_total(terms, nf: int, kind: str, p, mode: str) -> CountReport:
    exact_cross = None
    if _sym_exact_possible_from_terms(terms):
        total = sum(num * (1 << e) // den for e, num, den in terms)
        q, r = divmod(total, nf)
        if r:
            raise NonIntegralSum(f"census sum {total} not divisible by {nf}")
        exact_cross = q
    if kind == "exact":
        if exact_cross is None:
            raise CapExceeded("exact mode unavailable at this size")
        return CountReport(mode="exact", exact_value=exact_cross, log2_value=log2_of_int(exact_cross))
    return _report_from_terms(terms, nf, mode, exact_cross=exact_cross)


def _sym_exact_possible_from_terms(terms) -> bool:
    # 2^22 bits per term is still cheap; beyond that exact mode is refused
    return max(e for e, _, _ in terms) <= (1 << 22)


def build_b1_b2(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two explicit involutions generating a cubic connection set of
    Sigma_n for n = 6m+1, m >= 2, as 0-based permutations."""
    m = _m_of(n)
    if m < 2:
        raise BadParameter(f"n = {n} gives m = {m}; the construction needs m >= 2")
    pairs = [(1, 4), (2, n), (3, n - 1), (n - 6, n - 3), (n - 5, n - 2)]
    for r in range(1, m - 1):
        pairs += [(6 * r, 6 * r + 3), (6 * r + 1, 6 * r + 4), (6 * r + 2, 6 * r + 5)]
    b1 = _perm_of_transpositions(n, pairs)
    dropped = (n - 12, n - 9)
    if dropped not in pairs:
        raise InternalInconsistency(f"factor {dropped} missing from b_1's support")
    b2 = _perm_of_transpositions(n, [q for q in pairs if q != dropped])

    m_ = [0] * n
    m_[0], m_[1] = 3, 3 * m - 1
    if cycle_type(b1) != tuple(m_):
        raise InternalInconsistency("b_1 does not have cycle type [1^3 2^{3m-1}]")
    m_[0], m_[1] = 5, 3 * m - 2
    if cycle_type(b2) != tuple(m_):
        raise InternalInconsistency("b_2 does not have cycle type [1^5 2^{3m-2}]")
    return b1, b2


def _perm_of_transpositions(n: int, pairs) -> tuple[int, ...]:
    vm = list(range(n))
    seen = set()
    for a, b in pairs:
        for x in (a, b):
            if not 1 <= x <= n:
                raise InternalInconsistency(f"index {x} outside 1..{n}")
            if x in seen:
                raise InternalInconsistency(f"transpositions not disjoint at {x}")
            seen.add(x)
        vm[a - 1], vm[b - 1] = b - 1, a - 1
    return tuple(vm)


@dataclass(frozen=True)
class ThreeInvolutionRow:
    representative: int
    class_size: int
    order: int
    even_order: bool
    base_exponent: int  # n/o, the orientable-side exponent
    alpha_exponent: Fraction  # n/2o for odd order, 3n/2o for even


@dataclass(frozen=True)
class ThreeInvolutionResult:
    surface: str
    group_order: int
    rows: tuple[ThreeInvolutionRow, ...]
    violations: tuple[tuple[int, int], ...]  # (t, x) commuting pairs
    hypothesis_ok: bool
    total: CountReport


def three_involution_census(
    G: FiniteGroup, S, surface: str = "L", mode: str = "exact"
) -> ThreeInvolutionResult:
    """Census of maps of Cay(G : {a,b,c}) with a,b,c involutions generating G,
    per the published three closed forms.  The no-commuting hypothesis
    (tx != xt for every t outside {e, x}) is checked; violations are reported
    and the value is still computed from the displayed formulas."""
    members = _three_involution_set(G, S)
    n = G.order
    violations = tuple(
        (t, x)
        for x in members
        for t in range(n)
        if t not in (0, x) and G.table[t][x] == G.table[x][t]
    )

    rows = []
    for cls in conjugacy_classes(G):
        g = cls.representative
        o = element_order(G, g)
        base = Fraction(n, o)
        if base.denominator != 1:
            raise InternalInconsistency("element order does not divide group order")
        alpha = Fraction(3 * n, 2 * o) if o % 2 == 0 else Fraction(n, 2 * o)
        rows.append(
            ThreeInvolutionRow(g, len(cls.members), o, o % 2 == 0, int(base), alpha)
        )

    terms = []
    for row in rows:
        if surface == "O":
            exps = [(Fraction(row.base_exponent), row.class_size)]
        elif surface == "L":
            exps = [(row.alpha_exponent + row.base_exponent, row.class_size)]
        elif surface == "N":
            exps = [
                (row.alpha_exponent + row.base_exponent, row.class_size),
                (Fraction(row.base_exponent), -row.class_size),
            ]
        else:
            raise BadParameter(f"unknown surface {surface!r}")
        terms.extend(exps)

    total = _fractional_power_report(terms, n, mode)
    return ThreeInvolutionResult(surface, n, rows, violations, not violations, total)


def _three_involution_set(G: FiniteGroup, S) -> tuple[int, ...]:
    members = tuple(sorted(set(int(s) for s in S)))
    if len(members) != 3:
        raise BadParameter(f"need exactly 3 distinct involutions, got {len(members)}")
    bad = [s for s in members if not (0 <= s < G.order) or s == 0 or G.table[s][s] != 0]
    if bad:
        raise NotInvolutions(f"elements {bad} are not involutions")
    if len(subgroup_closure(G, members)) != G.order:
        raise CaySetInvalid([(NOT_GENERATING, f"{members} generates a proper subgroup")])
    return members


def _fractional_power_report(terms, divisor: int, mode: str) -> CountReport:
    """Sum of size * 2^exp with Fraction exponents, divided by ``divisor``.

    Exact and modular modes demand integral exponents (the displayed formulas
    fall outside the integers when 4 does not divide the relevant order
    ratio); log2 mode evaluates the expression as printed.
    """
    kind, p = parse_mode(mode)
    fractional = [e for e, _ in terms if e.denominator != 1]
    if kind in ("exact", "modp") and fractional:
        raise NonIntegralExponent(
            f"displayed exponent {fractional[0]} is not an integer"
        )
    if kind == "log2":
        with mp.workdps(60):
            acc = mp.mpf(0)
            for e, size in terms:
                ex = mp.mpf(e.numerator) / e.denominator
                acc += size * mp.power(2, ex)
            return CountReport(mode="log2", log2_value=mp.log(acc, 2) - mp.log(divisor, 2))
    int_terms = [(int(e), size, 1) for e, size in terms]
    return _report_from_terms(int_terms, divisor, mode)


def three_involution_comparison(G: FiniteGroup, S, surface: str = "L"):
    """Per-class check of the displayed formulas against the generic census
    machinery: the assumed inverted-edge count is n on every even-order class
    and 0 elsewhere; rows record where the true count differs."""
    from .autaction import right_regular

    members = _three_involution_set(G, S)
    cayset = validate_cayley_set(G, members)
    acting = right_regular(G)
    stats = acting_stats(G, cayset, acting)
    n = G.order
    rows = []
    for cls in conjugacy_classes(G):
        xi = acting[cls.representative]
        st = class_stats(G, cayset, stats, int(stats.group.find([xi.vertex_map])[0]))
        assumed_l = n if st.order % 2 == 0 else 0
        assumed_alpha = (
            Fraction(3 * n, 2 * st.order) if st.order % 2 == 0 else Fraction(n, 2 * st.order)
        )
        phi_true = phi_exact(st, surface, 3)
        match = st.l_value == assumed_l and Fraction(st.alpha_exponent) == assumed_alpha
        rows.append((st, assumed_l, assumed_alpha, phi_true, match))
    return rows


@dataclass(frozen=True)
class Elem2Result:
    n: int
    k: int
    surface: str
    total: CountReport
    grr_valid: bool
    label: str | None


def elementary_abelian_census(
    n: int, S, surface: str = "L", mode: str = "exact"
) -> Elem2Result:
    """Closed-form census for Cay((Z_2)^n : S), elements encoded as bitmasks.

    Every non-identity element is an involution, the inverted-edge count is
    2^n exactly on S, and the class sum collapses to three terms (identity,
    S, the rest).  The published identity term uses the generic odd-order
    exponent (k-2)2^{n-1}, not the order-2 branch.
    """
    kind, p = parse_mode(mode)
    if n < 1:
        raise BadParameter(f"need n >= 1, got {n}")
    cap = ELEM2_EXACT_CAP if kind == "exact" else ELEM2_BIG_CAP
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the {kind}-mode cap {cap}")
    members = _elem2_set(n, S)
    k = len(members)
    grr_valid = n == 1 or n >= 5
    label = None if grr_valid else "formula value only"
    order = 1 << n

    if surface not in ("O", "N", "L"):
        raise BadParameter(f"unknown surface {surface!r}")
    if n == 1:
        if surface != "O":
            raise BadParameter("only the orientable count is defined at n = 1")
        return Elem2Result(1, k, "O", _elem2_report(2, order, mode), grr_valid, label)
    if k < 2:
        raise CaySetInvalid([(TOO_SMALL, f"|S| = {k} < 2")])

    fact = factorial(k - 1)
    # terms as (2-exponent, factorial-exponent, multiplier): value
    # m * 2^a * (k-1)!^b, summed then divided by 2^n
    o_terms = [(0, order, 1), (0, order // 2, order - 1)]
    l_terms = [
        (k * order // 4, order // 2, k),
        ((k - 2) * order // 4, order // 2, order - k - 1),
        ((k - 2) * order // 2, order, 1),
    ]
    if surface == "O":
        terms = o_terms
    elif surface == "L":
        terms = l_terms
    else:
        terms = l_terms + [(a, b, -m) for a, b, m in o_terms]

    if kind == "exact" or (kind == "log2" and n <= ELEM2_EXACT_CAP):
        total = sum(m * (1 << a) * fact**b for a, b, m in terms)
        q, r = divmod(total, order)
        if r:
            raise NonIntegralSum(f"census sum {total} not divisible by {order}")
        if kind == "exact":
            report = CountReport(mode="exact", exact_value=q, log2_value=log2_of_int(q))
        else:
            report = CountReport(mode="log2", log2_value=log2_of_int(q))
    elif kind == "log2":
        # m * 2^a * F^b has log2 = a + b*log2(F) + log2(m)
        with mp.workdps(80):
            keyed = [
                (a, b * mp.log(mp.mpf(fact), 2) + mp.log(mp.mpf(abs(m)), 2), 1 if m > 0 else -1)
                for a, b, m in terms
                if m
            ]
            star = max(range(len(keyed)), key=lambda i: mp.mpf(keyed[i][0]) + keyed[i][1])
            a0, f0, _ = keyed[star]
            acc = mp.mpf(0)
            for a, f, sgn in keyed:
                acc += sgn * mp.power(2, mp.mpf(a - a0) + (f - f0))
            value = mp.mpf(a0) + f0 + mp.log(acc, 2) - mp.log(mp.mpf(order), 2)
        report = CountReport(mode="log2", log2_value=value)
    else:
        if p < 3 or p <= k:
            raise BadParameter(f"modulus {p} must be an odd prime above k = {k}")
        acc = 0
        for a, b, m in terms:
            t = pow(2, a % (p - 1), p) * pow(fact % p, b % (p - 1), p) * (m % p)
            acc = (acc + t) % p
        residue = acc * pow(order % p, -1, p) % p
        if n <= ELEM2_EXACT_CAP:
            exact = sum(m * (1 << a) * fact**b for a, b, m in terms) // order
            if residue != exact % p:
                raise InternalInconsistency(
                    f"modular path {residue} disagrees with exact value mod {p}"
                )
        report = CountReport(mode="modp", residue=residue, prime=p)
    return Elem2Result(n, k, surface, report, grr_valid, label)


def _elem2_report(value: int, divisor: int, mode: str) -> CountReport:
    q, r = divmod(value, divisor)
    if r:
        raise NonIntegralSum(f"census sum {value} not divisible by {divisor}")
    kind, p = parse_mode(mode)
    if kind == "exact":
        return CountReport(mode="exact", exact_value=q, log2_value=log2_of_int(q))
    if kind == "log2":
        return CountReport(mode="log2", log2_value=log2_of_int(q))
    return CountReport(mode="modp", residue=q % p, prime=p)


def _elem2_set(n: int, S) -> tuple[int, ...]:
    raw = tuple(int(s) for s in S)
    members = tuple(sorted(set(raw)))
    violations = []
    for s in members:
        if not 0 <= s < (1 << n):
            raise BadParameter(f"element {s} outside (Z_2)^{n}")
    if len(members) != len(raw):
        raise BadParameter("repeated elements in the connection set")
    if 0 in members:
        violations.append((CONTAINS_IDENTITY, "identity in the connection set"))
    rank, basis = 0, []
    for s in members:
        v = s
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            rank += 1
    if rank < n:
        violations.append((NOT_GENERATING, f"S spans rank {rank} < {n}"))
    if violations:
        raise CaySetInvalid(violations)
    return members
