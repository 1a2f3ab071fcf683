"""Worked censuses for three families of graphs with a regular
automorphism representation.

Symmetric groups with a cubic connection set {x, y, y^-1}, x^2 = y^3 = e,
are summed over integer partitions rather than group elements: a partition
stands for the conjugacy class of that cycle type, with class size
n!/prod(i^{k_i} k_i!) and element order lcm of its parts.  The classes are
one compact table of narrow columns (``cycletypes``); big integers are
formed once per distinct class size and exponent.  The locally orientable
sum needs, per class, only whether the half-order power lands in one
special involution class, which its number of fixed points decides.

The other two families (groups generated by three involutions, elementary
abelian 2-groups) have closed forms per conjugacy class; both are evaluated
as published, with the published inverted-edge counts recomputable from
first principles so discrepancies surface instead of hiding.

Every family hands its terms to ``formulas.term_report``, which decides
what each counting mode forms and in which radix; a family only says, by
its exact-mode cap, up to which size modular and log2 modes check the sum
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .autaction import right_regular
from .cayley import validate_cayley_set
from .cycletypes import (
    CentralizerCode,
    CycleTypeLabels,
    Partition,
    class_table,
    distinct,
    index_dtype,
    partition_of_label,
)
from .errors import (
    CONTAINS_IDENTITY,
    NOT_GENERATING,
    TOO_SMALL,
    BadParameter,
    CapExceeded,
    CaySetInvalid,
    InternalInconsistency,
    NonIntegralExponent,
    NotInvolutions,
)
from .formulas import (
    CountReport,
    class_stats,
    exact_quotient,
    make_report,
    parse_mode,
    phi_exact,
    Term,
    term_report,
)
from .groups import FiniteGroup, subgroup_closure
from .perm import conjugacy_classes_of, divisor_powers

SYM_EXACT_CAP = 10
SYM_BIG_CAP = 60
ELEM2_EXACT_CAP = 16
ELEM2_BIG_CAP = 64
# (term, size) pairs per block of big products in ``SymRows.terms``
_BIG_BLOCK = 1024


def centralizer_order(part: Partition) -> int:
    out = 1
    for i, k in enumerate(part, start=1):
        out *= i**k * factorial(k)
    return out


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
    return _involution_type(n, m % 2 == 1)


def _involution_type(n: int, first: bool) -> Partition:
    """[1^3 2^{3m-1}] (first) or [1^5 2^{3m-2}], n = 6m+1."""
    out = [0] * n
    out[0], out[1] = (3, (n - 3) // 2) if first else (5, (n - 5) // 2)
    return tuple(out)


def _m_of(n: int) -> int:
    m, r = divmod(n - 1, 6)
    if r or m < 1:
        raise BadParameter(f"n = {n} is not of the form 6m+1 with m >= 1")
    return m


@dataclass(frozen=True)
class SymRows:
    """The classes of Sigma_n, one row per cycle type in the order of
    ``partitions``, held as narrow index columns.  Class sizes are big
    integers with few distinct values, so each is stored once and rows
    index it; so is each term, one per distinct (order, bucket), with its
    order, bucket, exponent and alpha.  A row's label and partition are
    built when asked for."""

    labels: CycleTypeLabels
    size_id: np.ndarray  # index into ``sizes``
    sizes: list[int]  # distinct class sizes n!/prod(i^{k_i} k_i!)
    term_id: np.ndarray  # index into the per-term lists below
    orders: list[int]  # element order, the lcm of the parts
    buckets: list[bool]  # the half-order power lies in the special class
    exponents: list[int]  # term exponent
    alphas: list[int] | None  # alpha_1; None on O
    l_printed: dict[int, int]  # row -> published inverted-edge count

    def __len__(self) -> int:
        return len(self.size_id)

    def label(self, r: int) -> str:
        """The cycle-type notation of row r, ``cycle_type_label``."""
        return self.labels.rows(r, r + 1)[0]

    def partition(self, r: int) -> Partition:
        return partition_of_label(self.label(r))

    def terms(self) -> list[Term]:
        """The class sum as one term (exponent, 0, summed class sizes, 1) per
        distinct exponent."""
        width = len(self.sizes)
        # pair codes term * width + size, and width itself, fit this dtype
        pairs = self.term_id.astype(index_dtype(len(self.exponents) * width + 1))
        pairs *= width
        pairs += self.size_id
        pairs, count = np.unique(pairs, return_counts=True)
        term, size = np.divmod(pairs, width)
        sizes = np.array(self.sizes, dtype=object)
        merged: dict[int, int] = {}
        # the big products are formed a block of pairs at a time
        for start in range(0, len(pairs), _BIG_BLOCK):
            block = slice(start, start + _BIG_BLOCK)
            terms = term[block]
            starts = np.flatnonzero(np.r_[True, terms[1:] != terms[:-1]])
            weighted = sizes[size[block]] * count[block].astype(object)
            for t, s in zip(terms[starts].tolist(), np.add.reduceat(weighted, starts).tolist()):
                e = self.exponents[t]
                merged[e] = merged.get(e, 0) + s
        return [(e, 0, s, 1) for e, s in merged.items()]


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
    rows: SymRows
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


def sym_l_table(n: int) -> tuple[LTableRow, ...]:
    """The published inverted-edge counts next to their recomputation.

    The abstract count of t with t g^{o/2} t^{-1} = x is the centralizer
    order of x's class when g^{o/2} is conjugate to x, so the published
    double-factorial expressions should equal prod(i^{k_i} k_i!) on the two
    special classes.  The first line does; the second does not, and both
    values are reported.
    """
    _m_of(n)
    t1, t2 = _involution_type(n, True), _involution_type(n, False)
    return (
        LTableRow(t1, 6 * double_factorial(n - 3), centralizer_order(t1)),
        # (n-2)!! as published
        LTableRow(t2, 120 * double_factorial(n - 2), centralizer_order(t2)),
    )


def _sym_rows(n: int, m: int | None) -> SymRows:
    """Per-class columns of the orientable partition sum (m None) or of the
    locally orientable one for n = 6m+1.  On L, alpha_1 = (n! + [B] extra)
    / (2o), with class B the classes whose half-order power is conjugate
    to x: that power is an involution fixing the points of the i-cycles
    with i | o/2, that is the parts of 2-adic valuation below o's, so B
    means sum_{i | o/2} i k_i = 3 for odd m and 5 for even m."""
    coder = CentralizerCode(n)
    table, labels = class_table(n, coder)
    codes, size_id = distinct(table.code)
    sizes = coder.sizes(codes)
    nf = factorial(n)
    key = table.order * 2  # order and bucket; 2 * g(60) fits uint32
    l_printed: dict[int, int] = {}
    if m is not None:
        fixed = n - table.moved
        key += (table.order % 2 == 0) & (fixed == (3 if m % 2 else 5))
        del fixed
        extra = 12 * double_factorial(n - 3) if m % 2 else 240 * double_factorial(n - 5)
        for t in sym_l_table(n):
            hit = (table.k1 == t.partition[0]) & (table.k2 == t.partition[1])
            l_printed[int(np.flatnonzero(hit)[0])] = t.printed
    del table
    keys, term_id = distinct(key)
    del key
    orders, buckets, exponents, alphas, bad = [], [], [], [], []
    for key in keys.tolist():
        o, b = divmod(key, 2)
        orders.append(o)
        buckets.append(bool(b))
        if m is None:
            exponents.append(nf // o)
            continue
        num = nf + extra if b else nf
        alpha, r = divmod(num, 2 * o)
        if r:
            bad.append(len(alphas))
        alphas.append(alpha)
        exponents.append(alpha + nf // o)
    rows = SymRows(labels, size_id, sizes, term_id, orders, buckets, exponents,
                   None if m is None else alphas, l_printed)
    if bad:  # reported on the first row of a key that fails
        r = int(np.flatnonzero(np.isin(term_id, bad))[0])
        t = int(term_id[r])
        num = nf + extra if buckets[t] else nf
        raise NonIntegralExponent(
            f"alpha_1 = {num}/{2 * orders[t]} is not an integer on {rows.partition(r)}"
        )
    return rows


def sym_orientable_census(n: int, mode: str = "exact") -> SymCensusResult:
    """Partition sum for maps of a cubic graph of Sigma_n on orientable
    surfaces: sum of 2^{n!/lcm} / prod(i^{k_i} k_i!)."""
    kind, p = parse_mode(mode)
    _sym_caps(n, kind)
    rows = _sym_rows(n, None)
    total = _sym_report(rows, n, mode, kind, p)
    return SymCensusResult(n, "O", None, rows, None, total, _sym_label(n))


def sym_locally_census(n: int, mode: str = "exact") -> SymCensusResult:
    """Partition sum for maps of the cubic graph of Sigma_n, n = 6m+1, on all
    surfaces: sum of 2^{alpha_1 + n!/lcm} / prod(i^{k_i} k_i!), the branch of
    alpha_1 decided by whether the half-order power of the class lies in the
    involution class of the generator x (b_1 for odd m, b_2 for even m)."""
    kind, p = parse_mode(mode)
    _sym_caps(n, kind)
    rows = _sym_rows(n, _m_of(n))
    total = _sym_report(rows, n, mode, kind, p)
    return SymCensusResult(
        n, "L", special_involution_type(n), rows, sym_l_table(n), total, _sym_label(n)
    )


def _sym_report(rows: SymRows, n: int, mode: str, kind: str, p: int | None) -> CountReport:
    _check_odd_modulus(kind, p)
    # up to the exact-mode cap, where no exponent passes 10!, modular and
    # log2 modes check the sum too; beyond it the sum is never formed
    return term_report(rows.terms(), factorial(n), mode, check=n <= SYM_EXACT_CAP)


def _check_odd_modulus(kind: str, p: int | None) -> None:
    if kind == "modp" and p < 3:
        raise BadParameter(f"modulus {p} must be an odd prime")


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
    T = G.table
    violations = tuple(
        (t, x)
        for x in members
        for t in np.flatnonzero(T[:, x] == T[x]).tolist()
        if t not in (0, x)
    )

    rows = []
    classes = conjugacy_classes_of(T, G.inverses)
    reps = [int(cls[0]) for cls in classes]
    for g, cls, o in zip(reps, classes, divisor_powers(T).order[reps].tolist()):
        base = Fraction(n, o)
        if base.denominator != 1:
            raise InternalInconsistency("element order does not divide group order")
        alpha = Fraction(3 * n, 2 * o) if o % 2 == 0 else Fraction(n, 2 * o)
        rows.append(ThreeInvolutionRow(g, len(cls), o, o % 2 == 0, int(base), alpha))

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
    bad = [s for s in members if not (0 <= s < G.order) or s == 0 or G.mul(s, s) != 0]
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
        import mpmath as mp

        with mp.workdps(60):
            acc = mp.mpf(0)
            for e, size in terms:
                ex = mp.mpf(e.numerator) / e.denominator
                acc += size * mp.power(2, ex)
            return CountReport(mode="log2", log2_value=mp.log(acc, 2) - mp.log(divisor, 2))
    int_terms = [(int(e), 0, size, 1) for e, size in terms]
    _check_odd_modulus(kind, p)
    # The displayed exponents need not give an integral sum: exact mode
    # forms it (and refuses it if fractional); modular mode reports the
    # residue of the displayed expression as it stands, unchecked.
    return term_report(int_terms, divisor, mode)


def three_involution_comparison(G: FiniteGroup, S, surface: str = "L"):
    """Per-class check of the displayed formulas against the generic census
    machinery: the assumed inverted-edge count is n on every even-order class
    and 0 elsewhere; rows record where the true count differs."""
    members = _three_involution_set(G, S)
    cayset = validate_cayley_set(G, members)
    n = G.order
    rows = []
    for st in class_stats(G, cayset, right_regular(G)):
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
    fact = factorial(k - 1)
    # terms (2-exponent, factorial exponent, multiplier, 1): m * 2^a * (k-1)!^b,
    # summed then divided by 2^n
    o_terms = [(0, order, 1, 1), (0, order // 2, order - 1, 1)]
    l_terms = [
        (k * order // 4, order // 2, k, 1),
        ((k - 2) * order // 4, order // 2, order - k - 1, 1),
        ((k - 2) * order // 2, order, 1, 1),
    ]
    if n == 1:
        # the orientable sum 1 + 1 over |G| = 2, in any mode and modulus
        if surface != "O":
            raise BadParameter("only the orientable count is defined at n = 1")
        exact = exact_quotient(o_terms, order, fact)
        return Elem2Result(1, k, "O", make_report(exact, mode), grr_valid, label)
    if k < 2:
        raise CaySetInvalid([(TOO_SMALL, f"|S| = {k} < 2")])
    if surface == "O":
        terms = o_terms
    elif surface == "L":
        terms = l_terms
    else:
        terms = l_terms + [(a, b, -m, 1) for a, b, m, _ in o_terms]
    if kind == "modp" and (p < 3 or p <= k):
        raise BadParameter(f"modulus {p} must be an odd prime above k = {k}")
    report = term_report(terms, order, mode, base=fact, check=n <= ELEM2_EXACT_CAP)
    return Elem2Result(n, k, surface, report, grr_valid, label)


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
