"""Closed-form censuses of maps on a Cayley graph under R(G) x H.

The per-class data is (order o, inverted-edge count l, branch, exponent
alpha); a class contributes 2^alpha (|S|-1)!^{|G|/o} fixed embeddings on
the locally orientable side and (|S|-1)!^{|G|/o} on the orientable side.
Totals divide the class sum by |G||H|.

l counts vertices moved to a neighbor by the half-order power, so every
inverted edge contributes both endpoints; with that normalization
alpha = (epsilon + l - nu)/o and the true edge-orbit count is
(2 epsilon + l)/(2o), both verified per class.  ``class_stats`` forms the
statistics as columns over all elements and runs each check as one column
over the class representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import perm
from .autaction import product_group, right_regular
from .cayley import CayleySet
from .errors import (
    BadParameter,
    CapExceeded,
    InternalInconsistency,
    NonIntegralExponent,
    NonIntegralSum,
    NotSemiRegular,
)
from .groups import FiniteGroup
from .perm import (
    PermGroup,
    check_table_size,
    conjugacy_classes_of,
    element_stats,
)

if TYPE_CHECKING:
    import decimal
    from decimal import Decimal

    import mpmath as mp

THETA = "Theta"
DELTA = "Delta"


@dataclass(frozen=True)
class ClassStats:
    class_size: int
    order: int
    vertex_orbits: int  # |G|/o, the orbits of the representative on the vertices
    l_value: int
    branch: str
    edge_orbits: int
    alpha_exponent: int
    row: int  # the representative's index in the acting group's rows: the class


@dataclass(frozen=True)
class CountReport:
    """A count in one mode: its exact value, its log2, or its residue
    modulo a prime.

    The exact value of a census (``census``, ``verify``) is an int.  That
    of a closed form of ``special`` in exact mode is an integral
    ``Decimal``: it compares equal to the int and prints with ``str``, but
    arithmetic on it runs under ``exact_context()`` (``decimal.localcontext``),
    since the default 28-digit context raises ``InvalidOperation`` on a
    longer result, and ``int()`` of it, like comparing it with a large int,
    takes time quadratic in its digits."""

    mode: str
    exact_value: int | Decimal | None = None  # a closed form's exact mode gives a Decimal
    log2_value: object | None = None  # mpmath float
    residue: int | None = None
    prime: int | None = None


@dataclass(frozen=True)
class CensusResult:
    surface: str
    count: CountReport
    classes: tuple[ClassStats, ...]
    phi_values: tuple[int, ...]
    acting: PermGroup


def parse_mode(mode: str) -> tuple[str, int | None]:
    if mode in ("exact", "log2"):
        return mode, None
    if mode.startswith("modp:"):
        text = mode.split(":", 1)[1]
        try:
            p = int(text)
        except ValueError:
            raise BadParameter(f"mode {mode!r}: modulus {text!r} is not an integer") from None
        if p < 2:
            raise BadParameter(f"modulus {p} is not a prime candidate")
        return "modp", p
    raise BadParameter(f"unknown mode {mode!r}")


def log2_of_int(n: int | Decimal) -> mp.mpf:
    """log2(n) at 60 digits: the log of n rounded to 60 digits.  n is an
    int or an integral ``Decimal``; both give the same mpf."""
    import mpmath as mp

    if n < 0:
        raise BadParameter("log2 of negative count")
    if n == 0:
        return mp.ninf
    with mp.workdps(60):
        return mp.log(mpf_of_int(n), 2)


def mpf_of_int(n: int | Decimal) -> mp.mpf:
    """``mp.mpf(n)`` for n >= 0, n rounded to the working precision, read
    from the top bits of n only: rounding the top prec+8 bits, with the
    lowest one set when any dropped bit is, gives the same mpf as rounding
    all of n.  ``mp.mpf(n)`` itself first converts the whole integer
    exactly.  An integral ``Decimal`` is read from its leading digits
    (``_mpf_of_decimal``)."""
    import mpmath as mp
    from mpmath.libmp import from_man_exp, round_nearest

    if not isinstance(n, int):
        return _mpf_of_decimal(n)
    prec = mp.mp.prec
    shift = n.bit_length() - (prec + 8)
    if shift <= 0:
        return mp.mpf(n)
    man = n >> shift
    if man << shift != n:
        man |= 1
    return mp.mp.make_mpf(from_man_exp(man, shift, prec, round_nearest))


def _mpf_of_decimal(n: Decimal) -> mp.mpf:
    """``mpf_of_int(int(n))`` for an integral ``Decimal`` n >= 0, read from
    its leading prec/3 + 12 digits m, so that m 10^s <= n < (m + 1) 10^s.
    Both ends are bounded outward at twice the working precision (10^s by
    directed rounding), and round-to-nearest is monotone: where the two
    bounds round to the same mpf, so does n.  They differ only if a
    rounding boundary lies within 10^-(prec/3 + 11) of n relative; such an
    n is converted to an int."""
    import decimal

    import mpmath as mp
    from mpmath.libmp import (
        from_int, mpf_mul, mpf_pos, mpf_pow_int, round_ceiling, round_floor, round_nearest,
    )

    prec = mp.mp.prec
    digits = prec // 3 + 12
    if n.adjusted() < digits:
        return mpf_of_int(int(n))
    ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_DOWN, Emax=decimal.MAX_EMAX)
    _, lead, s = ctx.plus(n).as_tuple()
    m = int("".join(map(str, lead)))
    wp = 2 * prec
    lo = mpf_mul(from_int(m), mpf_pow_int(from_int(10), s, wp, round_floor), wp, round_floor)
    hi = mpf_mul(from_int(m + bool(ctx.flags[decimal.Inexact])),
                 mpf_pow_int(from_int(10), s, wp, round_ceiling), wp, round_ceiling)
    lo, hi = mpf_pos(lo, prec, round_nearest), mpf_pos(hi, prec, round_nearest)
    return mp.mp.make_mpf(lo) if lo == hi else mpf_of_int(int(n))


def make_report(exact: int | Decimal, mode: str) -> CountReport:
    """The report of a known exact count in ``mode``."""
    kind, p = parse_mode(mode)
    if kind == "exact":
        return CountReport(mode="exact", exact_value=exact, log2_value=log2_of_int(exact))
    if kind == "log2":
        return CountReport(mode="log2", log2_value=log2_of_int(exact))
    return CountReport(mode="modp", residue=exact % p, prime=p)


# ---------------------------------------------------------------------------
# Term sums
# ---------------------------------------------------------------------------
#
# Every closed form is a sum of terms num * base^b * 2^e / den over a common
# divisor, one term per class (two on the N side); a term is the tuple
# (e, b, num, den) with den >= 1, and ``base`` is shared by the whole sum.

Term = tuple[int, int, int, int]


def exact_quotient(terms: Sequence[Term], divisor: int, base: int = 1,
                   in_decimal: bool = False) -> int | Decimal:
    """The exact sum of ``terms`` divided by ``divisor``; a sum that is not an
    integer multiple of ``divisor`` is refused.

    ``base`` (at least 1) is split as 2^t * odd: each term shifts by its own
    t*b more, and the powers odd^b are formed in ascending order of b, each
    from the one before (by squaring when b doubles it).

    The quotient is an int, or with ``in_decimal`` an integral ``Decimal``
    formed in ``exact_context``, which prints with no radix conversion:
    exact mode, which prints the total, forms it in decimal, and log2 and
    modular mode, which never print it, in binary.  The terms are summed in
    ascending order of their shift s = e + t*b, and scaling by 2^s is the
    only step that depends on the radix: a binary shift, or a product with
    one running decimal power of two, carried from shift to shift and
    squared when the shift doubles."""
    if not in_decimal:
        return _quotient(terms, divisor, base, 1)
    import decimal

    with decimal.localcontext(exact_context()):
        return _quotient(terms, divisor, base, decimal.Decimal(1))


def _quotient(terms: Sequence[Term], divisor: int, base: int, one: int | Decimal):
    """``exact_quotient`` in the radix of ``one``, an int or a ``Decimal``."""
    den = lcm(*(t[3] for t in terms))
    twos = (base & -base).bit_length() - 1
    odd = one * (base >> twos)
    powers, power, prev = {}, one, 0
    for b in sorted({t[1] for t in terms}):
        power = power * power if b == 2 * prev else power * odd ** (b - prev)
        powers[b], prev = power, b
    total, pow2, shift = 0 * one, one, 0  # pow2 = 2^shift
    for s, b, num, d in sorted((e + twos * b, b, num, d) for e, b, num, d in terms):
        term = num * powers[b] * (den // d)
        if isinstance(term, int):  # a binary shift is free
            total += term << s
            continue
        if s != shift:
            pow2 = pow2 * pow2 if s == 2 * shift else pow2 * (2 * one) ** (s - shift)
            shift = s
        total += term * pow2
    r = total % den
    if r:  # the text of Fraction(total, den)
        g = gcd(int(r), den)
        raise NonIntegralSum(f"census sum {total // g}/{den // g} is not an integer")
    total //= den
    q, r = divmod(total, divisor)
    if r:
        raise NonIntegralSum(f"census sum {total} not divisible by {divisor}")
    return q


def exact_context() -> decimal.Context:
    """A decimal context in which integer arithmetic is exact: the largest
    precision and exponent, with ``Inexact`` trapped."""
    import decimal

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = True
    return ctx


def term_report(
    terms: Sequence[Term], divisor: int, mode: str, *, base: int = 1,
    exact: int | Decimal | None = None,
) -> CountReport:
    """The count sum(terms) / divisor in ``mode``.

    ``exact`` is the exact count where the caller has formed it
    (``exact_quotient``, in decimal for exact mode and in binary for the
    others).  Exact and log2 mode then report it, and modular mode, which
    always sums the terms mod p, is cross-checked against it.
    Without it exact mode is refused and log2 mode sums the terms' logs.
    """
    kind, p = parse_mode(mode)
    if kind == "modp":
        residue = _residue(terms, divisor, p, base)
        if exact is not None and residue != exact % p:
            raise InternalInconsistency(
                f"modular path {residue} disagrees with exact value mod {p}"
            )
        return CountReport(mode="modp", residue=residue, prime=p)
    if exact is not None:
        return make_report(exact, kind)
    if kind == "exact":
        raise CapExceeded("exact mode unavailable at this size")
    return CountReport(mode="log2", log2_value=_log2_sum(terms, divisor, base))


def _residue(terms: Sequence[Term], divisor: int, p: int, base: int) -> int:
    """The sum of ``terms`` over ``divisor`` mod p; the divisor and every
    term's denominator must be invertible mod p, so a modulus sharing a
    factor with either is refused."""
    if divisor % p == 0:
        raise BadParameter(f"modulus {p} divides the normalizer {divisor}")
    if gcd(divisor, p) != 1:
        raise BadParameter(f"modulus {p} shares a factor with the normalizer {divisor}")
    pow2: dict[int, int] = {}
    powb = {b: pow(base, b, p) for b in {t[1] for t in terms}}
    acc = 0
    for e, b, num, den in terms:
        if den % p == 0:
            raise BadParameter(f"modulus {p} divides a census term")
        if gcd(den, p) != 1:
            raise BadParameter(
                f"modulus {p} shares a factor with a census term's denominator {den}"
            )
        t = pow2.get(e)
        if t is None:
            t = pow2[e] = pow(2, e, p)
        acc = (acc + t * powb[b] * num * pow(den, -1, p)) % p
    return acc * pow(divisor, -1, p) % p


def _log2_sum(terms: Sequence[Term], divisor: int, base: int) -> mp.mpf:
    """log2 of sum(terms) / divisor, relative to the largest term ("star"):
    log2(star) + log2(1 + sum of the others / star).

    Integer bounds lo < log2|term| < hi from bit lengths decide which terms
    need mpmath at all.  Only terms whose hi comes within 4 of the largest
    lo can be the star.  In a sum of positive terms, a term whose hi lies
    more than prec + 8 below the star's leaves the accumulator (>= 1)
    unchanged under correctly rounded addition, so it is skipped; the result
    is the same mpf as summing every term.
    """
    import mpmath as mp

    live = [t for t in terms if t[2]]
    b_lo = base.bit_length() - 1
    b_hi = b_lo if base & (base - 1) == 0 else b_lo + 1
    lo, hi = [], []
    for e, b, num, den in live:
        nb, db = abs(num).bit_length(), den.bit_length()
        lo.append(e + b * b_lo + nb - 1 - db)
        hi.append(e + b * b_hi + nb - db + 1)
    positive = all(t[2] > 0 for t in live)
    with mp.workdps(60 + len(str(max(t[0] for t in live)))):
        log_base = mp.log(mp.mpf(base), 2) if any(t[1] for t in live) else None
        f: dict[int, mp.mpf] = {}

        def frac(i):
            if i not in f:
                _, b, num, den = live[i]
                v = mp.log(mp.mpf(abs(num)), 2) - mp.log(mp.mpf(den), 2)
                f[i] = v + b * log_base if b else v
            return f[i]

        floor = max(lo) - 4
        star, key0 = -1, None
        for i, t in enumerate(live):
            if hi[i] >= floor:
                key = mp.mpf(t[0]) + frac(i)
                if key0 is None or key > key0:
                    star, key0 = i, key
        e0, f0 = live[star][0], f[star]
        skip_below = e0 + int(mp.floor(f0)) - (mp.mp.prec + 8) if positive else None
        acc = mp.mpf(1 if live[star][2] > 0 else -1)
        for i, (e, _, num, _) in enumerate(live):
            if i == star or (skip_below is not None and hi[i] < skip_below):
                continue
            t = mp.power(2, mp.mpf(e - e0) + (frac(i) - f0))
            acc += t if num > 0 else -t
        return mp.mpf(e0) + f0 + mp.log(acc, 2) - mp.log(mp.mpf(divisor), 2)


# ---------------------------------------------------------------------------
# Per-class statistics
# ---------------------------------------------------------------------------

def class_stats(G: FiniteGroup, S: CayleySet, acting: PermGroup) -> list[ClassStats]:
    """Checked statistics of every conjugacy class of ``acting`` on
    Cay(G : S), whose edges join t to s*t for s in S, by least member.

    Order, l, branch, edge orbits and the alpha numerator are columns over
    all elements, and each check is a column over the class representatives
    (each class's least member): semi-regularity, Delta divisibility, edge
    map, edge-orbit count, alpha integrality, class size against |A| over
    the centralizer's order, and member constancy, which compares every
    member's order, l and edge orbits (they fix the rest) with its class
    label's.  The first class that fails a check raises the message of the
    first check it fails."""
    classes = conjugacy_classes_of(acting.table, acting.inverse)
    sizes = np.fromiter(map(len, classes), dtype=np.intp, count=len(classes))
    if sizes.sum() != len(acting):
        raise InternalInconsistency("class sizes do not sum to the group order")
    nu = G.order
    eps = nu * len(S.members) // 2
    adjacency = np.zeros((nu, nu), dtype=bool)
    adjacency[np.arange(nu), G.table[list(S.members)]] = True
    stats = element_stats(acting, adjacency)
    orders, l_values, edge_orbits = stats.order, stats.l_value, stats.edge_orbits

    members = np.concatenate(classes)
    reps = members[np.cumsum(sizes) - sizes]
    label = np.empty(len(acting), dtype=np.intp)
    label[members] = np.repeat(reps, sizes)
    same = (orders == orders[label]) & (l_values == l_values[label]) & (
        edge_orbits == edge_orbits[label]
    )
    o, l_rep, eo = orders[reps], l_values[reps], edge_orbits[reps]
    delta = (o % 2 == 0) & (l_rep > 0)
    num = eps + l_rep - nu
    table = acting.table
    # a block of representatives at a time: two |A| x block gathers of at
    # most perm.CONJUGATE_BLOCK entries, not two of |A| x |classes|
    step = max(1, perm.CONJUGATE_BLOCK // len(acting))
    centralizer = np.concatenate([
        np.count_nonzero(table[:, block] == table[block, :].T, axis=0)
        for block in (reps[i:i + step] for i in range(0, len(reps), step))
    ])
    varies = np.zeros(len(classes), dtype=bool)
    varies[np.searchsorted(reps, label[~same])] = True
    failures = np.stack([
        ~stats.semi_regular[reps],
        delta & (l_rep % np.maximum(o // 2, 1) != 0),
        eo < 0,
        eo * 2 * o != 2 * eps + l_rep,
        (num < 0) | (num % o != 0),
        len(acting) // centralizer != sizes,
        varies,
    ])
    failing = np.flatnonzero(failures.any(axis=0))
    if len(failing):
        c = int(failing[0])
        _raise_class_failure(
            int(np.argmax(failures[:, c])), classes[c], acting, same,
            nu, eps, int(o[c]), int(l_rep[c]), int(eo[c]),
        )
    return [
        ClassStats(class_size=size, order=oi, vertex_orbits=nu // oi, l_value=li,
                   branch=DELTA if di else THETA, edge_orbits=ei, alpha_exponent=ni // oi, row=r)
        for size, oi, li, di, ei, ni, r in zip(
            sizes.tolist(), o.tolist(), l_rep.tolist(), delta.tolist(), eo.tolist(),
            num.tolist(), reps.tolist(),
        )
    ]


def _raise_class_failure(
    check: int, cls: np.ndarray, acting: PermGroup, same: np.ndarray,
    nu: int, eps: int, o: int, l_value: int, eo: int,
) -> None:
    """Raises the message of ``class_stats`` check number ``check`` for the
    class ``cls``, whose representative has order ``o``, ``l_value`` and
    ``eo`` edge orbits."""
    vm = acting.element(int(cls[0]))
    if check == 0:
        raise NotSemiRegular(f"representative {vm} has unequal orbit lengths")
    if check == 1:
        raise InternalInconsistency(
            f"inverted count {l_value} not divisible by half order {o // 2}"
        )
    if check == 2:
        raise BadParameter(f"acting element {vm} is not a graph automorphism")
    if check == 3:
        raise InternalInconsistency(
            f"edge orbit count {eo} disagrees with (2e+l)/2o = "
            f"({2 * eps}+{l_value})/{2 * o}"
        )
    if check == 4:
        raise NonIntegralExponent(
            f"alpha = ({eps}+{l_value}-{nu})/{o} is not a non-negative integer"
        )
    if check == 5:
        raise InternalInconsistency("class size mismatch")
    raise InternalInconsistency(
        f"class statistics not constant: {acting.element(int(cls[np.argmin(same[cls])]))} "
        f"differs from {vm}"
    )


def phi_exact(stats: ClassStats, surface: str, k: int) -> int:
    base = factorial(k - 1) ** stats.vertex_orbits
    if surface == "O":
        return base
    if surface == "L":
        return (1 << stats.alpha_exponent) * base
    if surface == "N":
        return ((1 << stats.alpha_exponent) - 1) * base
    raise BadParameter(f"unknown surface {surface!r}")


# ---------------------------------------------------------------------------
# Census totals
# ---------------------------------------------------------------------------

def _product_with(G: FiniteGroup, H: np.ndarray) -> PermGroup:
    """R(G)H for an H read from outside the program, checked first: the
    product has |G||H| elements only when H lists each map once and shares
    just the identity with R(G).  The table cap bounds the product's table
    search and the |H|^2 |G| arrays of these checks, before either runs."""
    check_table_size(G.order * len(H), G.order)
    if len(np.unique(H, axis=0)) != len(H):
        raise BadParameter("H lists an automorphism twice")
    translation = (H == G.table.T[H[:, 0]]).all(axis=1) & (H[:, 0] != 0)
    if translation.any():
        h = int(H[np.argmax(translation), 0])
        raise BadParameter(
            f"H contains the right translation by {G.name_of(h)}; H may share only "
            "the identity with R(G)"
        )
    # r h_i = r' h_j for some translations exactly when h_i h_j^-1 is one
    quotients = H[:, np.argsort(H, axis=1)]  # [i, j, v] = h_i(h_j^-1(v))
    meets = (quotients == G.table.T[quotients[:, :, 0]]).all(axis=2) & ~np.eye(len(H), dtype=bool)
    if meets.any():
        i, j = np.argwhere(meets)[0]
        raise BadParameter(
            f"two maps of H differ by the right translation by "
            f"{G.name_of(int(quotients[i, j, 0]))}; H may meet each coset of R(G) only once"
        )
    return product_group(G, H)  # refuses a repeated product itself


def census(
    G: FiniteGroup,
    S: CayleySet,
    H: Sequence[Sequence[int]] | None = None,
    surface: str = "O",
    mode: str = "exact",
) -> CensusResult:
    """The census of maps of Cay(G : S) under R(G) x H, where H (the
    identity alone by default) lists vertex maps."""
    if surface not in ("O", "N", "L"):
        raise BadParameter(f"unknown surface {surface!r}")
    parse_mode(mode)
    k = len(S.members)
    if H is None:
        acting = right_regular(G)  # read off G's table: the group order cap bounds it
    else:
        acting = _product_with(G, np.asarray(H))
    acting_size = len(acting)

    stats_list = class_stats(G, S, acting)
    phis: list[int] = []
    # the same class sum as terms, which modular mode sums independently
    terms: list[Term] = []
    total = 0
    for st in stats_list:
        phi = phi_exact(st, surface, k)
        phis.append(phi)
        total += st.class_size * phi
        b = G.order // st.order
        terms.append((0 if surface == "O" else st.alpha_exponent, b, st.class_size, 1))
        if surface == "N":
            terms.append((0, b, -st.class_size, 1))

    q, r = divmod(total, acting_size)
    if r:
        raise NonIntegralSum(
            f"class sum {total} not divisible by |G||H| = {acting_size}"
        )
    report = term_report(terms, acting_size, mode, base=factorial(k - 1), exact=q)
    return CensusResult(
        surface=surface,
        count=report,
        classes=tuple(stats_list),
        phi_values=tuple(phis),
        acting=acting,
    )

