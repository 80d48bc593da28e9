"""Exact real-root counting, isolation and sign determination.

Roots are pinned by rational isolating intervals together with a witness
polynomial that has one simple root in the interval, so every question
about an algebraic number (its sign under another polynomial, its order
relative to another root) reduces to integer sign computations.

Every count is made here, by one algorithm: continued fractions find the
roots, each node an integer Mobius image of p whose Descartes count is the
sign variations of its coefficients, and cf_root_count counts p and delta
alike by the integer leaves alone. A first run that finishes proves every
real root simple, so p is its own witness. One that gives up, at a real
multiple root or at its step cap, takes the chain of repeated parts
g(k+1) = gcd(gk, gk'), which stops at g1 = 1 when the integer certificate
inside gcd proves p squarefree. Ends at infinity take polycore's Fujiwara
bound. Taylor shifts a(x + c), and Descartes counts on intervals, are read
by polycore's lane reader from one integer, a(2^w + c) or a Mobius image of
a at 2^w, when every coefficient provably fits one or two 64-bit words.
Signs and order at isolated roots settle by those counts, and by the gcd of
two polynomials where they may share the root. Every narrower interval
comes from refine, a binary search by integer signs of the witness for the
root's cell of one level of the dyadic grid, at the levels that _levels
bounds by root separation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .polycore import (
    InvariantError,
    Polynomial,
    _bound_exponent,
    _horner,
    _read_lanes,
    _sign,
    _sign_changes,
    div_exact,
    gcd,
    monic,
    sign_at,
)


class IsolatingInterval(NamedTuple("IsolatingInterval", [("lo", Fraction), ("hi", Fraction)])):
    """Open interval (lo, hi) holding one root; lo == hi pins a rational root."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> "IsolatingInterval":
        self = super().__new__(cls, lo, hi)
        if self.lo > self.hi:
            raise ValueError("interval bounds out of order")
        return self

    @classmethod
    def _make(cls, iterable) -> "IsolatingInterval":
        # _replace builds through _make, whose default skips the check above.
        return cls(*iterable)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


class IsolatedRoot(NamedTuple):
    """One distinct real root of a polynomial p: interval, multiplicity, witness.

    ``multiplicity`` is the root's multiplicity in p. ``witness`` is monic p
    when every real root of p is simple, else the monic squarefree part of
    p (which it also is when a multiple complex root makes the first
    isolation of p give up at its step cap); it has exactly one (simple)
    root inside the interval and nonzero values at the endpoints. A point
    interval holds a rational root exactly: isolation yields one for 0, for
    a rational root that a continued fraction meets at a split and for the
    root of a linear polynomial. Every other interval has as endpoints
    rational Mobius images of 0 and inf, or the power-of-two root bound for
    inf. Whether any other root is rational is for ``rational_value`` to
    say. The functions here accept any rational endpoints.
    """

    interval: IsolatingInterval
    multiplicity: int
    witness: Polynomial


class RootCount(NamedTuple):
    distinct: int
    with_multiplicity: int


class MergedRoot(NamedTuple):
    """A single real number carrying every input root equal to it."""

    members: tuple[IsolatedRoot, ...]

    @property
    def primary(self) -> IsolatedRoot:
        return self.members[0]


# ---------------------------------------------------------------------------
# Descartes' rule of signs on intervals
# ---------------------------------------------------------------------------

def _bound_bits(coeffs: Sequence[int], m: int) -> int:
    """Bit length of the bound sum |a_i| m^n, or 127 when its lower bound
    |a_k| 2^(n (bits(m) - 1)), for an end coefficient a_k, is past two words
    before the sum and m^n are formed. As in polycore._lane_bytes, a bound of
    under 64 bits fits lanes of one signed 64-bit word, and one of under 127
    bits lanes of two."""
    n = len(coeffs) - 1
    if max(coeffs[0].bit_length(), coeffs[-1].bit_length()) - 1 + n * (m.bit_length() - 1) >= 126:
        return 127
    return (sum(map(abs, coeffs)) * m ** n).bit_length()


def _taylor_shift(desc: Sequence[int], c: int = 1) -> list[int]:
    """Descending coefficients of a(x + c), given those of a(x), for c != 0.

    Coefficient k of a(x + c), b_k = sum_i a_i C(i, k) c^(i - k), has |b_k|
    <= sum |a_i| (1 + |c|)^n, of bit length bits(sum |a_i|) + n when c = 1.
    When that bound fits lanes of one or two 64-bit words, a(x + c) is read
    from a(2^w + c) = sum_k b_k 2^(w k). Wider shifts run a(x + c) = b(x/c +
    1) with b(y) = a(cy): coefficient k is scaled by c^k (a bit shift when c
    = 2^s), shifted by 1 and divided back exactly. The shift by 1 is repeated
    synthetic division by x - 1: each pass is one Horner run on the last
    quotient, whose end is the next lowest coefficient.
    """
    n = len(desc) - 1
    bits = sum(map(abs, desc)).bit_length() + n if c == 1 else _bound_bits(desc, 1 + abs(c))
    if bits < 127:
        w, acc = 64 if bits < 64 else 128, 0
        if c == 1:
            for a in desc:
                acc += (acc << w) + a
        else:
            for a in desc:
                acc = (acc << w) + acc * c + a
        return _read_lanes(acc, n + 1, w // 8)
    s = c.bit_length() - 1 if c > 0 and not c & (c - 1) else -1
    if s < 0:
        powers = [c ** (n - i) for i in range(n + 1)]
        d = [a * w for a, w in zip(desc, powers)]
    else:
        d = [a << s * (n - i) for i, a in enumerate(desc)] if s else list(desc)
    low = []
    for _ in range(n):
        d = list(accumulate(d))
        low.append(d.pop())
    d += reversed(low)
    if s < 0:
        return [a // w for a, w in zip(d, powers)]
    return [a >> s * (n - i) for i, a in enumerate(d)] if s else d


def _descartes_count(coeffs: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Descartes bound for the roots of a in the open interval (lo, hi), from
    ascending coefficients.

    With hi = A/C and lo = B/E, M(x) = (Ax + B)/(Cx + E) maps (0, inf) onto
    (lo, hi), so the bound is the sign variations of Q(x) = (Cx + E)^n
    a(M(x)) = sum_i a_i (Ax + B)^i (Cx + E)^(n - i), whose coefficients are
    at most sum |a_i| max(|A| + |B|, C + E)^n in size. When that fits two
    words, Q is read in lanes from Q(2^w), one homogenised Horner pass.
    Wider counts take, with lo = u/d and hi = v/d, b(x) = d^n a((u + (v - u)
    x) / d), a positive multiple of a(lo + (hi - lo) x), and the variations
    of T(x) = (x + 1)^n b(1/(x + 1)): the ascending coefficients of b, read
    as descending ones, shifted by 1. The counts agree: T(x) is a positive
    multiple of (x + 1)^n a((hi + lo x)/(x + 1)), so Q(x) is one of the
    reversal x^n T(1/x) at (C/E) x, and neither a reversal nor a positive
    scaling of x changes the sign variations.
    """
    n = len(coeffs) - 1
    A, C, B, E = hi.numerator, hi.denominator, lo.numerator, lo.denominator
    bits = _bound_bits(coeffs, max(abs(A) + abs(B), C + E))
    if bits < 127:
        w = 64 if bits < 64 else 128
        q = _horner(coeffs, (A << w) + B, (C << w) + E)
        return _sign_changes(_read_lanes(q, n + 1, w // 8))
    d = math.lcm(E, C)
    u = B * (d // E)
    w = A * (d // C) - u
    # Descending coefficients of d^n a(y / d), then y -> y + u, then y -> w x.
    desc = [c * d ** (n - i) for i, c in enumerate(coeffs)][::-1]
    if u:
        desc = _taylor_shift(desc, u)
    scaled = [c * w ** k for k, c in enumerate(reversed(desc))]
    return _sign_changes(_taylor_shift(scaled))


def isolates(p: Polynomial, lo: Fraction, hi: Fraction) -> bool:
    """Whether p is nonzero at lo and hi and has exactly one root in (lo, hi).

    A Descartes count of 1 proves it; a larger count proves nothing, so a
    False answer may also come from an interval that does isolate a root.
    """
    return sign_at(p, lo) != 0 and sign_at(p, hi) != 0 \
        and _descartes_count(p.prim, Fraction(lo), Fraction(hi)) == 1


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

def _lower_bound_exponent(desc: Sequence[int]) -> int:
    """s >= 0 with every positive root strictly above 2^s, or -1 when the
    bound is below 1, for an integer polynomial with a sign variation, from
    descending coefficients.

    Kioustelidis' bound 2 max |a_k/a_0|^(1/k), over the a_k of the other
    sign than a_0, on the positive roots of the reversed polynomial, read
    from bit lengths as in _bound_exponent and inverted. A term with
    bits(a_k) >= bits(a_0) - k alone puts the bound at 1 or above.
    """
    a0 = desc[-1]
    top = a0.bit_length()
    exponents = []
    for k, a in enumerate(reversed(desc)):
        if a and (a < 0) != (a0 < 0):
            if a.bit_length() >= top - k:
                return -1
            exponents.append((top - a.bit_length() - 1) // k)
    return min(exponents) - 1


#: Splits at 1 along one path of the first isolation, on p itself, after
#: which a node that still shows two or more sign variations gives up. Such
#: a node surrounds a real multiple root at every depth unless that root is
#: rational, and then it is met at a split; every level costs it one or two
#: Taylor shifts. Of about 55,000 squarefree p, p', p'', delta and B from
#: seeded fuzz corpora at bounds 2, 3 and 12 (nine seeds), one B needs 19
#: splits and every other at most 15. A squarefree input can still reach
#: the cap, as the delta of degree 60 and 978-bit coefficients of a
#: positive-only degree-32 p at bound 2^32 - 1 does; it pays for the gcd
#: certificate with its derivative and one more, uncapped isolation.
_STEP_CAP = 22


class _Inconclusive(Exception):
    """An isolation met a repeated rational root, or two or more sign
    variations at the step cap."""


def _cf_leaves(f: Sequence[int], capped: bool) -> list[tuple[int, ...]]:
    """Integer leaves for the real roots of an integer polynomial f, from its
    ascending coefficients: (a, b, c, d) for a Mobius map M with one root
    between M(0) and M(inf), (u, v) for a root u/v at 0, met at a split or of
    a linear f.

    Vincent-Akritas-Strzebonski continued fractions from M(x) = x and -x. A
    node is an integer Mobius map M(x) = (ax + b)/(cx + d) with a positive
    multiple Q of (cx + d)^n f(M(x)), less the roots met so far, Q(0) != 0,
    so the sign variations of Q bound the roots of f between M(0) and M(inf).
    None drops the node and one makes it a leaf, unless f vanishes at one of
    its ends (flagged), so every leaf has a nonzero witness at both ends. A
    node to split is shifted by 2^s, the Kioustelidis lower bound of its
    positive roots, when that is >= 1, and split at 1 into Q(x + 1) and
    (x + 1)^n Q(1/(x + 1)). By Budan's theorem the second has v - v_left
    roots less an even number, v and v_left the variations of Q and Q(x + 1):
    it is built only when that leaves it a root, and is a leaf unbuilt when
    that leaves it one and f is nonzero at M(0) and M(1). A root met at M(1)
    is divided out of both halves.

    f need not be squarefree. No variation proves that a node holds no root
    of any multiplicity, and one variation or a Budan difference of 1 a
    single simple root. A repeated root at 0 or met at M(1) raises
    _Inconclusive; any other keeps two or more variations on its nodes,
    which raises _Inconclusive at the step cap when ``capped`` is set. A
    squarefree f always finishes.
    """
    if len(f) == 2:
        return [(-f[0], f[1])]
    zero_is_root = f[0] == 0
    if zero_is_root and f[1] == 0:
        raise _Inconclusive
    out: list[tuple[int, ...]] = [(0, 1)] if zero_is_root else []
    desc = list((f[1:] if zero_is_root else f)[::-1])
    n = len(desc) - 1
    mirrored = [-a if (n - i) % 2 else a for i, a in enumerate(desc)]
    # (Q descending, its variations, a, b, c, d, f(M(0)) == 0, f(M(inf)) == 0, steps)
    stack = [(q, _sign_changes(q), a, 0, 0, 1, zero_is_root, False, 0)
             for q, a in ((mirrored, -1), (desc, 1))]
    while stack:
        q, v, a, b, c, d, at_zero, at_inf, steps = stack.pop()
        if not v:
            continue
        if v == 1 and not (at_zero or at_inf):
            out.append((a, b, c, d))
            continue
        if capped and v > 1 and steps >= _STEP_CAP:
            raise _Inconclusive
        s = _lower_bound_exponent(q)
        if s >= 0:
            q = _taylor_shift(q, 1 << s)
            v = _sign_changes(q)
            b, d, at_zero = b + (a << s), d + (c << s), False
        left = _taylor_shift(q)
        at_one = left[-1] == 0
        if at_one:
            if left[-2] == 0:
                raise _Inconclusive
            out.append((a + b, c + d))
            left.pop()
        v_left = _sign_changes(left)
        if v - v_left == 1 and not (at_zero or at_one):
            out.append((b, a + b, d, c + d))
        elif v - v_left > at_one:
            right = _taylor_shift(q[::-1])
            if at_one:
                right.pop()
            stack.append((right, _sign_changes(right), b, a + b, d, c + d, at_one, at_zero,
                          steps + 1))
        stack.append((left, v_left, a, a + b, c, c + d, at_one, at_inf, steps + 1))
    return out


def _isolate(f: Sequence[int], capped: bool) -> list[IsolatingInterval]:
    """Sorted isolating intervals of the real roots of an integer polynomial
    of degree >= 1, read off its leaves, with the power-of-two root bound for
    the end M(inf) of a map M(x) = +-x + b (c = 0). Raises as _cf_leaves.
    Every map starts from +-x and each step keeps ad - bc = +-1, so M(0) is
    the left end when ad - bc > 0 and M(inf) when it is negative."""
    bound = None
    pairs = []
    for leaf in _cf_leaves(f, capped):
        if len(leaf) == 2:
            pairs.append((Fraction(*leaf),) * 2)
            continue
        a, b, c, d = leaf
        if not c:
            bound = bound or Fraction(2) ** _bound_exponent(f)
        ends = (Fraction(b, d), Fraction(a, c) if c else a * bound)
        pairs.append(ends if a * d > b * c else ends[::-1])
    return [IsolatingInterval(lo, hi) for lo, hi in sorted(pairs)]


def cf_root_count(p: Polynomial) -> RootCount:
    """Real root counts by continued fractions: the number of leaves of a
    capped first run that finishes, which proves every real root simple, or
    those of isolate_real_roots' fallbacks when it gives up."""
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    try:
        n = len(_cf_leaves(p.prim, capped=True))
    except _Inconclusive:
        roots = _isolate_given_up(p)
        return RootCount(len(roots), sum(r.multiplicity for r in roots))
    return RootCount(n, n)


def isolate_real_roots(p: Polynomial) -> tuple[IsolatedRoot, ...]:
    """Disjoint isolating intervals for every distinct real root, sorted.

    Continued-fraction isolation runs on p itself first, under a step cap.
    When it finishes, every leaf had one sign variation or a Budan
    difference of 1 and every point root a nonzero derivative, so each real
    root is simple, whatever the complex multiplicities: p is its own (monic)
    witness and every multiplicity is 1. When it gives up, the witness is
    the monic squarefree part, isolated without the cap, and multiplicities
    come from the chain of repeated parts. For a squarefree p that chain
    stops at gcd(p, p') = 1, mostly proved by gcd's integer certificate
    alone, and the witness is monic p.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return ()
    try:
        found = _isolate(p.prim, capped=True)
    except _Inconclusive:
        return _isolate_given_up(p)
    witness = monic(p)
    return tuple(IsolatedRoot(iv, 1, witness) for iv in found)


def _isolate_given_up(p: Polynomial) -> tuple[IsolatedRoot, ...]:
    """isolate_real_roots for a p on which the capped first run gave up."""
    # The chain of repeated parts g0 = monic p and g(k+1) = gcd(gk, gk'): a
    # real root of p of multiplicity m is a root of g0 ... g(m-1) and of no
    # later gk. hk = gk/g(k+1) is the monic squarefree part of gk, and h0
    # that of p.
    chain = [monic(p)]
    while chain[-1].degree >= 1:
        g = chain[-1]
        chain.append(gcd(g, g.derivative()))
        if chain[-1].degree >= g.degree:
            raise InvariantError("gcd(g, g') must have a lower degree than g")
    sf, *later = [div_exact(g, after) for g, after in zip(chain, chain[1:])]
    found = _isolate(sf.prim, capped=False)
    multiplicity = [1] * len(found)
    # A root of gk need not change the sign of gk, but it does change the
    # sign of hk, which divides sf.
    for h in later:
        for i, iv in enumerate(found):
            if _vanishes_on(h, iv):
                multiplicity[i] += 1
    return tuple(IsolatedRoot(iv, m, sf) for iv, m in zip(found, multiplicity))


def _vanishes_on(q: Polynomial, iv: IsolatingInterval) -> bool:
    """Whether q vanishes at the root pinned by iv.

    Only valid when every root of q inside iv is also a root of the witness,
    i.e. q divides the witness (endpoints are then nonzero for q as well).
    """
    if iv.is_point:
        return sign_at(q, iv.lo) == 0
    return sign_at(q, iv.lo) * sign_at(q, iv.hi) < 0


def refine(root: IsolatedRoot, k: int) -> IsolatedRoot:
    """Narrow the root into one level-k dyadic cell [m/2^k, (m+1)/2^k], or to
    the point m/2^k when it is that point, for k >= 0: a binary search over
    the grid points y/2^k strictly inside the interval, by the sign of the
    integer 2^(kn) w(y/2^k) for the witness w of degree n.
    """
    if k < 0:
        raise ValueError("refinement level must be nonnegative")
    iv, w = root.interval, root.witness.prim
    # The grid points at or below lo and at or above hi, adjacent or equal
    # when the interval is a point or lies in one cell.
    left = first = (iv.lo.numerator << k) // iv.lo.denominator
    right = last = -(-(iv.hi.numerator << k) // iv.hi.denominator)
    if last - first < 2:
        return root
    scaled = [c << k * (len(w) - 1 - i) for i, c in enumerate(w)]
    s = sign_at(root.witness, iv.lo)
    while right - left > 1:
        mid = (left + right) // 2
        t = _sign(_horner(scaled, mid))
        if t == s:
            left = mid
        else:
            right = mid
            if not t:  # the root itself
                left = mid
    lo = iv.lo if left == first else Fraction(left, 1 << k)
    hi = iv.hi if right == last else Fraction(right, 1 << k)
    return root._replace(interval=IsolatingInterval(lo, hi))


def _levels(roots: Sequence[IsolatedRoot], *others: Polynomial,
            start: int | None = None) -> Iterator[int]:
    """Levels for a refinement loop: start, by default the least level with
    cells narrower than the widest interval of the roots, then one a step.

    By Rump's bound, distinct roots of an integer P of degree d, squarefree or
    not, are over d^-(d/2 + 2) (|P|_1 + 1)^-d > 2^-e apart: P is the product of
    the distinct primitive witnesses and others, |P|_1 + 1 <= prod (|f|_1 + 1),
    and e is read lazily from bit lengths, each term rounded up. Level e + 2
    cells separate the roots of P and, by Descartes' two-circle condition,
    give a factor of P a count of 0 or 1 about one root; past it, this raises.
    """
    if start is None:
        width = max(r.interval.hi - r.interval.lo for r in roots)
        start = (width.denominator // width.numerator).bit_length()
    yield start
    factors = {r.witness.prim for r in roots} | {q.prim for q in others}
    d = sum(len(f) - 1 for f in factors)
    e = (d + 5) // 2 * d.bit_length() \
        + d * sum((sum(map(abs, f)) + 1).bit_length() for f in factors)
    yield from range(start + 1, e + 3)
    raise InvariantError("refinement passed the root separation bound")


#: The primes below 200, for the modular test in ``rational_value``.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
                 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
                 163, 167, 173, 179, 181, 191, 193, 197, 199)


def _has_root_mod(w: Sequence[int], q: int) -> bool:
    """Whether the integer polynomial w has a root modulo the prime q."""
    w = [c % q for c in reversed(w)]
    for x in range(q):
        acc = 0
        for c in w:
            acc = (acc * x + c) % q
        if not acc:
            return True
    return False


def rational_value(root: IsolatedRoot) -> Fraction | None:
    """The root as an exact rational number, or None when it is irrational.

    By the rational root theorem a rational root u/v of the primitive witness
    w with leading coefficient lc has v | lc, so for a prime q not dividing
    lc, u/v mod q is a root of w mod q: a small prime leaving w mod q without
    a root proves the root irrational. Else, inside one cell of level k with
    2^k > 2|lc|, lc times the interval holds at most one integer s, and the
    root is rational exactly when s/lc is a root of the witness.
    """
    w = root.witness.prim
    lc = abs(w[-1])
    if len(w) > 2 and not root.interval.is_point \
            and any(lc % q and not _has_root_mod(w, q) for q in _SMALL_PRIMES):
        return None
    iv = refine(root, (2 * lc).bit_length()).interval
    if iv.is_point:
        return iv.lo
    s = math.floor(iv.lo * lc) + 1
    if s < iv.hi * lc and sign_at(root.witness, Fraction(s, lc)) == 0:
        return Fraction(s, lc)
    return None


# ---------------------------------------------------------------------------
# Signs and order of algebraic numbers
# ---------------------------------------------------------------------------

def _constant_sign(q: Polynomial, iv: IsolatingInterval) -> int:
    """The sign of q on the closed interval when it is proved constant, else 0.

    Equal nonzero signs at both ends and a Descartes count of 0 inside prove it.
    """
    s = sign_at(q, iv.lo)
    if s and s == sign_at(q, iv.hi) and _descartes_count(q.prim, iv.lo, iv.hi) == 0:
        return s
    return 0


def sign_at_root(q: Polynomial, root: IsolatedRoot) -> int:
    """Exact sign of q at the algebraic number pinned by root."""
    if q.is_zero:
        return 0
    levels = None
    misses = 0
    while not root.interval.is_point:
        s = _constant_sign(q, root.interval)
        if s:
            return s
        misses += 1
        # One refinement settles most misses, so whether q vanishes at the
        # root is asked at the second; past it, q does not, and refining ends
        # once q has constant sign on the closure.
        if misses == 2 and _vanishes_on(gcd(root.witness, q), root.interval):
            return 0
        levels = levels or _levels((root,), q)
        root = refine(root, next(levels))
    return sign_at(q, root.interval.lo)


def compare_roots(a: IsolatedRoot, b: IsolatedRoot) -> int:
    """-1, 0 or +1 ordering of two algebraic numbers; equality is exact.

    Once the closures overlap in more than a shared end, the numbers are
    equal exactly when the common divisor of the witnesses vanishes on the
    overlap: at a point, or by a sign change across an interval, at whose
    ends it is nonzero and where it has at most one root, a simple one.
    """
    levels = None
    while True:
        ia, ib = a.interval, b.interval
        if ia == ib and ia.is_point:
            return 0
        if ia.hi <= ib.lo:
            return -1
        if ib.hi <= ia.lo:
            return 1
        if levels is None:
            common, levels = gcd(a.witness, b.witness), _levels((a, b))
        if _vanishes_on(common, IsolatingInterval(max(ia.lo, ib.lo), min(ia.hi, ib.hi))):
            return 0
        k = next(levels)
        a, b = refine(a, k), refine(b, k)


def order_roots(roots: Iterable[IsolatedRoot]) -> tuple[MergedRoot, ...]:
    """Total order along the real axis; exactly equal roots are merged."""
    ordered: list[list[IsolatedRoot]] = []
    for root in sorted(roots, key=cmp_to_key(compare_roots)):
        if ordered and compare_roots(ordered[-1][0], root) == 0:
            ordered[-1].append(root)
        else:
            ordered.append([root])
    return tuple(MergedRoot(tuple(group)) for group in ordered)
