"""Exact real-root counting, isolation and sign determination.

Roots are pinned by rational isolating intervals together with a witness
polynomial that has one simple root in the interval, so every question
about an algebraic number (its sign under another polynomial, its order
relative to another root) reduces to integer sign computations.

Counting reads the cached Sturm profile (``sturm_count``, ``root_count``):
the number of distinct real roots and the last element of the Sturm
sequence, made in one walk that keeps no sequence. Isolation and the
questions about isolated roots do not: Descartes' rule of signs on dyadic
intervals, reached by integer Taylor shifts, finds the roots. A bisection
of p that finishes proves every real root simple, so p is its own witness;
only one that gives up at a real multiple root (or at its depth cap) takes
the exact squarefree part. Signs and order at isolated roots try a modular
certificate that two polynomials are coprime before the exact gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .polycore import (
    ONE,
    InvariantError,
    Polynomial,
    _horner,
    _positive,
    _sign,
    _sign_changes,
    _sturm_profile,
    gcd,
    monic,
    proves_coprime,
    repeated_part,
    sign_at,
    squarefree_part,
    sturm_sequence,
)


@dataclass(frozen=True)
class IsolatingInterval:
    """Open interval (lo, hi) holding one root; lo == hi pins a rational root."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval bounds out of order")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class IsolatedRoot:
    """One distinct real root of a polynomial p: interval, multiplicity, witness.

    ``multiplicity`` is the root's multiplicity in p. ``witness`` is monic p
    when every real root of p is simple, else the monic squarefree part of p
    (which it also is when the first bisection of p reaches its depth cap);
    it has exactly one (simple) root inside the interval and nonzero values
    at the endpoints. A point interval holds a rational root exactly:
    isolation yields one for 0, for a dyadic root that a bisection midpoint
    hits and for the root of a linear polynomial, and every other interval
    has dyadic endpoints. Whether any other root is rational is for
    ``rational_value`` to say. The functions here accept any
    rational endpoints.
    """

    interval: IsolatingInterval
    multiplicity: int
    witness: Polynomial


@dataclass(frozen=True)
class RootCount:
    distinct: int
    with_multiplicity: int


@dataclass(frozen=True)
class MergedRoot:
    """A single real number carrying every input root equal to it."""

    members: tuple[IsolatedRoot, ...]

    @property
    def primary(self) -> IsolatedRoot:
        return self.members[0]


# ---------------------------------------------------------------------------
# Sturm counting
# ---------------------------------------------------------------------------

def sturm_count(p: Polynomial, lo: Fraction | int | None = None,
                hi: Fraction | int | None = None) -> int:
    """Number of distinct real roots of p in (lo, hi); None means unbounded.

    The whole line reads the cached Sturm profile of p. A finite endpoint,
    which the tests use as a reference count, walks the Sturm sequence of p
    itself, valid since no endpoint is a root.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise ValueError("empty interval")
    if p.degree == 0:
        return 0
    if lo is None and hi is None:
        return _sturm_profile(_positive(p.prim))[0]
    if any(x is not None and sign_at(p, x) == 0 for x in (lo, hi)):
        raise ValueError("interval endpoint is a root")
    # Every root lies strictly inside (-2^e, 2^e), which stands in for an open end.
    bound = Fraction(2) ** _bound_exponent(p.prim)
    lo = -bound if lo is None else Fraction(lo)
    hi = bound if hi is None else Fraction(hi)
    values = [(_horner(c, lo), _horner(c, hi)) for c in sturm_sequence(p)]
    return _sign_changes(v for v, _ in values) - _sign_changes(v for _, v in values)


def _repeated_parts(p: Polynomial) -> Iterable[Polynomial]:
    """g1, g2, ... with g0 = p and g(k+1) = gcd(gk, gk'), while deg gk > 0.

    A real root of p of multiplicity m is a root of g0 ... g(m-1) and of no
    later gk; each gk is read off the Sturm sequence of the one before it.
    """
    g, before = repeated_part(p), p
    while g.degree > 0:
        if g.degree >= before.degree:
            raise InvariantError("gcd(g, g') must have a lower degree than g")
        yield g
        g, before = repeated_part(g), g


def root_count(p: Polynomial) -> RootCount:
    """Distinct and multiplicity-weighted real root counts."""
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if p.degree == 0:
        return RootCount(0, 0)
    distinct = with_mult = sturm_count(p)
    if distinct:
        # g(k+1) divides gk: stop at the first gk without a real zero.
        for g in _repeated_parts(p):
            count = sturm_count(g)
            if not count:
                break
            with_mult += count
    return RootCount(distinct, with_mult)


# ---------------------------------------------------------------------------
# Descartes' rule of signs on intervals
# ---------------------------------------------------------------------------

def _taylor_shift(desc: Sequence[int], c: int = 1) -> list[int]:
    """Descending coefficients of a(x + c), given those of a(x).

    Repeated synthetic division by x - c: each pass is one Horner run, and
    its last value is the next coefficient from the bottom.
    """
    d = list(desc)
    step = None if c == 1 else (lambda acc, x: acc * c + x)
    for end in range(len(d), 1, -1):
        d[:end] = accumulate(d[:end], step)
    return d


def _unit_interval_count(coeffs: Sequence[int]) -> int:
    """Descartes bound for the roots of a in (0, 1), from ascending coefficients.

    The sign variations of (x + 1)^n a(1/(x + 1)), whose positive roots are
    the images of the roots of a in (0, 1), capped at 2. Zero or one
    variation is the exact count; 2 means two or more, which only says that
    there may be more roots.

    The ascending coefficients of a are the descending ones of x^n a(1/x),
    and the Taylor shift by 1 fixes them from the bottom, one per Horner
    pass, while the leading one never changes. A subsequence has no more
    variations than the whole sequence, so the shift stops as soon as the
    leading coefficient and the fixed ones show two.
    """
    d = list(coeffs)
    lead = d[0]
    # Variations among the coefficients fixed so far, and the top one of them.
    count = top = 0
    for end in range(len(d), 1, -1):
        d[:end] = accumulate(d[:end])
        c = d[end - 1]
        if c:
            count += top != 0 and (c < 0) != (top < 0)
            top = c
            if count + (lead != 0 and (lead < 0) != (top < 0)) >= 2:
                return 2
    return count + (lead != 0 and top != 0 and (lead < 0) != (top < 0))


def _descartes_count(coeffs: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Descartes bound for the roots of a in the open interval (lo, hi).

    With lo = u/d and hi = v/d the bound is read on (0, 1) from
    d^n a((u + (v - u) x) / d), a positive multiple of a(lo + (hi - lo) x).
    """
    d = math.lcm(lo.denominator, hi.denominator)
    u, w = int(lo * d), int((hi - lo) * d)
    n = len(coeffs) - 1
    # Descending coefficients of d^n a(y / d), then y -> y + u, then y -> w x.
    desc = [c * d ** (n - i) for i, c in enumerate(coeffs)][::-1]
    if u:
        desc = _taylor_shift(desc, u)
    scaled = [c * w ** k for k, c in enumerate(reversed(desc))]
    return _unit_interval_count(scaled)


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

def _bound_exponent(prim: Sequence[int]) -> int:
    """e with every root of the integer polynomial strictly inside (-2^e, 2^e).

    Fujiwara's bound |z| <= 2 max |a_i/a_n|^(1/(n-i)), read from bit lengths:
    |a_i/a_n| < 2^(bits(a_i) - bits(a_n) + 1), so each term is below
    2^k_i with k_i = ceil((bits(a_i) - bits(a_n) + 1) / (n - i)).
    """
    n = len(prim) - 1
    top = prim[-1].bit_length()
    k = max((-((top - a.bit_length() - 1) // (n - i))
             for i, a in enumerate(prim[:-1]) if a), default=0)
    return k + 1


def _node_count(node: Sequence[int]) -> int:
    """Descartes bound for the roots in (0, 1) of a node polynomial P, P(0) != 0.

    The plain sign variations of P bound its roots in (0, inf) and are read
    first, before any Taylor shift: none means no root, and one means that
    the single positive root lies in (0, 1) exactly when P(0)P(1) < 0.
    """
    v = _sign_changes(node)
    if v <= 1:
        return int(v == 1 and node[0] * sum(node) < 0)
    return _unit_interval_count(node)


#: Bisection depth below (0, 2^e) at which the first isolation, on p itself,
#: gives up on a node that still has Descartes count 2 or more. A real root
#: of multiplicity >= 2 keeps the count of its nodes at 2 or more at every
#: depth, so one that is not dyadic is caught here, and every level costs it
#: a node. The seeded fuzz corpora need at most 13 levels; a squarefree
#: input that reaches the cap pays for its exact squarefree part (a Sturm
#: walk) and one more, uncapped bisection.
_DEPTH_CAP = 16


class _Inconclusive(Exception):
    """A bisection met a repeated root, or a count >= 2 at the depth cap."""


def _isolate_half(coeffs: Sequence[int], e: int, side: int,
                  zero_is_root: bool, capped: bool) -> list[IsolatingInterval]:
    """Isolating intervals of the roots of f in (0, 2^e) (side 1) or (-2^e, 0)
    (side -1), for an f with f(0) != 0 given by its coefficients.

    Vincent-Collins-Akritas bisection. Node (c, j) stands for the interval
    (c/2^j, (c+1)/2^j) of x = side * t / 2^e, and carries a positive multiple
    P of f(side 2^e (c + x) / 2^j) in which x runs over (0, 1). Its halves
    carry 2^n P(x/2) and the Taylor shift of that by 1. A node with Descartes
    count 0 is dropped and one with count 1 is kept, unless f vanishes at one
    of its ends (t = 0 or a dyadic point hit by a bisection): such a node is
    bisected further, so every kept interval has a nonzero witness at both
    ends. A dyadic root found at a midpoint is divided out of the right half.

    f need not be squarefree. A count of 0 proves that a node holds no root
    of any multiplicity, and a count of 1 a single simple root. A dyadic
    multiple root is met at a midpoint, where _Inconclusive is raised; any
    other keeps the count of its nodes at 2 or more, which raises
    _Inconclusive at the depth cap when ``capped`` is set. A squarefree f
    always finishes.
    """
    n = len(coeffs) - 1
    if e >= 0:
        top = [a << (e * i) for i, a in enumerate(coeffs)]
    else:
        top = [a << (-e * (n - i)) for i, a in enumerate(coeffs)]
    if side < 0:
        top = [-a if i % 2 else a for i, a in enumerate(top)]

    def point(c: int, j: int) -> Fraction:
        k = e - j
        return Fraction(side * c << k) if k >= 0 else Fraction(side * c, 1 << -k)

    out: list[IsolatingInterval] = []
    stack = [(0, 0, top, zero_is_root)]
    while stack:
        c, j, node, lo_is_root = stack.pop()
        count = _node_count(node)
        if not count:
            continue
        if count == 1 and not lo_is_root and sum(node):
            ends = sorted((point(c, j), point(c + 1, j)))
            out.append(IsolatingInterval(*ends))
            continue
        if capped and count > 1 and j >= _DEPTH_CAP:
            raise _Inconclusive
        m = len(node) - 1
        left = [a << (m - i) for i, a in enumerate(node)]
        right = _taylor_shift(left[::-1])[::-1]
        mid_is_root = right[0] == 0
        if mid_is_root:
            if right[1] == 0:
                raise _Inconclusive
            mid = point(2 * c + 1, j + 1)
            out.append(IsolatingInterval(mid, mid))
            right = right[1:]
        stack.append((2 * c, j + 1, left, lo_is_root))
        stack.append((2 * c + 1, j + 1, right, mid_is_root))
    return out


def _isolate(f: Sequence[int], capped: bool) -> list[IsolatingInterval]:
    """Sorted isolating intervals of the real roots of an integer polynomial
    of degree >= 1; its dyadic roots on the way come out as points.

    Raises _Inconclusive on a multiple root at 0 or as _isolate_half does;
    a squarefree f always finishes when ``capped`` is unset.
    """
    if len(f) == 2:
        root = Fraction(-f[0], f[1])
        return [IsolatingInterval(root, root)]
    zero_is_root = f[0] == 0
    if zero_is_root and f[1] == 0:
        raise _Inconclusive
    out = [IsolatingInterval(Fraction(0), Fraction(0))] if zero_is_root else []
    rest = f[1:] if zero_is_root else f
    if len(rest) > 1:
        e = _bound_exponent(f)
        for side in (-1, 1):
            out += _isolate_half(rest, e, side, zero_is_root, capped)
    out.sort(key=lambda iv: iv.lo)
    return out


def isolate_real_roots(p: Polynomial) -> tuple[IsolatedRoot, ...]:
    """Disjoint isolating intervals for every distinct real root, sorted.

    Descartes bisection runs on p itself first, under a depth cap. When it
    finishes, every kept node had Descartes count 1 and every point root a
    nonzero derivative, so each real root is simple, whatever the complex
    multiplicities: p is its own (monic) witness and every multiplicity is
    1. When it gives up, the witness is the exact squarefree part, bisected
    again without the cap, and multiplicities come from the chain of
    repeated parts.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return ()
    try:
        found = _isolate(p.prim, capped=True)
    except _Inconclusive:
        pass
    else:
        witness = monic(p)
        return tuple(IsolatedRoot(iv, 1, witness) for iv in found)
    sf = squarefree_part(p)
    found = _isolate(sf.prim, capped=False)
    multiplicity = [1] * len(found)
    # A root of gk need not change the sign of gk, but it does change the
    # sign of its squarefree part hk, which divides sf.
    for g in _repeated_parts(p):
        h = squarefree_part(g)
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


def _bisect_interval(iv: IsolatingInterval, witness: Polynomial) -> IsolatingInterval:
    if iv.is_point:
        return iv
    mid = iv.midpoint
    s = sign_at(witness, mid)
    if s == 0:
        return IsolatingInterval(mid, mid)
    if sign_at(witness, iv.lo) != s:
        return IsolatingInterval(iv.lo, mid)
    return IsolatingInterval(mid, iv.hi)


def bisect_once(root: IsolatedRoot) -> IsolatedRoot:
    return replace(root, interval=_bisect_interval(root.interval, root.witness))


def refine(root: IsolatedRoot, max_width: Fraction | int) -> IsolatedRoot:
    """Shrink the isolating interval to width <= max_width by exact bisection."""
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    iv = root.interval
    while not iv.is_point and iv.width > max_width:
        iv = _bisect_interval(iv, root.witness)
    return replace(root, interval=iv)


def rational_value(root: IsolatedRoot) -> Fraction | None:
    """The root as an exact rational number, or None when it is irrational.

    By the rational root theorem lc * r is an integer for every rational root
    r of the primitive witness with leading coefficient lc. Once the interval
    is narrower than 1/|lc|, lc times it holds at most one integer s, and the
    root is rational exactly when s/lc is a root of the witness.
    """
    lc = abs(root.witness.prim[-1])
    iv = refine(root, Fraction(1, 2 * lc)).interval
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
    iv = root.interval
    if iv.is_point:
        return sign_at(q, iv.lo)
    s = _constant_sign(q, iv)
    if s:
        return s
    if not proves_coprime(root.witness, q):
        g = gcd(root.witness, q)
        if g.degree >= 1 and _vanishes_on(g, iv):
            return 0
    # q does not vanish there; shrink until q has constant sign on the closure.
    while True:
        iv = _bisect_interval(iv, root.witness)
        if iv.is_point:
            return sign_at(q, iv.lo)
        s = _constant_sign(q, iv)
        if s:
            return s


_MAX_COMPARE_STEPS = 10_000


def compare_roots(a: IsolatedRoot, b: IsolatedRoot) -> int:
    """-1, 0 or +1 ordering of two algebraic numbers; equality is exact.

    Once the interiors overlap, the numbers are equal exactly when the common
    divisor of the witnesses changes sign across the overlap: it is nonzero
    at all four endpoints and has at most one root there, a simple one.
    """
    common = None
    for _ in range(_MAX_COMPARE_STEPS):
        ia, ib = a.interval, b.interval
        if ia.hi < ib.lo:
            return -1
        if ib.hi < ia.lo:
            return 1
        if ia.is_point and ib.is_point:
            return _sign(ia.lo - ib.lo)
        if ia.hi == ib.lo:
            return -1
        if ib.hi == ia.lo:
            return 1
        # Interiors overlap: test equality before refining further.
        if ia.is_point:
            if ib.lo < ia.lo < ib.hi and sign_at(b.witness, ia.lo) == 0:
                return 0
            b = bisect_once(b)
            continue
        if ib.is_point:
            if ia.lo < ib.lo < ia.hi and sign_at(a.witness, ib.lo) == 0:
                return 0
            a = bisect_once(a)
            continue
        if common is None:
            if a.witness == b.witness:
                common = a.witness
            elif proves_coprime(a.witness, b.witness):
                common = ONE
            else:
                common = gcd(a.witness, b.witness)
        if sign_at(common, max(ia.lo, ib.lo)) != sign_at(common, min(ia.hi, ib.hi)):
            return 0
        a = bisect_once(a)
        b = bisect_once(b)
    raise RuntimeError("root comparison did not converge")


def order_roots(roots: Iterable[IsolatedRoot]) -> tuple[MergedRoot, ...]:
    """Total order along the real axis; exactly equal roots are merged."""
    ordered: list[list[IsolatedRoot]] = []
    for root in roots:
        placed = False
        lo_idx, hi_idx = 0, len(ordered)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            c = compare_roots(root, ordered[mid][0])
            if c == 0:
                ordered[mid].append(root)
                placed = True
                break
            if c < 0:
                hi_idx = mid
            else:
                lo_idx = mid + 1
        if not placed:
            ordered.insert(lo_idx, [root])
    return tuple(MergedRoot(tuple(group)) for group in ordered)


def separate_roots(roots: Sequence[IsolatedRoot]) -> list[IsolatedRoot]:
    """Refine a strictly increasing root list until interval closures are disjoint.

    Raises ValueError when two neighbours are out of order or equal, where
    refining could never end.
    """
    rs = list(roots)
    for i in range(len(rs) - 1):
        if compare_roots(rs[i], rs[i + 1]) >= 0:
            raise ValueError("roots must be strictly increasing")
        while not rs[i].interval.hi < rs[i + 1].interval.lo:
            a, b = rs[i], rs[i + 1]
            if a.interval.is_point:
                rs[i + 1] = bisect_once(b)
            elif b.interval.is_point or a.interval.width >= b.interval.width:
                rs[i] = bisect_once(a)
            else:
                rs[i + 1] = bisect_once(b)
    return rs
