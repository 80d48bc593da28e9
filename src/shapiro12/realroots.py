"""Exact real-root counting, isolation and sign determination.

Roots are pinned by rational isolating intervals together with a squarefree
witness polynomial that changes sign across the interval, so every question
about an algebraic number (its sign under another polynomial, its order
relative to another root) reduces to integer sign computations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .polycore import (
    Polynomial,
    _horner,
    _sign,
    gcd,
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
    """One distinct real root of ``owner``.

    ``witness`` is the squarefree part of ``owner``; it has exactly one
    (simple) root inside the interval and nonzero values at the endpoints.
    """

    interval: IsolatingInterval
    multiplicity: int
    owner: Polynomial
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

def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    return _variations(_sign(_horner(c, x)) for c in chain)


def _variations_at_infinity(chain: Sequence[Sequence[int]], positive: bool) -> int:
    def inf_sign(c: Sequence[int]) -> int:
        if not c:
            return 0
        s = _sign(c[-1])
        if positive or len(c) % 2 == 1:
            return s
        return -s

    return _variations(inf_sign(c) for c in chain)


def sturm_count(p: Polynomial, lo: Fraction | int | None = None,
                hi: Fraction | int | None = None) -> int:
    """Number of distinct real roots of p in (lo, hi); None means unbounded.

    Reads the Sturm sequence of p itself, valid since no endpoint is a root.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise ValueError("empty interval")
    if p.degree == 0:
        return 0
    if lo is not None and sign_at(p, lo) == 0:
        raise ValueError("interval endpoint is a root")
    if hi is not None and sign_at(p, hi) == 0:
        raise ValueError("interval endpoint is a root")
    chain = sturm_sequence(p)
    v_lo = _variations_at(chain, Fraction(lo)) if lo is not None else _variations_at_infinity(chain, False)
    v_hi = _variations_at(chain, Fraction(hi)) if hi is not None else _variations_at_infinity(chain, True)
    return v_lo - v_hi


def _repeated_parts(p: Polynomial) -> Iterable[Polynomial]:
    """g1, g2, ... with g0 = p and g(k+1) = gcd(gk, gk'), while deg gk > 0.

    A real root of p of multiplicity m is a root of g0 ... g(m-1) and of no
    later gk; each gk is read off the Sturm sequence of the one before it.
    """
    g = repeated_part(p)
    while g.degree > 0:
        yield g
        g = repeated_part(g)


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
# Isolation
# ---------------------------------------------------------------------------

def _root_bound(p: Polynomial) -> Fraction:
    """Power of two B above the modulus of every root of p, so every real
    root lies strictly inside (-B, B).

    Fujiwara's bound |z| <= 2 max |a_i/a_n|^(1/(n-i)), read from bit lengths:
    |a_i/a_n| < 2^(bits(a_i) - bits(a_n) + 1), so each term is below
    2^k_i with k_i = ceil((bits(a_i) - bits(a_n) + 1) / (n - i)).
    """
    n = len(p.prim) - 1
    top = p.prim[-1].bit_length()
    k = max((-((top - a.bit_length() - 1) // (n - i))
             for i, a in enumerate(p.prim[:-1]) if a), default=0)
    return Fraction(2) ** (k + 1)


def isolate_real_roots(p: Polynomial) -> tuple[IsolatedRoot, ...]:
    """Disjoint isolating intervals for every distinct real root, sorted."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    sf = squarefree_part(p)
    if sf.degree < 1:
        return ()
    # Variations are only read where sf, and so p, is nonzero, so the Sturm
    # sequence of p counts the distinct roots of sf.
    chain = sturm_sequence(p)
    var_memo: dict[Fraction, int] = {}

    def var(x: Fraction) -> int:
        if x not in var_memo:
            var_memo[x] = _variations_at(chain, x)
        return var_memo[x]

    bound = _root_bound(sf)
    total = var(-bound) - var(bound)
    if not total:
        return ()
    intervals: list[IsolatingInterval] = []
    stack: list[tuple[Fraction, Fraction, int]] = [(-bound, bound, total)]
    while stack:
        lo, hi, count = stack.pop()
        if count == 1:
            # A few tightening steps, then snap: rational roots collapse to
            # exact points, other intervals just get narrower.
            iv = IsolatingInterval(lo, hi)
            for _ in range(8):
                if iv.is_point:
                    break
                iv = _bisect_interval(iv, sf)
            intervals.append(_snap_rational(iv, sf))
            continue
        mid = (lo + hi) / 2
        if sign_at(sf, mid) == 0:
            # Rational root exactly at the midpoint: carve a gap around it.
            w = (hi - lo) / 4
            while True:
                if sign_at(sf, mid - w) != 0 and sign_at(sf, mid + w) != 0 \
                        and var(mid - w) - var(mid + w) == 1:
                    break
                w /= 2
            intervals.append(IsolatingInterval(mid, mid))
            left = var(lo) - var(mid - w)
            right = var(mid + w) - var(hi)
            if left:
                stack.append((lo, mid - w, left))
            if right:
                stack.append((mid + w, hi, right))
        else:
            left = var(lo) - var(mid)
            right = count - left
            if left:
                stack.append((lo, mid, left))
            if right:
                stack.append((mid, hi, right))
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))

    # A root of gk need not change the sign of gk, but it does change the
    # sign of its squarefree part hk, which divides sf.
    multiplicity = [1] * len(intervals)
    for g in _repeated_parts(p):
        h = squarefree_part(g)
        for i, iv in enumerate(intervals):
            if _vanishes_on(h, iv):
                multiplicity[i] += 1
    return tuple(IsolatedRoot(iv, m, p, sf) for iv, m in zip(intervals, multiplicity))


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational in the closed interval [lo, hi]."""
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if ceil_lo <= hi:
        return Fraction(ceil_lo)
    floor_lo = lo.numerator // lo.denominator
    return floor_lo + 1 / _simplest_in(1 / (hi - floor_lo), 1 / (lo - floor_lo))


def _snap_rational(iv: IsolatingInterval, witness: Polynomial) -> IsolatingInterval:
    """Collapse to an exact point when the interval's simplest rational is the root."""
    if iv.is_point:
        return iv
    candidate = _simplest_in(iv.lo, iv.hi)
    if sign_at(witness, candidate) == 0:
        return IsolatingInterval(candidate, candidate)
    return iv


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
    if not iv.is_point and iv.width > max_width:
        while not iv.is_point and iv.width > max_width:
            iv = _bisect_interval(iv, root.witness)
        iv = _snap_rational(iv, root.witness)
    return replace(root, interval=iv)


# ---------------------------------------------------------------------------
# Signs and order of algebraic numbers
# ---------------------------------------------------------------------------

def sign_at_root(q: Polynomial, root: IsolatedRoot) -> int:
    """Exact sign of q at the algebraic number pinned by root."""
    if q.is_zero:
        return 0
    iv = root.interval
    if iv.is_point:
        return sign_at(q, iv.lo)
    g = gcd(root.witness, q)
    if g.degree >= 1 and _vanishes_on(g, iv):
        return 0
    # q does not vanish there; shrink until q has constant sign on the closure.
    while True:
        s_lo = sign_at(q, iv.lo)
        s_hi = sign_at(q, iv.hi)
        if s_lo != 0 and s_lo == s_hi and sturm_count(q, iv.lo, iv.hi) == 0:
            return s_lo
        iv = _bisect_interval(iv, root.witness)
        if iv.is_point:
            return sign_at(q, iv.lo)


_MAX_COMPARE_STEPS = 10_000


def compare_roots(a: IsolatedRoot, b: IsolatedRoot) -> int:
    """-1, 0 or +1 ordering of two algebraic numbers; equality is exact."""
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
        g = gcd(a.witness, b.witness)
        if g.degree >= 1:
            lo = max(ia.lo, ib.lo)
            hi = min(ia.hi, ib.hi)
            if lo < hi and sign_at(g, lo) != 0 and sign_at(g, hi) != 0 \
                    and sturm_count(g, lo, hi) >= 1:
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
    """Refine a strictly increasing root list until interval closures are disjoint."""
    rs = list(roots)
    for i in range(len(rs) - 1):
        while not rs[i].interval.hi < rs[i + 1].interval.lo:
            a, b = rs[i], rs[i + 1]
            if b.interval.hi < a.interval.lo or a.interval.is_point and b.interval.is_point:
                # Out of order, or one rational root twice: refining cannot end.
                raise ValueError("roots must be strictly increasing")
            if a.interval.is_point:
                rs[i + 1] = bisect_once(b)
            elif b.interval.is_point or a.interval.width >= b.interval.width:
                rs[i] = bisect_once(a)
            else:
                rs[i + 1] = bisect_once(b)
    return rs
