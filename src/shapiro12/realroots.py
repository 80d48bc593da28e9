"""Exact real-root counting, isolation and sign determination.

Roots are pinned by rational isolating intervals together with a squarefree
witness polynomial that changes sign across the interval, so every question
about an algebraic number (its sign under another polynomial, its order
relative to another root) reduces to integer sign computations.

Counting reads Sturm sequences (``sturm_count``, ``root_count``). Isolation
and the questions about isolated roots do not: a modular certificate proves
the polynomial squarefree (or two polynomials coprime), and Descartes' rule
of signs on dyadic intervals, reached by integer Taylor shifts, does the
rest. Only when a certificate fails does the exact gcd take over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .polycore import (
    Polynomial,
    _horner,
    _sign,
    gcd,
    monic,
    proves_coprime,
    proves_squarefree,
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

    ``witness`` is the monic squarefree part of ``owner``; it has exactly one
    (simple) root inside the interval and nonzero values at the endpoints.
    A point interval holds a rational root exactly. Isolation yields such
    points or dyadic endpoints; the functions here accept any rational ones.
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
# Descartes' rule of signs on intervals
# ---------------------------------------------------------------------------

def _sign_changes(coeffs: Iterable[int]) -> int:
    """Sign variations of a coefficient sequence, zeros skipped."""
    count = 0
    prev = 0
    for c in coeffs:
        if c:
            if prev and (c < 0) != (prev < 0):
                count += 1
            prev = c
    return count


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
    the images of the roots of a in (0, 1). Zero or one variation is the
    exact count; more only says that there may be more roots.
    """
    # The ascending coefficients of a are the descending ones of x^n a(1/x).
    return _sign_changes(_taylor_shift(coeffs))


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


def _isolate_half(coeffs: Sequence[int], e: int, side: int,
                  zero_is_root: bool) -> list[IsolatingInterval]:
    """Isolating intervals of the roots of f in (0, 2^e) (side 1) or (-2^e, 0)
    (side -1), for a squarefree f with f(0) != 0, given by its coefficients.

    Vincent-Collins-Akritas bisection. Node (c, j) stands for the interval
    (c/2^j, (c+1)/2^j) of x = side * t / 2^e, and carries a positive multiple
    P of f(side 2^e (c + x) / 2^j) in which x runs over (0, 1). Its halves
    carry 2^n P(x/2) and the Taylor shift of that by 1. A node with Descartes
    count 0 is dropped and one with count 1 is kept, unless f vanishes at one
    of its ends (t = 0 or a dyadic point hit by a bisection): such a node is
    bisected further, so every kept interval has a nonzero witness at both
    ends. A dyadic root found at a midpoint is divided out of the right half.
    """
    n = len(coeffs) - 1
    if e >= 0:
        top = [a << (e * i) for i, a in enumerate(coeffs)]
    else:
        top = [a << (-e * (n - i)) for i, a in enumerate(coeffs)]
    if side < 0:
        top = [-a if i % 2 else a for i, a in enumerate(top)]
    unit = Fraction(2) ** e

    def point(c: int, j: int) -> Fraction:
        return side * unit * Fraction(c, 2 ** j)

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
        m = len(node) - 1
        left = [a << (m - i) for i, a in enumerate(node)]
        right = _taylor_shift(left[::-1])[::-1]
        mid_is_root = right[0] == 0
        if mid_is_root:
            mid = point(2 * c + 1, j + 1)
            out.append(IsolatingInterval(mid, mid))
            right = right[1:]
        stack.append((2 * c, j + 1, left, lo_is_root))
        stack.append((2 * c + 1, j + 1, right, mid_is_root))
    return out


def _isolate_squarefree(f: Sequence[int]) -> list[IsolatingInterval]:
    """Sorted isolating intervals of the real roots of a squarefree integer
    polynomial of degree >= 1; its dyadic roots on the way come out as points."""
    if len(f) == 2:
        root = Fraction(-f[0], f[1])
        return [IsolatingInterval(root, root)]
    zero_is_root = f[0] == 0
    out = [IsolatingInterval(Fraction(0), Fraction(0))] if zero_is_root else []
    rest = f[1:] if zero_is_root else f
    if len(rest) > 1:
        e = _bound_exponent(f)
        for side in (-1, 1):
            out += _isolate_half(rest, e, side, zero_is_root)
    out.sort(key=lambda iv: iv.lo)
    return out


def isolate_real_roots(p: Polynomial) -> tuple[IsolatedRoot, ...]:
    """Disjoint isolating intervals for every distinct real root, sorted.

    A modular certificate first tries to prove p squarefree; p is then its
    own witness and every multiplicity is 1. Otherwise the witness is the
    exact squarefree part, and multiplicities come from the chain of
    repeated parts.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return ()
    certified = proves_squarefree(p)
    sf = monic(p) if certified else squarefree_part(p)
    intervals = [_snap_rational(iv, sf) for iv in _isolate_squarefree(sf.prim)]
    multiplicity = [1] * len(intervals)
    if not certified:
        # A root of gk need not change the sign of gk, but it does change the
        # sign of its squarefree part hk, which divides sf.
        for g in _repeated_parts(p):
            h = squarefree_part(g)
            for i, iv in enumerate(intervals):
                if _vanishes_on(h, iv):
                    multiplicity[i] += 1
    return tuple(IsolatedRoot(iv, m, p, sf) for iv, m in zip(intervals, multiplicity))


def _simplest_between(lo: Fraction, hi: Fraction | None) -> Fraction:
    """Smallest-denominator rational in the open interval (lo, hi); None is +inf."""
    above = math.floor(lo) + 1
    if hi is None or above < hi:
        return Fraction(above)
    # (lo, hi) lies in [n, n + 1] for n = above - 1: x = n + 1/y, y > 1.
    n = above - 1
    return n + 1 / _simplest_between(1 / (hi - n), 1 / (lo - n) if lo != n else None)


def _snap_rational(iv: IsolatingInterval, witness: Polynomial) -> IsolatingInterval:
    """Collapse to an exact point when the interval's simplest rational is the root."""
    if iv.is_point:
        return iv
    candidate = _simplest_between(iv.lo, iv.hi)
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
        lo = max(ia.lo, ib.lo)
        hi = min(ia.hi, ib.hi)
        if a.witness == b.witness:
            # Each interval holds one root of the witness, so the numbers are
            # equal exactly when the overlap holds a root.
            if sign_at(a.witness, lo) != sign_at(a.witness, hi):
                return 0
        elif not proves_coprime(a.witness, b.witness):
            g = gcd(a.witness, b.witness)
            if g.degree >= 1 and sign_at(g, lo) != 0 and sign_at(g, hi) != 0 \
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
