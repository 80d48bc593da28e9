"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as ``content * prim``: ``prim`` is a primitive
integer vector (ascending coefficients, gcd 1, no trailing zero, carrying
the sign) and ``content`` is a positive rational.  The pair is canonical, so
equality is structural.  ``prim`` is a positive multiple of the polynomial:
it has the same roots and the same sign everywhere, which is all that root
counting and sign questions need.  All arithmetic runs on integers and is
exact; nothing in this module ever rounds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

CoefficientLike = Union[Fraction, int, str]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

#: Entries of each package-level ``lru_cache`` in this module.  Repeats
#: within one ``classify`` fit easily; repeats across searches are served by
#: the harness's own memo, so memory stays flat on long runs.  Each key is a
#: polynomial or, for the Sturm profile, its sign-normalised primitive
#: vector; each value is a bool or a divisor of an argument (with a count),
#: so entries are bounded in bytes too.  No Sturm sequence is kept, whose
#: middle elements can be fifty times wider than the polynomial.
CACHE_SIZE = 256


class InvariantError(AssertionError):
    """A mathematical invariant failed; raised explicitly so ``python -O`` keeps it."""


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _primitive(coeffs: list[int]) -> tuple[tuple[int, ...], int]:
    """Strip trailing zeros and divide out the gcd: (primitive vector, gcd)."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    g = math.gcd(*coeffs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
    return tuple(coeffs), g


def _from_ints(ints: list[int], content: Fraction) -> "Polynomial":
    """Canonical form of content * ints, for content > 0."""
    prim, g = _primitive(ints)
    return Polynomial(prim, content * g if g > 1 else content) if prim else ZERO


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient vectors, of length len(a) + len(b) - 1."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_derivative(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _horner(coeffs: Sequence[int], x: Fraction | int) -> int:
    """b**d * P(a/b) for x = a/b and d = deg P: homogenised integer Horner."""
    if not coeffs:
        return 0
    a, b = x.numerator, x.denominator
    acc = coeffs[-1]
    bp = 1
    for coef in reversed(coeffs[:-1]):
        bp *= b
        acc = acc * a + coef * bp
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial over Q as ``content * prim``, canonical form."""

    prim: tuple[int, ...]
    content: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.prim and self.prim[-1] == 0:
            raise ValueError("trailing zero coefficient; use from_coefficients")
        num, den = self.content.numerator, self.content.denominator
        if math.gcd(*self.prim) > 1 or num <= 0 or (not self.prim and num != den):
            raise ValueError("prim must be primitive and content positive; use from_coefficients")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending rational coefficients."""
        return tuple(self.content * c for c in self.prim)

    @property
    def degree(self) -> int | float:
        return len(self.prim) - 1 if self.prim else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.prim

    def leading_coefficient(self) -> Fraction:
        if not self.prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not other.prim:
            return self
        if not self.prim:
            return other
        # Bring both contents over one denominator: u/den and v/den.
        c1, c2 = self.content, other.content
        den = math.lcm(c1.denominator, c2.denominator)
        u = c1.numerator * (den // c1.denominator)
        v = c2.numerator * (den // c2.denominator)
        a, b = self.prim, other.prim
        if len(a) < len(b):
            a, b, u, v = b, a, v, u
        out = [u * c for c in a]
        for i, c in enumerate(b):
            out[i] += v * c
        return _from_ints(out, Fraction(1, den))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.prim), self.content)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.prim or not other.prim:
            return ZERO
        # Gauss's lemma: the product of primitive vectors is primitive.
        return Polynomial(tuple(_int_mul(self.prim, other.prim)), self.content * other.content)

    def __rmul__(self, other: "Fraction | int") -> "Polynomial":
        return self.scale(other)

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = Fraction(c)
        if c == 0 or not self.prim:
            return ZERO
        if c > 0:
            return Polynomial(self.prim, self.content * c)
        return Polynomial(tuple(-v for v in self.prim), self.content * -c)

    def derivative(self) -> "Polynomial":
        return _from_ints(_int_derivative(self.prim), self.content)

    def eval_at(self, x: Fraction | int) -> Fraction:
        """Exact value at x = a/b, by homogenised integer Horner."""
        if not self.prim:
            return Fraction(0)
        x = Fraction(x)
        return self.content * Fraction(_horner(self.prim, x), x.denominator ** self.degree)

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                base = "x" if i == 1 else f"x^{i}"
                term = base if mag == 1 else f"{mag}{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


ZERO = Polynomial(())
ONE = Polynomial((1,))


def from_coefficients(coeffs: Sequence[CoefficientLike]) -> Polynomial:
    """Build a canonical polynomial from ascending coefficients."""
    values = [Fraction(c) for c in coeffs]
    den = math.lcm(*(v.denominator for v in values))
    return _from_ints([v.numerator * (den // v.denominator) for v in values], Fraction(1, den))


def monic(p: Polynomial) -> Polynomial:
    if p.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    lead = p.prim[-1]
    prim = p.prim if lead > 0 else tuple(-c for c in p.prim)
    return Polynomial(prim, Fraction(1, abs(lead)))


def div_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact quotient p / q; ValueError when q does not divide p over Q.

    By Gauss's lemma the quotient of primitive vectors, when exact, is again
    a primitive integer vector, so the long division stays in the integers
    and every step must divide exactly.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return ZERO
    rem = list(p.prim)
    b = q.prim
    db = len(b) - 1
    lb = b[-1]
    if len(rem) - 1 < db:
        raise ValueError("inexact polynomial division")
    quo = [0] * (len(rem) - db)
    for k in range(len(quo) - 1, -1, -1):
        f, r = divmod(rem[k + db], lb)
        if r:
            raise ValueError("inexact polynomial division")
        quo[k] = f
        if f:
            for i, c in enumerate(b):
                rem[i + k] -= f * c
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return Polynomial(tuple(quo), p.content / q.content)


def _int_rem_positive(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of a by b up to a strictly positive rational factor.

    Each reduction step scales by abs(lc(b)) instead of lc(b), so the sign
    of the true remainder is preserved.  Needed for Sturm chains.  The usual
    step of a remainder sequence, deg a = deg b + 1, is one pass:
    lc(b)^2 a - (q1 x + q0) b, with lc(b)^2 > 0.
    """
    db = len(b) - 1
    lb = b[-1]
    if len(a) == db + 2:
        q1 = lb * a[-1]
        q0 = lb * a[-2] - a[-1] * (b[-2] if db else 0)
        l2 = lb * lb
        # The top two coefficients cancel; b[i - 1] is 0 at i = 0.
        r = [l2 * x - q0 * y - q1 * z for x, y, z in zip(a[:db], b, (0, *b))]
        while r and r[-1] == 0:
            r.pop()
        return r
    r = list(a)
    alb = abs(lb)
    slb = _sign(lb)
    while len(r) - 1 >= db and r:
        lr = slb * r[-1]
        k = len(r) - 1 - db
        r = [alb * c for c in r]
        for i, bc in enumerate(b):
            r[i + k] -= lr * bc
        del r[-1]
        while r and r[-1] == 0:
            r.pop()
    return r


def sign_at(p: Polynomial, x: Fraction | int) -> int:
    """Exact sign of p(x), computed with integer arithmetic only."""
    return _sign(_horner(p.prim, x))


def _sign_changes(values: Iterable[int]) -> int:
    """Sign variations of a sequence of integers, zeros skipped."""
    count = 0
    prev = 0
    for c in values:
        if c:
            if prev and (c < 0) != (prev < 0):
                count += 1
            prev = c
    return count


def _remainder_sequence(a: tuple[int, ...], b: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield a, b, -rem(a, b), ... as primitive integer vectors, up to the last nonzero one.

    Each remainder is negated and taken up to a positive factor, so for
    b = a' this is a Sturm sequence of a; the last element is gcd(a, b) up
    to a constant.  A walk holds two elements at a time.
    """
    yield a
    while b:
        yield b
        a, b = b, _primitive([-c for c in _int_rem_positive(a, b)])[0]


@lru_cache(maxsize=CACHE_SIZE)
def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor: the last element of the remainder sequence."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    for last in _remainder_sequence(p.prim, q.prim):
        pass
    return monic(Polynomial(last))


def sturm_sequence(p: Polynomial) -> Iterator[tuple[int, ...]]:
    """Sturm sequence p, p', -rem, ... as primitive integer vectors, uncached.

    Squarefree or not, its sign variations count distinct real roots at
    every x with p(x) != 0; its last element is gcd(p, p') up to a constant.
    """
    return _remainder_sequence(p.prim, _primitive(_int_derivative(p.prim))[0])


def _positive(prim: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive vector with a positive leading coefficient: that of monic p."""
    return prim if prim[-1] > 0 else tuple(-c for c in prim)


@lru_cache(maxsize=CACHE_SIZE)
def _sturm_profile(f: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(distinct real roots, last element of the Sturm sequence) of the
    primitive vector f, with a positive leading coefficient.

    Every nonzero rational multiple of one polynomial has this key, so p,
    -p, (3/7)p and monic p share one entry. One walk of the sequence, which
    is not kept: an element of degree d has the sign of its leading
    coefficient at +inf, times (-1)^d at -inf.
    """
    at_minus, at_plus = [], []
    for last in _remainder_sequence(f, _primitive(_int_derivative(f))[0]):
        s = _sign(last[-1])
        at_plus.append(s)
        at_minus.append(s if len(last) % 2 else -s)
    return _sign_changes(at_minus) - _sign_changes(at_plus), last


def squarefree_part(p: Polynomial) -> Polynomial:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    if p.degree == 0:
        return ONE
    return div_exact(monic(p), repeated_part(p))


def repeated_part(p: Polynomial) -> Polynomial:
    """Monic gcd(p, p'): each root of p with its multiplicity lowered by one.

    Read off the last element of the Sturm sequence, kept in the profile.
    """
    return monic(Polynomial(_sturm_profile(_positive(p.prim))[1]))


# ---------------------------------------------------------------------------
# Modular certificate: a one-sided proof from a gcd over GF(q).
# ---------------------------------------------------------------------------

#: The word-size prime of the certificate: 2^30 - 35, the largest prime
#: below 2^30, so every residue is a one-digit Python integer.
_PRIME = 2 ** 30 - 35


def _gcd_degree_mod(a: Sequence[int], b: Sequence[int]) -> int:
    """Degree of gcd(a, b) over GF(q), for leading coefficients prime to q."""
    q = _PRIME
    a = [c % q for c in a]
    b = [c % q for c in b]
    while b:
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        while len(a) > db:
            f = a[-1] * inv % q
            k = len(a) - 1 - db
            a[k:] = [(x - f * y) % q for x, y in zip(a[k:], b)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


@lru_cache(maxsize=CACHE_SIZE)
def proves_coprime(p: Polynomial, q: Polynomial) -> bool:
    """True proves that p and q have no common root; False proves nothing.

    When the prime divides neither leading coefficient, a common factor over
    Z keeps its degree mod the prime, so a constant gcd mod the prime rules
    it out.
    """
    if p.is_zero or q.is_zero or p.prim[-1] % _PRIME == 0 or q.prim[-1] % _PRIME == 0:
        return False
    return _gcd_degree_mod(p.prim, q.prim) == 0


# ---------------------------------------------------------------------------
# Text format: comma-separated ascending coefficients, integers or num/den.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(token: str) -> Fraction:
    """One stripped token of the format: an integer or num/den, den nonzero."""
    if not _TOKEN.fullmatch(token):
        raise ValueError(f"malformed rational: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {token!r}") from exc


def parse_polynomial(text: str, descending: bool = False) -> Polynomial:
    """Parse the comma-separated coefficient format, e.g. ``1,0,1`` for x^2+1."""
    try:
        values = [parse_rational(t.strip()) for t in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed polynomial text: {text!r}") from exc
    if descending:
        values.reverse()
    return from_coefficients(values)


def format_polynomial(p: Polynomial) -> str:
    """Inverse of parse_polynomial; bit-exact round trip."""
    if p.is_zero:
        return "0"
    return ",".join(str(c) for c in p.coeffs)
