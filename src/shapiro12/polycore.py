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
from typing import Sequence, Union

CoefficientLike = Union[Fraction, int, str]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


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
    return Polynomial(prim, content * g) if prim else ZERO


def _int_derivative(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _horner(coeffs: Sequence[int], x: Fraction) -> int:
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
        if math.gcd(*self.prim) > 1 or self.content <= 0 or (not self.prim and self.content != 1):
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

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of x**power (zero beyond the degree)."""
        if 0 <= power < len(self.prim):
            return self.content * self.prim[power]
        return Fraction(0)

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
        out = [0] * (len(self.prim) + len(other.prim) - 1)
        for i, a in enumerate(self.prim):
            if a == 0:
                continue
            for j, b in enumerate(other.prim):
                out[i + j] += a * b
        return Polynomial(tuple(out), self.content * other.content)

    def __rmul__(self, other: "Fraction | int") -> "Polynomial":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

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


def constant(c: CoefficientLike) -> Polynomial:
    return from_coefficients([c])


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
    of the true remainder is preserved.  Needed for Sturm chains.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
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
    return _sign(_horner(p.prim, Fraction(x)))


@lru_cache(maxsize=None)
def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor, via a primitive Euclidean remainder scheme."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p.prim, q.prim
    if not a:
        a, b = b, a
    # Any nonzero multiple of each remainder serves, so reuse the Sturm one.
    while b:
        a, b = b, _primitive(_int_rem_positive(a, b))[0]
    return monic(Polynomial(a))


@lru_cache(maxsize=None)
def squarefree_part(p: Polynomial) -> Polynomial:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    if p.degree == 0:
        return ONE
    return monic(div_exact(p, gcd(p, p.derivative())))


@lru_cache(maxsize=None)
def squarefree_decomposition(p: Polynomial) -> tuple[tuple[int, Polynomial], ...]:
    """Yun decomposition: pairs (multiplicity, monic squarefree factor).

    p equals its leading coefficient times the product of factor**multiplicity.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    if p.degree == 0:
        return ()
    f = monic(p)
    fp = f.derivative()
    g = gcd(f, fp)
    if g.degree == 0:
        return ((1, f),)
    w = div_exact(f, g)
    z = div_exact(fp, g) - w.derivative()
    out: list[tuple[int, Polynomial]] = []
    i = 1
    while w.degree > 0:
        gi = gcd(w, z)
        if gi.degree > 0:
            out.append((i, gi))
        w = div_exact(w, gi)
        z = div_exact(z, gi) - w.derivative()
        i += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Text format: comma-separated ascending coefficients, integers or num/den.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_polynomial(text: str, descending: bool = False) -> Polynomial:
    """Parse the comma-separated coefficient format, e.g. ``1,0,1`` for x^2+1."""
    tokens = [t.strip() for t in text.split(",")]
    if not all(_TOKEN.fullmatch(t) for t in tokens):
        raise ValueError(f"malformed polynomial text: {text!r}")
    try:
        values = [Fraction(t) for t in tokens]
    except ZeroDivisionError as exc:
        raise ValueError(f"malformed polynomial text: {text!r}") from exc
    if descending:
        values.reverse()
    return from_coefficients(values)


def format_polynomial(p: Polynomial) -> str:
    """Inverse of parse_polynomial; bit-exact round trip."""
    if p.is_zero:
        return "0"
    return ",".join(str(c) for c in p.coeffs)
