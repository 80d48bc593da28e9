"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as ``content * prim``: ``prim`` is a primitive
integer vector (ascending coefficients, gcd 1, no trailing zero, carrying
the sign) and ``content`` is a positive rational.  The pair is canonical, so
equality is structural.  ``prim`` is a positive multiple of the polynomial:
it has the same roots and the same sign everywhere, which is all that root
counting and sign questions need.  All arithmetic runs on integers and is
exact; nothing in this module ever rounds.  Products run by Kronecker
substitution: each factor is packed into one integer at 2^(8 nb), the
integers are multiplied, and the product's coefficients are read back from
signed lanes of nb bytes, a width set by a proven bound on their size.  The
same lane reader serves the ``delta`` and ``B`` of ``shapiro`` and the
Taylor shift of ``realroots``.  Besides the product, the derivative, values
and exact division it holds gcd, which tries a modular coprimality
certificate before an exact remainder sequence, and the text format, which
turns an all-integer text into the primitive vector with no ``Fraction``
per token; every root count is made in ``realroots``.
"""

from __future__ import annotations

import contextlib
import math
import re
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

CoefficientLike = Union[Fraction, int, str]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

#: Entries of the ``gcd`` cache, the one cache in the package. Repeats
#: within one ``classify`` fit easily; each key is a pair of polynomials and
#: each value a divisor of both, so memory stays flat on long runs.
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


def _lane_bytes(bound: int) -> int:
    """Bytes per signed lane for integers of absolute value at most bound:
    at least 8, and enough that every such integer is below 2^(8 nb - 1)."""
    return max(8, (bound.bit_length() + 8) // 8)


def _pack(coeffs: Sequence[int], shift: int) -> int:
    """The reversal of coeffs at 2^shift, by Horner over ascending order, so
    that lanes read from the top come out ascending."""
    acc = 0
    for c in coeffs:
        acc = (acc << shift) + c
    return acc


def _lane_reader(count: int, nb: int):
    """(bias, unpack) for count signed big-endian lanes of nb bytes each."""
    bias = int.from_bytes((b"\x80" + bytes(nb - 1)) * count, "big")
    if nb == 8:
        return bias, struct.Struct(f">{count}q").unpack
    return bias, lambda raw: (int.from_bytes(raw[i:i + nb], "big", signed=True)
                              for i in range(0, len(raw), nb))


#: Readers of up to 127 signed 64-bit lanes, built once: enough for every
#: Taylor shift that takes lanes, and for delta and B up to degree 44.
_LANES = tuple(_lane_reader(k, 8) for k in range(128))


def _read_lanes(v: int, count: int, nb: int) -> list[int]:
    """c_0, ..., c_(count-1), most significant first, from
    v = sum_k c_k 2^(8 nb (count - 1 - k)) with every |c_k| < 2^(8 nb - 1).

    Adding 2^(8 nb - 1) to every lane makes each a digit in [0, 2^(8 nb))
    with no carry into the next, and XOR with that bias leaves c_k in two's
    complement: one struct.unpack reads all 8-byte lanes, and one
    int.from_bytes each wider lane.
    """
    bias, unpack = _LANES[count] if nb == 8 and count < len(_LANES) else _lane_reader(count, nb)
    return list(unpack(((v + bias) ^ bias).to_bytes(nb * count, "big")))


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient vectors, of length len(a) + len(b) - 1,
    by Kronecker substitution: each coefficient is at most |a|_1 |b|_1 in size,
    which sets the lane width."""
    if not a or not b:
        return [0] * (len(a) + len(b) - 1)
    nb = _lane_bytes(sum(map(abs, a)) * sum(map(abs, b)))
    return _read_lanes(_pack(a, 8 * nb) * _pack(b, 8 * nb), len(a) + len(b) - 1, nb)


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


class Polynomial(NamedTuple("Polynomial", [("prim", tuple[int, ...]), ("content", Fraction)])):
    """Univariate polynomial over Q as ``content * prim``, canonical form.

    A record of its two fields with no tuple sum, repetition or order.
    """

    __slots__ = ()

    def __new__(cls, prim: tuple[int, ...], content: Fraction = Fraction(1)) -> "Polynomial":
        self = super().__new__(cls, prim, content)
        if self.prim and self.prim[-1] == 0:
            raise ValueError("trailing zero coefficient; use from_coefficients")
        num, den = self.content.numerator, self.content.denominator
        if math.gcd(*self.prim) > 1 or num <= 0 or (not self.prim and num != den):
            raise ValueError("prim must be primitive and content positive; use from_coefficients")
        return self

    @classmethod
    def _make(cls, iterable) -> "Polynomial":
        # _replace builds through _make, whose default skips the checks above.
        return cls(*iterable)

    def __add__(self, other):
        return NotImplemented

    __radd__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = __add__

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

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.prim or not other.prim:
            return ZERO
        # Gauss's lemma: the product of primitive vectors is primitive.
        return Polynomial(tuple(_int_mul(self.prim, other.prim)), self.content * other.content)

    def derivative(self) -> "Polynomial":
        return _from_ints(_int_derivative(self.prim), self.content)

    def eval_at(self, x: Fraction | int) -> Fraction:
        """Exact value at x = a/b, by homogenised integer Horner."""
        if not self.prim:
            return Fraction(0)
        x = Fraction(x)
        return self.content * Fraction(_horner(self.prim, x), x.denominator ** self.degree)


ZERO = Polynomial(())
ONE = Polynomial((1,))


def from_coefficients(coeffs: Sequence[CoefficientLike]) -> Polynomial:
    """Build a canonical polynomial from ascending coefficients."""
    values = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
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


# ---------------------------------------------------------------------------
# Gcd: a one-sided proof from a gcd over GF(q), then the exact sequence.
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


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of lc(b)^k a by b, for k the number of steps: each step
    scales by lc(b) and cancels the leading term."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        lr = r[-1]
        k = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[i + k] -= lr * bc
        del r[-1]
        while r and r[-1] == 0:
            r.pop()
    return r


def _exact_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Last nonzero element of the primitive remainder sequence a, b, ...:
    gcd(a, b) up to a constant."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))[0]
    return a


@lru_cache(maxsize=CACHE_SIZE)
def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor, 1 without a remainder sequence when
    the modular certificate proves p and q coprime.

    When the prime divides neither leading coefficient, a common factor over
    Z keeps its degree mod the prime, so a constant gcd mod the prime rules
    it out. Otherwise the gcd is the last element of the exact primitive
    remainder sequence.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p.prim, q.prim
    if a and b and a[-1] % _PRIME and b[-1] % _PRIME and _gcd_degree_mod(a, b) == 0:
        return ONE
    return monic(Polynomial(_exact_gcd(a, b)))


# ---------------------------------------------------------------------------
# Text format: comma-separated ascending coefficients, integers or num/den.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"([+-]?)0*([0-9]+)(?:/0*([0-9]+))?")


def parse_rational(token: str) -> Fraction:
    """One stripped token of the format: an integer or num/den, den nonzero.

    Leading zeros are dropped before the digits are converted, so any number
    of them is accepted.
    """
    match = _TOKEN.fullmatch(token)
    if not match:
        raise ValueError(f"malformed rational: {token!r}")
    sign, num, den = match.groups()
    if den == "0":
        raise ValueError(f"zero denominator: {token!r}")
    return Fraction(int(sign + num), int(den or 1))


#: A text of integer tokens only; ``\s`` is what ``str.strip`` removes.
_INTEGER_TEXT = re.compile(r"(?:\s*[+-]?[0-9]+\s*,)*\s*[+-]?[0-9]+\s*")


def parse_polynomial(text: str, descending: bool = False) -> Polynomial:
    """Parse the comma-separated coefficient format, e.g. ``1,0,1`` for x^2+1.

    An integer text takes one ``int`` per token. ``parse_rational`` takes
    the rest, and the few tokens ``int`` refuses: leading zeros past its
    digit limit, or a control character that ``strip`` drops.
    """
    tokens = text.split(",")
    if _INTEGER_TEXT.fullmatch(text):
        with contextlib.suppress(ValueError):
            return _from_ints([int(t) for t in (tokens[::-1] if descending else tokens)], ONE.content)
    values = [parse_rational(t.strip()) for t in tokens]
    if descending:
        values.reverse()
    return from_coefficients(values)


def format_polynomial(p: Polynomial) -> str:
    """Inverse of parse_polynomial; bit-exact round trip."""
    if p.is_zero:
        return "0"
    return ",".join(str(c) for c in p.coeffs)
