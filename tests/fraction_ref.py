"""Reference polynomial arithmetic on ascending Fraction lists, with no
trailing zero, the per-token parser of the text format and the interval
Descartes count by two Taylor shifts: independent of the package, whose
kernel, parser and count the tests check."""

import math
import re
from fractions import Fraction


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ref_trim(x + y for x, y in zip(a, b))


def ref_sum(*terms):
    """The sum of c * a over the (c, a) pairs."""
    total = ()
    for c, a in terms:
        total = ref_add(total, [c * x for x in a])
    return total


def ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(a, x):
    return sum((c * x ** i for i, c in enumerate(a)), Fraction(0))


def ref_derivative(a):
    return ref_trim(i * x for i, x in enumerate(a))[1:]


def ref_gcd(a, b):
    """Monic gcd by the textbook Euclidean algorithm over Q."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            f, k = r[-1] / b[-1], len(r) - len(b)
            for i, y in enumerate(b):
                r[i + k] -= f * y
            r = list(ref_trim(r))
        a, b = b, tuple(r)
    return tuple(x / a[-1] for x in a)


def ref_compose(a, b):
    """a(b(x)), by Horner's rule."""
    out = ()
    for c in reversed(a):
        out = ref_add(ref_mul(out, b), (c,))
    return out


_REF_TOKEN = re.compile(r"([+-]?)0*([0-9]+)(?:/0*([0-9]+))?")


def ref_parse_rational(token):
    """One stripped token: an integer or num/den, any leading zeros, den nonzero."""
    match = _REF_TOKEN.fullmatch(token)
    if not match:
        raise ValueError(f"malformed rational: {token!r}")
    sign, num, den = match.groups()
    if den == "0":
        raise ValueError(f"zero denominator: {token!r}")
    return Fraction(int(sign + num), int(den or 1))


def ref_parse_polynomial(text, descending=False):
    """The comma-separated format parsed token by token, every token a
    Fraction: ascending coefficients, ValueError naming the first bad token."""
    values = [ref_parse_rational(t.strip()) for t in text.split(",")]
    if descending:
        values.reverse()
    return ref_trim(values)


def ref_taylor_shift(desc, c):
    """Descending coefficients of a(x + c), given those of a(x), by repeated
    synthetic division by x - c: each pass leaves the next lowest one."""
    d, low = list(desc), []
    for _ in range(len(d) - 1):
        for i in range(1, len(d)):
            d[i] += c * d[i - 1]
        low.append(d.pop())
    return d + low[::-1]


def ref_descartes_count(coeffs, lo, hi):
    """Sign variations of (x + 1)^n b(1/(x + 1)) for b(x) = d^n a((u + (v - u)
    x) / d), lo = u/d and hi = v/d, from the ascending integer coefficients of
    a: the package's count on (lo, hi) before it took one Mobius pass."""
    d = math.lcm(lo.denominator, hi.denominator)
    u = lo.numerator * (d // lo.denominator)
    w = hi.numerator * (d // hi.denominator) - u
    n = len(coeffs) - 1
    desc = [c * d ** (n - i) for i, c in enumerate(coeffs)][::-1]
    desc = ref_taylor_shift(desc, u)
    shifted = ref_taylor_shift([c * w ** k for k, c in enumerate(reversed(desc))], 1)
    signs = [c > 0 for c in shifted if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))
