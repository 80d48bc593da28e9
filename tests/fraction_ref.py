"""Reference polynomial arithmetic on ascending Fraction lists, with no
trailing zero, and the per-token parser of the text format: independent of
the package, whose kernel and parser the tests check."""

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
