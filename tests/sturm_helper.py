"""Sturm counts on intervals: a reference the tests check isolation against.

The package counts real roots on the whole line only, from the cached Sturm
profile. A count on a finite or half-open interval walks the Sturm sequence
again and evaluates it at both ends, an algorithm independent of the
Descartes counts that isolation reads.
"""

from fractions import Fraction

from shapiro12.polycore import _horner, _int_derivative, _primitive, _remainder_sequence, \
    _sign_changes, sign_at
from shapiro12.realroots import _bound_exponent
from shapiro12.realroots import sturm_count as _whole_line_count


def sturm_sequence(p):
    """Sturm sequence p, p', -rem, ... as primitive integer vectors, uncached.

    Squarefree or not, its sign variations count distinct real roots at
    every x with p(x) != 0; its last element is gcd(p, p') up to a constant.
    """
    return _remainder_sequence(p.prim, _primitive(_int_derivative(p.prim))[0])


def sturm_count(p, lo=None, hi=None):
    """Number of distinct real roots of p in (lo, hi); None means unbounded.

    The whole line is the package's own count. A finite endpoint walks the
    Sturm sequence of p itself, valid since no endpoint is a root.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise ValueError("empty interval")
    if p.degree == 0 or (lo is None and hi is None):
        return _whole_line_count(p)
    if any(x is not None and sign_at(p, x) == 0 for x in (lo, hi)):
        raise ValueError("interval endpoint is a root")
    # Every root lies strictly inside (-2^e, 2^e), which stands in for an open end.
    bound = Fraction(2) ** _bound_exponent(p.prim)
    lo = -bound if lo is None else Fraction(lo)
    hi = bound if hi is None else Fraction(hi)
    values = [(_horner(c, lo), _horner(c, hi)) for c in sturm_sequence(p)]
    return _sign_changes(v for v, _ in values) - _sign_changes(v for _, v in values)
