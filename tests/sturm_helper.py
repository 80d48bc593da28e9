"""Sturm counts on intervals: a reference the tests check counting and
isolation against.

Every count walks the Sturm sequence of p afresh and evaluates it at both
ends, an open end at the power-of-two root bound. It shares the remainder
loop with the package but none of its counting, which reads the Descartes
counts of continued fractions alone. ``sturm_root_count`` adds the
multiplicities. ``recording_walks`` lets a test count the walks the package
makes.
"""

from fractions import Fraction

from shapiro12 import polycore
from shapiro12.polycore import _horner, _int_derivative, _primitive, _remainder_sequence, \
    _sign_changes, gcd, sign_at
from shapiro12.realroots import RootCount, _bound_exponent


def sturm_sequence(p):
    """Sturm sequence p, p', -rem, ... as primitive integer vectors, uncached.

    Squarefree or not, its sign variations count distinct real roots at
    every x with p(x) != 0; its last element is gcd(p, p') up to a constant.
    """
    return _remainder_sequence(p.prim, _primitive(_int_derivative(p.prim))[0])


def sturm_count(p, lo=None, hi=None):
    """Number of distinct real roots of p in (lo, hi); None means unbounded.

    Valid since no endpoint is a root: every root lies strictly inside
    (-2^e, 2^e), which stands in for an open end.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise ValueError("empty interval")
    if p.degree == 0:
        return 0
    if any(x is not None and sign_at(p, x) == 0 for x in (lo, hi)):
        raise ValueError("interval endpoint is a root")
    bound = Fraction(2) ** _bound_exponent(p.prim)
    lo = -bound if lo is None else Fraction(lo)
    hi = bound if hi is None else Fraction(hi)
    values = [(_horner(c, lo), _horner(c, hi)) for c in sturm_sequence(p)]
    return _sign_changes(v for v, _ in values) - _sign_changes(v for _, v in values)


def sturm_root_count(p):
    """RootCount of p from Sturm counts of g0 = p and g(k+1) = gcd(gk, gk'):
    a real root of multiplicity m is a root of g0 ... g(m-1) alone."""
    counts = [sturm_count(p)]
    while counts[-1]:
        p = gcd(p, p.derivative())
        counts.append(sturm_count(p))
    return RootCount(counts[0], sum(counts))


def recording_walks(monkeypatch):
    """Record the first element of every remainder sequence the package walks.

    Patches the attribute of polycore that gcd, the package's one walk,
    reads. The helper's own Sturm walks call the function it imported and
    are not recorded; every gcd is, the helper's included.
    """
    walks = []
    remainder_sequence = polycore._remainder_sequence

    def recording(a, b):
        walks.append(a)
        return remainder_sequence(a, b)

    monkeypatch.setattr(polycore, "_remainder_sequence", recording)
    return walks
