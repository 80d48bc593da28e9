"""Sturm counts on intervals: a reference the tests check counting and
isolation against.

Every count walks the Sturm sequence of p afresh and evaluates it at both
ends, an open end at the power-of-two root bound. The sequence is built
here, by a sign-preserving remainder of its own: the package counts by the
Descartes counts of continued fractions and takes gcds by a modular
certificate and a pseudo-remainder loop, and this module uses neither.
``sturm_root_count`` adds the multiplicities. ``recording_walks`` lets a
test count the exact remainder sequences the package walks.
"""

from fractions import Fraction

from shapiro12 import polycore
from shapiro12.polycore import Polynomial, _horner, _int_derivative, _primitive, \
    _sign_changes, sign_at
from shapiro12.realroots import RootCount, _bound_exponent


def _stepwise_rem_positive(a, b):
    """Remainder of a by b up to a positive factor: one leading term of a per
    step, each step scaled by |lc(b)|, so the sign of the true remainder is
    kept."""
    r = list(a)
    db = len(b) - 1
    alb, slb = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0)
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


def sturm_sequence(p):
    """Sturm sequence p, p', -rem, ... as primitive integer vectors, uncached.

    Squarefree or not, its sign variations count distinct real roots at
    every x with p(x) != 0; its last element is gcd(p, p') up to a constant.
    """
    a, b = p.prim, _primitive(_int_derivative(p.prim))[0]
    out = [a]
    while b:
        out.append(b)
        a, b = b, _primitive([-c for c in _stepwise_rem_positive(a, b)])[0]
    return out


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
    """RootCount of p from Sturm counts of g0 = p and g(k+1) = gcd(gk, gk'),
    each the last element of the Sturm sequence of gk: a real root of
    multiplicity m is a root of g0 ... g(m-1) alone."""
    counts = [sturm_count(p)]
    while counts[-1]:
        p = Polynomial(sturm_sequence(p)[-1])
        counts.append(sturm_count(p))
    return RootCount(counts[0], sum(counts))


def recording_walks(monkeypatch):
    """Record the first element of every exact remainder sequence the
    package walks.

    Patches the loop of polycore that gcd, the package's one walk, runs when
    the modular certificate does not prove coprimality, and clears the gcd
    cache so that no earlier result hides a walk.
    """
    walks = []
    exact_gcd = polycore._exact_gcd

    def recording(a, b):
        walks.append(a)
        return exact_gcd(a, b)

    monkeypatch.setattr(polycore, "_exact_gcd", recording)
    polycore.gcd.cache_clear()
    return walks
