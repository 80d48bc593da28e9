"""Differential check of the continued-fraction counting and isolation
kernel against sympy.

The classifier and the counted verdict share the kernel: each route reads
the count of p, and the isolation that classify runs on p', p'' and B also
counts p and delta.  A fault in it could make both routes wrong and still in
agreement.  sympy isolates real roots with its own code, so it is an
independent third counter, and a reference for the intervals and
multiplicities that isolation reports.  Skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

from shapiro12.harness import FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import format_polynomial, gcd, sign_at
from shapiro12.realroots import (
    RootCount,
    _Inconclusive,
    _isolate,
    cf_root_count,
    isolate_real_roots,
)
from shapiro12.shapiro import actual_verdict, build
from rare_inputs import GAMMA_11_DEGREE_32, RARE_HIGH_DEGREE
from sturm_helper import sturm_count

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")

CORPORA = {
    "uniform": FuzzConfig(seed=11, cases=120, degree_range=(2, 12), coeff_bound=12,
                          strategy=Strategy.UNIFORM),
    "positive_only": FuzzConfig(seed=13, cases=120, degree_range=(4, 10), coeff_bound=12,
                                strategy=Strategy.POSITIVE_ONLY),
    # Coefficients bounded by 3 give p a repeated, non-real factor in 42 of
    # these cases, and delta with it: 14 isolations of such a p' or delta
    # find real roots, and the first isolation finishes on q itself.
    "positive_only_bound3": FuzzConfig(seed=23, cases=120, degree_range=(4, 12),
                                       coeff_bound=3, strategy=Strategy.POSITIVE_ONLY),
}

#: Corpora of delta alone at degrees 24-32.
HIGH_DEGREE_DELTA = {
    "uniform": FuzzConfig(seed=17, cases=16, degree_range=(24, 32), coeff_bound=12,
                          strategy=Strategy.UNIFORM),
    "positive_only": FuzzConfig(seed=19, cases=8, degree_range=(24, 32), coeff_bound=12,
                                strategy=Strategy.POSITIVE_ONLY),
}

#: Corpora whose verdict counts, both from ``actual_verdict``, are checked,
#: each with the least number of cases whose first isolation of delta gives up.
VERDICT_CORPORA = {
    # Coefficients in [-2, 2] give delta a repeated factor in 10 of these
    # cases, each with a real root: in 9 a real multiple root of p, in one a
    # real double root of delta alone. The first isolation of delta gives up
    # there, and the count comes from the squarefree part and the chain of
    # repeated parts. Only these cases are checked.
    "uniform_bound2": (FuzzConfig(seed=29, cases=300, degree_range=(8, 16), coeff_bound=2,
                                  strategy=Strategy.UNIFORM), 10),
    # The largest bound that uniform accepts: delta has 140-bit coefficients.
    "uniform_bound64": (FuzzConfig(seed=31, cases=8, degree_range=(16, 16),
                                   coeff_bound=2 ** 64 - 1, strategy=Strategy.UNIFORM), 0),
}


def _rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_poly(q):
    return sympy.Poly([_rational(c) for c in reversed(q.coeffs)], X, domain="QQ")


def _intervals(q, rng):
    """Two rational intervals whose endpoints are not roots of q."""
    out = []
    while len(out) < 2:
        lo, hi = sorted(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(2))
        if lo < hi and sign_at(q, lo) and sign_at(q, hi):
            out.append((lo, hi))
    return out


def _check_counts(q, rng, where, count_between, isolation=False):
    """Root counts of q against sympy; count_between(ref, lo, hi) is sympy's
    count of the roots of ref in [lo, hi], neither end a root. With
    ``isolation``, also the roots that isolate_real_roots reports: their
    multiplicities in order, and each interval holding exactly one root."""
    ref = _sympy_poly(q)
    isolated = ref.intervals()
    expected = RootCount(len(isolated), sum(m for _, m in isolated))
    assert cf_root_count(q) == expected, where
    for lo, hi in _intervals(q, rng):
        assert sturm_count(q, lo, hi) == count_between(ref, _rational(lo), _rational(hi)), \
            (*where, lo, hi)
    if isolation:
        roots = isolate_real_roots(q)
        assert [r.multiplicity for r in roots] == [m for _, m in isolated], where
        for r in roots:
            lo, hi = _rational(r.interval.lo), _rational(r.interval.hi)
            if r.interval.is_point:
                assert ref.eval(lo) == 0, (*where, lo)
            else:
                # sympy's isolation restricted to the interval counts five
                # times faster than its Sturm-based count_roots.
                assert len(ref.intervals(inf=lo, sup=hi)) == 1, (*where, lo, hi)
    return expected


def _count_in(ref, lo, hi):
    """sympy's count of the roots of ref in [lo, hi], from its isolation."""
    return len(ref.intervals(inf=lo, sup=hi))


@pytest.mark.parametrize("strategy", sorted(CORPORA))
def test_counts_agree_with_sympy(strategy):
    config = CORPORA[strategy]
    rng = random.Random(config.seed)
    for i in range(config.cases):
        instance = build(random_polynomial(config, i))
        for q in (instance.p, instance.p1, instance.p2, instance.delta):
            if not q.is_zero:
                _check_counts(q, rng, (strategy, i, format_polynomial(q)),
                              sympy.Poly.count_roots, isolation=True)


def test_rare_class_counts_agree_with_sympy():
    # The Lambda22 and Gamma231 inputs at degrees 6-32, and (x^2 + 1)^16:
    # p' has a root of multiplicity up to 31, and delta degree up to 60.
    rng = random.Random(37)
    for p, label in (*RARE_HIGH_DEGREE, GAMMA_11_DEGREE_32):
        instance = build(p)
        nr_p, _, _, nr_delta = (
            _check_counts(q, rng, (label, format_polynomial(q)), _count_in, isolation=True)
            for q in (instance.p, instance.p1, instance.p2, instance.delta))
        actual = actual_verdict(instance)
        assert (actual.nr_p, actual.nr_delta) == (nr_p, nr_delta), label


@pytest.mark.parametrize("strategy", sorted(HIGH_DEGREE_DELTA))
def test_high_degree_delta_counts_agree_with_sympy(strategy):
    # Counting is most of the case time from degree 18 up. Whole-line counts
    # read the continued fractions, and finite intervals walk the test
    # helper's Sturm sequence. At degrees up to 60, sympy's Sturm-based
    # count_roots takes seconds per interval, so its root isolation
    # restricted to the interval counts instead.
    config = HIGH_DEGREE_DELTA[strategy]
    rng = random.Random(config.seed)
    for i in range(config.cases):
        delta = build(random_polynomial(config, i)).delta
        if not delta.is_zero:
            _check_counts(delta, rng, (strategy, i, format_polynomial(delta)), _count_in)


@pytest.mark.parametrize("name", sorted(VERDICT_CORPORA))
def test_verdict_counts_agree_with_sympy(name):
    # actual_verdict counts p and delta by their continued fractions, or
    # by their isolation where the first run gives up; both counts must
    # match sympy's.
    config, least_gave_up = VERDICT_CORPORA[name]
    rng = random.Random(config.seed)
    polys = [random_polynomial(config, i) for i in range(config.cases)]
    if least_gave_up:
        polys = [p for p in polys if gcd((d := build(p).delta), d.derivative()).degree >= 1]
    gave_up = 0
    for i, p in enumerate(polys):
        instance = build(p)
        if instance.delta.degree < 1:
            continue
        actual = actual_verdict(instance)
        for q, count in ((instance.p, actual.nr_p), (instance.delta, actual.nr_delta)):
            where = (name, i, format_polynomial(q))
            assert count == _check_counts(q, rng, where, _count_in, isolation=True), where
        try:
            _isolate(instance.delta.prim, capped=True)
        except _Inconclusive:
            gave_up += 1
    assert gave_up >= least_gave_up, len(polys)
