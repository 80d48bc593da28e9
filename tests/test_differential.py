"""Differential check of the Sturm counting kernel against sympy.

The classifier and the counted verdict share one gcd/Sturm kernel, so a fault
there could make both wrong and still in agreement.  sympy isolates real
roots with its own code, so it is an independent third counter.  Skipped when
sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

from shapiro12.harness import FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import format_polynomial, sign_at
from shapiro12.realroots import root_count, sturm_count
from shapiro12.shapiro import build

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")

CORPORA = {
    "uniform": FuzzConfig(seed=11, cases=120, degree_range=(2, 12), coeff_bound=12,
                          strategy=Strategy.UNIFORM),
    "positive_only": FuzzConfig(seed=13, cases=120, degree_range=(4, 10), coeff_bound=12,
                                strategy=Strategy.POSITIVE_ONLY),
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


@pytest.mark.parametrize("strategy", sorted(CORPORA))
def test_counts_agree_with_sympy(strategy):
    config = CORPORA[strategy]
    rng = random.Random(config.seed)
    for i in range(config.cases):
        instance = build(random_polynomial(config, i))
        for q in (instance.p, instance.p1, instance.p2, instance.delta):
            if q.is_zero:
                continue
            where = (strategy, i, format_polynomial(q))
            ref = _sympy_poly(q)
            isolated = ref.intervals()
            count = root_count(q)
            assert count.distinct == len(isolated), where
            assert count.with_multiplicity == sum(m for _, m in isolated), where
            for lo, hi in _intervals(q, rng):
                assert sturm_count(q, lo, hi) == ref.count_roots(_rational(lo), _rational(hi)), \
                    (*where, lo, hi)
