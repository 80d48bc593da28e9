"""An independent label oracle: the classes recomputed with sympy from the
paper's definitions.

``classify`` and ``tests/oracle_rootlocus.py`` both run on the package's own
root isolation, so a fault there could move a label in both and leave them in
agreement.  sympy counts and isolates real roots with its own code:

* Lambda1: p has a real zero (``count_roots``);
* Lambda21 and Lambda22: the real zeros of p', with multiplicities;
* Gamma211, Gamma22 and Gamma231: the real zeros of p'', with
  multiplicities, left and right of the one simple real zero p0 of p'.

For Gamma11, Gamma121 and Gamma122 it checks only the branch condition, that
p'' has no real zero.  Skipped when sympy is not installed.
"""

import pytest

from shapiro12.harness import FIXTURES, FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import format_polynomial, parse_polynomial
from shapiro12.shapiro import ClassLabel, actual_verdict, build, classify, predict_verdict
from rare_inputs import GAMMA_11_DEGREE_32, GAMMA_121_DEGREE_32, RARE_HIGH_DEGREE

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")

GAMMA_1 = {ClassLabel.GAMMA_11, ClassLabel.GAMMA_121, ClassLabel.GAMMA_122}

CORPORA = [
    FuzzConfig(seed=11, cases=200, degree_range=(4, 8), coeff_bound=12,
               strategy=Strategy.TARGETED),
    FuzzConfig(seed=5, cases=150, degree_range=(2, 10), coeff_bound=12,
               strategy=Strategy.UNIFORM),
    FuzzConfig(seed=7, cases=150, degree_range=(4, 10), coeff_bound=12,
               strategy=Strategy.POSITIVE_ONLY),
    # Coefficients bounded by 3 give many repeated factors.
    FuzzConfig(seed=9, cases=100, degree_range=(4, 12), coeff_bound=3,
               strategy=Strategy.POSITIVE_ONLY),
]


def oracle_labels(p) -> set[ClassLabel]:
    """The classes that the definitions allow for p: one, or the Gamma1 three."""
    f = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                   X, domain="QQ")
    if f.count_roots():
        return {ClassLabel.LAMBDA_1}
    f1 = f.diff(X)
    p1_roots = sympy.real_roots(f1)  # each root repeated by its multiplicity
    if len(set(p1_roots)) >= 2:
        return {ClassLabel.LAMBDA_21}
    p0, *repeats = p1_roots  # p' has odd degree
    if repeats:
        return {ClassLabel.LAMBDA_22}
    p2_roots = sympy.real_roots(f1.diff(X))
    if not p2_roots:
        return GAMMA_1
    right = sum(bool(z > p0) for z in p2_roots)
    left = len(p2_roots) - right
    if not right:
        return {ClassLabel.GAMMA_22}
    if right % 2:
        return ({ClassLabel.GAMMA_2121, ClassLabel.GAMMA_2122} if not left
                else {ClassLabel.GAMMA_2321, ClassLabel.GAMMA_2322})
    return {ClassLabel.GAMMA_211 if not left else ClassLabel.GAMMA_231}


def test_classify_matches_the_definitions():
    polys = [parse_polynomial(text) for text in FIXTURES.values()]
    polys += [random_polynomial(config, i) for config in CORPORA for i in range(config.cases)]
    seen = set()
    for p in polys:
        label, _ = classify(build(p))
        assert label in oracle_labels(p), format_polynomial(p)
        seen.add(label)
    # Every non-empty class is reached, the fixtures seeing to it.
    assert seen == set(FIXTURES)


def test_rare_classes_at_high_degree():
    # Lambda22 and Gamma231 at degrees 6-32, which no seeded corpus reaches,
    # and the FAILS classes Gamma11 and Gamma121 at degree 32, where the
    # oracle allows the three Gamma1 classes and the counts decide.
    for p, label in (*RARE_HIGH_DEGREE, GAMMA_11_DEGREE_32, GAMMA_121_DEGREE_32):
        instance = build(p)
        assert classify(instance)[0] is label
        assert oracle_labels(p) == (GAMMA_1 if label in GAMMA_1 else {label}), \
            format_polynomial(p)
        assert actual_verdict(instance).verdict is predict_verdict(label)
