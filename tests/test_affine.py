"""Affine label invariance, a metamorphic check of the classify route.

A real affine map of ``x`` moves the root loci of ``pp = p''p/(p')^2`` without
changing their shape, so ``p(ax + b)`` has the label of ``p`` for ``a > 0``.
For ``a < 0`` the picture is mirrored, which swaps Gamma211 and Gamma22 and
keeps every other label. ``p(ax + b)`` is composed on ``Fraction`` lists by
``tests/fraction_ref.py``, not by the package, so a kernel fault has to agree
with itself across rescaled and shifted coefficient vectors to go unseen.
"""

import functools
from fractions import Fraction

import pytest

from shapiro12.harness import FIXTURES, FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import from_coefficients, parse_polynomial
from shapiro12.shapiro import ClassLabel, build, classify
from fraction_ref import ref_compose

MIRROR = {ClassLabel.GAMMA_211: ClassLabel.GAMMA_22, ClassLabel.GAMMA_22: ClassLabel.GAMMA_211}

#: Seeded corpora at bound 12: (strategy, degree range, cases).
CORPORA = ((Strategy.UNIFORM, (2, 10), 150), (Strategy.POSITIVE_ONLY, (4, 10), 150))


def label(p):
    return classify(build(p))[0]


@functools.cache
def labelled_inputs():
    """The nine fixtures and the seeded corpora, each with its label."""
    polys = [parse_polynomial(text) for text in FIXTURES.values()]
    for strategy, degrees, cases in CORPORA:
        config = FuzzConfig(seed=9, cases=cases, degree_range=degrees, coeff_bound=12,
                            strategy=strategy)
        polys += [random_polynomial(config, i) for i in range(cases)]
    return [(p, label(p)) for p in polys]


@pytest.mark.parametrize("b", [-1, 0, 3])
@pytest.mark.parametrize("a", [2, Fraction(1, 2), -1, -2])
def test_label_is_affine_invariant_up_to_mirror(a, b):
    for p, expected in labelled_inputs():
        q = from_coefficients(ref_compose(p.coeffs, (Fraction(b), Fraction(a))))
        assert label(q) == (MIRROR.get(expected, expected) if a < 0 else expected), p
