"""High-degree inputs of the two classes that no seeded corpus reaches, and
of the two FAILS classes at degree 32.

* Lambda22: x^n + 1, whose p' = nx^(n-1) has the one real zero 0, of
  multiplicity n - 1.
* Gamma231: p = 100 + (the integral of p' from 0), with
  p' = x((x^2 - 2)^2 + 1/10)^m. p' has the one simple real zero 0, p is at
  least 100, and p'' is even with two simple real zeros on each side of 0,
  where x^2 solves (1 + 4m)x^4 - (4 + 8m)x^2 + 41/10 = 0.
* Gamma11: (x^2 + 1)^16, whose delta is -1024(x^2 + 1)^30.
* Gamma121: the first positive-only case of seed 5 at degree 32; its delta,
  of degree 60, has no real zero.
* Gamma11 with wide coefficients: degree 32, coefficient i equal to
  (-1)^i (2^64 - 1 - 7i)/(2^63 + 3i + 1), the slowest input CI classifies.
"""

import math
from fractions import Fraction

from shapiro12.harness import FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import ONE, from_coefficients
from shapiro12.shapiro import ClassLabel
from fraction_ref import ref_mul


def _gamma_231(m):
    p1 = (0, 1)
    for _ in range(m):
        p1 = ref_mul(p1, (Fraction(41, 10), 0, -4, 0, 1))
    return from_coefficients([100] + [c / (i + 1) for i, c in enumerate(p1)])


RARE_HIGH_DEGREE = (
    [(from_coefficients([1] + [0] * (n - 1) + [1]), ClassLabel.LAMBDA_22) for n in (8, 16, 32)]
    + [(_gamma_231(m), ClassLabel.GAMMA_231) for m in (1, 2, 4, 7)]  # degrees 6, 10, 18, 30
)

GAMMA_11_DEGREE_32 = (math.prod([from_coefficients([1, 0, 1])] * 16, start=ONE),
                      ClassLabel.GAMMA_11)

GAMMA_11_WIDE = (
    from_coefficients([Fraction((-1) ** i * (2 ** 64 - 1 - 7 * i), 2 ** 63 + 3 * i + 1)
                       for i in range(33)]),
    ClassLabel.GAMMA_11,
)

GAMMA_121_DEGREE_32 = (
    random_polynomial(FuzzConfig(seed=5, cases=1, degree_range=(32, 32), coeff_bound=12,
                                 strategy=Strategy.POSITIVE_ONLY), 0),
    ClassLabel.GAMMA_121,
)
