"""High-degree inputs of the two classes that no seeded corpus reaches.

* Lambda22: x^n + 1, whose p' = nx^(n-1) has the one real zero 0, of
  multiplicity n - 1.
* Gamma231: p = 100 + (the integral of p' from 0), with
  p' = x((x^2 - 2)^2 + 1/10)^m. p' has the one simple real zero 0, p is at
  least 100, and p'' is even with two simple real zeros on each side of 0,
  where x^2 solves (1 + 4m)x^4 - (4 + 8m)x^2 + 41/10 = 0.
"""

from fractions import Fraction

from shapiro12.polycore import from_coefficients
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
