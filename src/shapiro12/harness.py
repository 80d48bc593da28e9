"""Randomized and targeted generation of test polynomials with oracle
cross-validation: every generated case is classified, the class predicts the
verdict, and exact root counting checks the prediction."""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .polycore import Polynomial, _int_mul, format_polynomial, from_coefficients, parse_polynomial
from .shapiro import (
    ClassLabel,
    DeltaIdenticallyZeroError,
    Verdict,
    actual_verdict,
    build,
    classify,
    predict_verdict,
)

MAX_DEGREE = 32
MAX_COEFF_BITS = 64
#: Bit cap of the bound for the strategies that multiply quadratic factors.
#: Drawing one irreducible quadratic retries about sqrt(bound)/2 times, and
#: TARGETED scales the bound by up to 5, so past 32 bits generating a single
#: case no longer ends in practice.
MAX_FACTOR_BOUND_BITS = 32


class Strategy(Enum):
    UNIFORM = "uniform"
    POSITIVE_ONLY = "positive_only"
    TARGETED = "targeted"


class FuzzConfig(NamedTuple("FuzzConfig", [("seed", int), ("cases", int),
                                            ("degree_range", tuple[int, int]),
                                            ("coeff_bound", int), ("strategy", Strategy)])):
    __slots__ = ()

    def __new__(cls, seed: int, cases: int, degree_range: tuple[int, int] = (2, 8),
                coeff_bound: int = 10, strategy: Strategy = Strategy.UNIFORM) -> "FuzzConfig":
        self = super().__new__(cls, seed, cases, degree_range, coeff_bound, strategy)
        lo, hi = self.degree_range
        if not (2 <= lo <= hi <= MAX_DEGREE):
            raise ValueError(f"degree range must lie within [2, {MAX_DEGREE}]")
        if lo % 2 or hi % 2:
            raise ValueError("degree range bounds must be even")
        if self.cases < 0:
            raise ValueError("case count must be non-negative")
        if self.coeff_bound < 1:
            raise ValueError("coefficient bound must be positive")
        if self.coeff_bound.bit_length() > MAX_COEFF_BITS:
            raise ValueError(f"coefficient bound must have at most {MAX_COEFF_BITS} bits")
        if self.strategy is not Strategy.UNIFORM \
                and self.coeff_bound.bit_length() > MAX_FACTOR_BOUND_BITS:
            raise ValueError(f"coefficient bound must have at most {MAX_FACTOR_BOUND_BITS} "
                             f"bits for the {self.strategy.value} strategy")
        return self

    @classmethod
    def _make(cls, iterable) -> "FuzzConfig":
        # _replace builds through _make, whose default skips the checks above.
        return cls(*iterable)


class Disagreement(NamedTuple):
    case_index: int
    polynomial: str
    predicted: str
    actual: str


class FuzzSummary(NamedTuple):
    total: int
    agreements: int
    disagreements: list[Disagreement]
    class_histogram: dict[str, int]
    delta_zero_count: int

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "agreements": self.agreements,
            "disagreements": [d._asdict() for d in self.disagreements],
            "class_histogram": {
                label.value: self.class_histogram.get(label.value, 0)
                for label in ClassLabel
            },
            "delta_zero_count": self.delta_zero_count,
        }


def _case_rng(config: FuzzConfig, case_index: int) -> random.Random:
    return random.Random(config.seed * (2 ** 32) + case_index)


def _even_degrees(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1, 2))


def _uniform_poly(rng: random.Random, degree: int, bound: int) -> Polynomial:
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = rng.randint(1, bound) * rng.choice((-1, 1))
    return from_coefficients(coeffs + [lead])


def _positive_only_poly(rng: random.Random, degree: int, bound: int) -> Polynomial:
    """Product of irreducible monic quadratics: guaranteed no real roots.

    A product of monic integer polynomials is monic, hence primitive.
    """
    coeffs = [1]
    for _ in range(degree // 2):
        while True:
            b = rng.randint(-bound, bound)
            c_min = b * b // 4 + 1
            if c_min <= bound:
                break
        c = rng.randint(c_min, bound)
        coeffs = _int_mul(coeffs, [c, b, 1])
    return Polynomial(tuple(coeffs))


def random_polynomial(config: FuzzConfig, case_index: int) -> Polynomial:
    """Deterministic in (seed, case_index); even degree within the range."""
    rng = _case_rng(config, case_index)
    lo, hi = config.degree_range
    if config.strategy is Strategy.UNIFORM:
        return _uniform_poly(rng, rng.choice(_even_degrees(lo, hi)), config.coeff_bound)
    if config.strategy is Strategy.POSITIVE_ONLY:
        return _positive_only_poly(rng, rng.choice(_even_degrees(lo, hi)), config.coeff_bound)
    # TARGETED: escalate degree and coefficient bound as the search runs on,
    # mixing both generators; the filtering happens in find_class_example.
    tier = case_index // 64
    hi_t = min(max(lo, 4) + 2 * (tier % 4), hi)
    degrees = _even_degrees(lo, hi_t)
    bound = config.coeff_bound * (1 + tier % 5)
    if case_index % 3 == 2:
        return _uniform_poly(rng, rng.choice(degrees), bound)
    return _positive_only_poly(rng, rng.choice(degrees), bound)


def run_fuzz(config: FuzzConfig) -> FuzzSummary:
    """Classify every generated case and verify the predicted verdict."""
    agreements = delta_zero_count = 0
    disagreements: list[Disagreement] = []
    class_histogram: dict[str, int] = {}
    for i in range(config.cases):
        poly = random_polynomial(config, i)
        text = format_polynomial(poly)
        try:
            instance = build(poly)
            label, _ = classify(instance)
            class_histogram[label.value] = class_histogram.get(label.value, 0) + 1
            predicted = predict_verdict(label)
        except Exception as exc:  # never abort the run on a single case
            disagreements.append(
                Disagreement(i, text, "ERROR", f"ERROR: {exc}"))
            continue
        try:
            actual = actual_verdict(instance)
        except DeltaIdenticallyZeroError as exc:
            # Only p = c*(ax+b)^n lands here, with a real zero: only HOLDS agrees.
            if predicted is Verdict.HOLDS and exc.nr_p.distinct > 0:
                delta_zero_count += 1
            else:
                disagreements.append(
                    Disagreement(i, text, predicted.value, "DELTA_IDENTICALLY_ZERO"))
            continue
        except Exception as exc:
            disagreements.append(
                Disagreement(i, text, predicted.value, f"ERROR: {exc}"))
            continue
        if predicted == actual.verdict:
            agreements += 1
        else:
            disagreements.append(
                Disagreement(i, text, predicted.value, actual.verdict.value))
    return FuzzSummary(config.cases, agreements, disagreements, class_histogram,
                       delta_zero_count)


#: Seeded example polynomials, one per class known to be reachable.  Each is
#: validated by the test suite: it classifies to its key and the predicted
#: verdict matches the counted one.
FIXTURES: dict[ClassLabel, str] = {
    ClassLabel.LAMBDA_1: "-1,0,1",               # x^2 - 1
    ClassLabel.LAMBDA_21: "2,0,-2,0,1",          # x^4 - 2x^2 + 2
    ClassLabel.LAMBDA_22: "1,0,0,0,1",           # x^4 + 1
    ClassLabel.GAMMA_11: "1,0,1",                # x^2 + 1
    ClassLabel.GAMMA_121: "11,-6,4,-3,1",        # x^4 - 3x^3 + 4x^2 - 6x + 11
    ClassLabel.GAMMA_122: "6,-6,4,-3,1",         # x^4 - 3x^3 + 4x^2 - 6x + 6
    ClassLabel.GAMMA_211: "2,0,6,-4,1",          # x^4 - 4x^3 + 6x^2 + 2
    ClassLabel.GAMMA_22: "9,-8,6,-4,1",          # x^4 - 4x^3 + 6x^2 - 8x + 9
    ClassLabel.GAMMA_231: "100,0,84,0,-15,0,1",  # x^6 - 15x^4 + 84x^2 + 100
}

# The four remaining classes require an odd multiplicity-weighted count of
# p'' zeros on the right of p0.  With p positive (or negative) everywhere
# and p0 its only critical point, p'' has the same sign at p0 and at both
# infinities, so each side's count is even: those classes are empty under
# the multiplicity counting convention and the search reports NOT_FOUND.


#: Entries of the targeted-search memo: at least the largest budget in use
#: (400, acceptance criterion 7), so that one label's scan keeps every
#: candidate for the next label's scan.
_SEARCH_MEMO_SIZE = 512


@lru_cache(maxsize=_SEARCH_MEMO_SIZE)
def _targeted_case(search_cfg: FuzzConfig, index: int) -> tuple[Polynomial, ClassLabel | None]:
    """Candidate `index` of the targeted stream and its class, None when it is
    out of the classifier's domain.  Any other exception is not cached."""
    poly = random_polynomial(search_cfg, index)
    try:
        found, _ = classify(build(poly))
    except ValueError:
        return poly, None
    return poly, found


def find_class_example(label: ClassLabel, budget: int,
                       config: FuzzConfig) -> Polynomial | None:
    """First polynomial classifying to the label; None when the budget runs out.

    Seeded fixtures are consulted first and re-verified by classification,
    never trusted blindly.  Searches for different labels walk the same
    targeted stream, so each candidate is classified once and then read from
    a bounded memo.
    """
    text = FIXTURES.get(label)
    if text is not None:
        poly = parse_polynomial(text)
        found, _ = classify(build(poly))
        if found is label:
            return poly
    search_cfg = config._replace(strategy=Strategy.TARGETED)
    for i in range(budget):
        poly, found = _targeted_case(search_cfg, i)
        if found is label:
            return poly
    return None
