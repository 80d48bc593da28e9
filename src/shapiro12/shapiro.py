"""Classifier and verdict logic for Shapiro's positivity conjecture.

For a real polynomial p of even degree n, the conjecture asserts that
delta = (n-1)*(p')^2 - n*p*p'' and p together have at least one real zero.
This module classifies p into one of thirteen mutually exclusive classes by
analyzing the real-axis root loci of pp = p''*p / (p')^2, predicts from the
class alone whether the conjecture holds, and independently verifies the
prediction by exact root counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .polycore import InvariantError, Polynomial, sign_at
from .realroots import (
    IsolatedRoot,
    RootCount,
    compare_roots,
    isolate_real_roots,
    root_count,
    sign_at_root,
    sturm_count,
)
from .rootlocus import (
    AxisSegment,
    BreakawayPoint,
    Comparison,
    EventKind,
    Extremum,
    Parity,
    RationalFunctionOnAxis,
    axis_events,
    axis_segments,
    breakaway_points,
    gain_vs_threshold,
    normalize,
    standard_points,
)


class ClassLabel(Enum):
    """The thirteen leaf classes; exactly one applies to every valid input."""

    LAMBDA_1 = "Lambda1"      # p has real zeros
    LAMBDA_21 = "Lambda21"    # p' has >= 2 distinct real zeros (p without real zeros)
    LAMBDA_22 = "Lambda22"    # p' has one real zero of multiplicity > 1
    GAMMA_11 = "Gamma11"      # p'' definite, no standard breakaway point
    GAMMA_121 = "Gamma121"    # p'' definite, every maximum gain < K0
    GAMMA_122 = "Gamma122"    # p'' definite, some maximum gain >= K0
    GAMMA_211 = "Gamma211"    # p'' zeros right of p0 only, even count
    GAMMA_2121 = "Gamma2121"  # right only, odd count, all minimum gains > K0
    GAMMA_2122 = "Gamma2122"  # right only, odd count, some minimum gain <= K0
    GAMMA_22 = "Gamma22"      # p'' zeros left of p0 only
    GAMMA_231 = "Gamma231"    # p'' zeros on both sides, even right count
    GAMMA_2321 = "Gamma2321"  # both sides, odd right count, all minimum gains > K0
    GAMMA_2322 = "Gamma2322"  # both sides, odd right count, some minimum gain <= K0


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"


_HOLDS_LABELS = frozenset({
    ClassLabel.LAMBDA_1,
    ClassLabel.LAMBDA_21,
    ClassLabel.LAMBDA_22,
    ClassLabel.GAMMA_122,
    ClassLabel.GAMMA_22,
    ClassLabel.GAMMA_2122,
    ClassLabel.GAMMA_211,
    ClassLabel.GAMMA_231,
    ClassLabel.GAMMA_2322,
})


class DeltaIdenticallyZeroError(ValueError):
    """delta vanished identically (p is a perfect n-th power of a linear factor)."""

    def __init__(self, nr_p: RootCount):
        super().__init__("delta is identically zero")
        self.nr_p = nr_p


class IntervalKind(Enum):
    RIGHT_INFINITE = "RIGHT_INFINITE"
    LEFT_INFINITE_EVEN = "LEFT_INFINITE_EVEN"
    POLE_TO_ZERO = "POLE_TO_ZERO"


@dataclass(frozen=True)
class BreakawayFinding:
    breakaway: BreakawayPoint
    comparison: Comparison | None


@dataclass(frozen=True)
class IntervalFinding:
    kind: IntervalKind
    segment: AxisSegment
    breakaways: tuple[BreakawayFinding, ...]
    decisive: BreakawayFinding | None


@dataclass(frozen=True)
class Evidence:
    p0: IsolatedRoot | None
    p2_roots_left: int
    p2_roots_right: int
    interval_findings: tuple[IntervalFinding, ...]


@dataclass(frozen=True)
class ShapiroInstance:
    p: Polynomial
    n: int
    p1: Polynomial
    p2: Polynomial
    delta: Polynomial
    k0: Fraction
    pp: RationalFunctionOnAxis


@dataclass(frozen=True)
class ActualVerdict:
    verdict: Verdict
    nr_delta: RootCount
    nr_p: RootCount


def build(p: Polynomial) -> ShapiroInstance:
    """Derive all exact data the classifier needs from p."""
    if p.is_zero or p.degree < 2:
        raise ValueError("polynomial degree must be at least 2")
    n = int(p.degree)
    if n % 2 != 0:
        raise ValueError("polynomial degree must be even")
    p1 = p.derivative()
    p2 = p1.derivative()
    delta = (p1 * p1).scale(n - 1) - (p * p2).scale(n)
    # The top coefficient cancels exactly, so deg delta <= 2n - 3.
    if delta.coefficient(2 * n - 2) != 0:
        raise InvariantError("the x^(2n-2) coefficient of delta must cancel")
    pp = normalize(p2 * p, p1 * p1)
    return ShapiroInstance(p, n, p1, p2, delta, Fraction(n, n - 1), pp)


def predict_verdict(label: ClassLabel) -> Verdict:
    """Verdict implied by the class alone: the two classification theorems."""
    return Verdict.HOLDS if label in _HOLDS_LABELS else Verdict.FAILS


def actual_verdict(instance: ShapiroInstance) -> ActualVerdict:
    """Ground truth by direct exact root counting of delta and p."""
    nr_p = root_count(instance.p)
    if instance.delta.is_zero:
        raise DeltaIdenticallyZeroError(nr_p)
    nr_delta = root_count(instance.delta)
    verdict = Verdict.HOLDS if nr_delta.distinct + nr_p.distinct > 0 else Verdict.FAILS
    return ActualVerdict(verdict, nr_delta, nr_p)


def classify(instance: ShapiroInstance) -> tuple[ClassLabel, Evidence]:
    """Assign the unique class of p and record the decisive exact evidence."""
    p, p1, p2 = instance.p, instance.p1, instance.p2

    if sturm_count(p) > 0:
        return ClassLabel.LAMBDA_1, Evidence(None, 0, 0, ())

    p1_roots = isolate_real_roots(p1)
    if not p1_roots:
        raise InvariantError("odd-degree derivative must have a real root")
    if len(p1_roots) >= 2:
        return ClassLabel.LAMBDA_21, Evidence(None, 0, 0, ())
    p0 = p1_roots[0]
    if p0.multiplicity > 1:
        return ClassLabel.LAMBDA_22, Evidence(None, 0, 0, ())

    # From here on p' has the single simple real zero p0, a double pole of pp.
    p2_roots = isolate_real_roots(p2) if p2.degree >= 1 else ()
    if not p2_roots:
        return _classify_definite_p2(instance, p0)

    left = right = 0
    for z in p2_roots:
        side = compare_roots(z, p0)
        if side == 0:
            raise InvariantError("p'' cannot vanish at the simple zero of p'")
        if side < 0:
            left += z.multiplicity
        else:
            right += z.multiplicity

    # p'' has the sign of the leading coefficient at p0 and at both
    # infinities, so each side's count is even and the four odd-count
    # classes are empty.
    if left % 2 or right % 2:
        raise InvariantError(f"odd count of p'' zeros beside p0 (left {left}, right {right})")

    if right == 0:
        # Zeros of p'' on the left only: the segment from the nearest zero to
        # the pole lies on the +1 locus and sweeps every gain value.
        return _pole_to_zero(instance, p0, left, right, 0, ClassLabel.GAMMA_22)
    label = ClassLabel.GAMMA_211 if left == 0 else ClassLabel.GAMMA_231
    return _pole_to_zero(instance, p0, left, right, 1, label)


def _pole_index(pp: RationalFunctionOnAxis) -> int:
    events = axis_events(pp)
    for i, e in enumerate(events):
        if e.kind is EventKind.POLE:
            if e.multiplicity != 2:
                raise InvariantError("the pole of pp at p0 must be double")
            return i
    raise InvariantError("pp must have exactly one real (double) pole")


def _classify_definite_p2(instance: ShapiroInstance, p0: IsolatedRoot,
                          ) -> tuple[ClassLabel, Evidence]:
    """p'' has no real zeros: the whole axis is the +1 locus."""
    pp, k0 = instance.pp, instance.k0
    segments = axis_segments(pp)
    if any(seg.parity is not Parity.EVEN for seg in segments):
        raise InvariantError("with p'' definite the whole axis is the +1 locus")
    standard = standard_points(breakaway_points(pp))
    if not standard:
        return ClassLabel.GAMMA_11, Evidence(p0, 0, 0, ())
    maxima = [b for b in standard if b.extremum is Extremum.MAX]
    if not maxima:
        raise InvariantError("a standard breakaway here forces a gain maximum")
    findings = []
    all_below = True
    for seg, kind in ((segments[-1], IntervalKind.RIGHT_INFINITE),
                      (segments[0], IntervalKind.LEFT_INFINITE_EVEN)):
        here = []
        decisive = None
        for b in maxima:
            if b.segment != seg:
                continue
            cmp = gain_vs_threshold(pp, b, k0)
            bf = BreakawayFinding(b, cmp)
            here.append(bf)
            if cmp is not Comparison.LT and decisive is None:
                decisive = bf
                all_below = False
        if here:
            findings.append(IntervalFinding(kind, seg, tuple(here), decisive))
    label = ClassLabel.GAMMA_121 if all_below else ClassLabel.GAMMA_122
    return label, Evidence(p0, 0, 0, tuple(findings))


def _pole_to_zero(instance: ShapiroInstance, p0: IsolatedRoot,
                  left: int, right: int, offset: int, label: ClassLabel,
                  ) -> tuple[ClassLabel, Evidence]:
    """The segment between the pole p0 and its neighbouring zero of p''
    (offset 0: on the left, 1: on the right) lies on the +1 locus, and its
    gain sweeps (0, +inf)."""
    pp = instance.pp
    seg = axis_segments(pp)[_pole_index(pp) + offset]
    if seg.parity is not Parity.EVEN:
        raise InvariantError("the pole-to-zero segment must lie on the +1 locus")
    finding = IntervalFinding(IntervalKind.POLE_TO_ZERO, seg, (), None)
    return label, Evidence(p0, left, right, (finding,))


def delta_sign_shortcut(instance: ShapiroInstance,
                        point: Fraction | int | IsolatedRoot) -> Comparison:
    """Compare K(x) with K0 on the +1 locus by one exact sign of delta.

    On segments where pp > 0, sign(K(x) - K0) equals sign(delta(x)); points
    on the -1 locus (pp < 0) are rejected because the sign relation flips.
    """
    pp = instance.pp
    if isinstance(point, IsolatedRoot):
        s_num = sign_at_root(pp.numerator, point)
        s_den = sign_at_root(pp.denominator, point)
        if s_num * s_den == 0:
            raise ValueError("point is a zero or pole of pp")
        if s_num * s_den < 0:
            raise ValueError("point lies on the -1 locus")
        s_delta = sign_at_root(instance.delta, point)
    else:
        x = Fraction(point)
        sgn = pp.sign_of_value_at(x)
        if sgn == 0:
            raise ValueError("point is a zero or pole of pp")
        if sgn < 0:
            raise ValueError("point lies on the -1 locus")
        s_delta = sign_at(instance.delta, x)
    if s_delta > 0:
        return Comparison.GT
    if s_delta < 0:
        return Comparison.LT
    return Comparison.EQ
