"""Classifier and verdict logic for Shapiro's positivity conjecture.

For a real polynomial p of even degree n, the conjecture asserts that
delta = (n-1)*(p')^2 - n*p*p'' and p together have at least one real zero.
This module classifies p into one of thirteen mutually exclusive classes by
the real-axis root loci of pp = p''*p / (p')^2, read off the zero p0 of p',
the zeros of p'' and the roots of the breakaway polynomial B, predicts from
the class alone whether the conjecture holds, and independently verifies the
prediction by exact root counting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .polycore import (InvariantError, Polynomial, _from_ints, _int_derivative, _int_mul,
                       div_exact, repeated_part, sign_at)
from .realroots import (
    IsolatedRoot,
    RootCount,
    compare_roots,
    isolate_real_roots,
    root_count,
    sign_at_root,
    sturm_count,
)
from .rootlocus import AxisEvent, Comparison, EventKind, RationalFunctionOnAxis, normalize


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
    """A gain maximum and its gain compared with K0."""

    location: IsolatedRoot
    comparison: Comparison


@dataclass(frozen=True)
class IntervalFinding:
    """A segment of the +1 locus between two events; None is an infinity.

    Each root keeps the isolating interval it was found in, so the intervals
    of one report need not be disjoint; the printer canonicalises them.
    """

    kind: IntervalKind
    lo: AxisEvent | None
    hi: AxisEvent | None
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
    """p, its derivatives, (p')^2, delta and K0 = n/(n-1).

    For p = cP with P primitive, ``build`` forms P', P'', (P')^2 and
    Delta = (n-1)(P')^2 - nPP'' as integer vectors, so p1 and p2 have
    content c times an integer and ``p1_squared`` and ``delta`` c^2 times
    one. The breakaway polynomial B reads (P')^2 and Delta back; the double
    pole of pp is p0 itself with multiplicity 2 and needs no polynomial of
    its own. ``pp = p''p/(p')^2`` is computed on first use: only
    ``plotdata`` and ``delta_sign_shortcut`` read it.
    """

    p: Polynomial
    n: int
    p1: Polynomial
    p2: Polynomial
    p1_squared: Polynomial
    delta: Polynomial
    k0: Fraction

    @cached_property
    def pp(self) -> RationalFunctionOnAxis:
        return normalize(self.p2 * self.p, self.p1_squared)


@dataclass(frozen=True)
class ActualVerdict:
    verdict: Verdict
    nr_delta: RootCount
    nr_p: RootCount


def build(p: Polynomial) -> ShapiroInstance:
    """Derive all exact data the classifier needs from p, in one integer pass."""
    if p.is_zero or p.degree < 2:
        raise ValueError("polynomial degree must be at least 2")
    n = int(p.degree)
    if n % 2 != 0:
        raise ValueError("polynomial degree must be even")
    p1_ints = _int_derivative(p.prim)
    p2_ints = _int_derivative(p1_ints)
    square = _int_mul(p1_ints, p1_ints)
    # (P')^2 and PP'' both have degree 2n - 2, and the top coefficient of
    # Delta cancels exactly, so deg delta <= 2n - 3.
    delta_ints = [(n - 1) * a - n * b for a, b in zip(square, _int_mul(p.prim, p2_ints))]
    if delta_ints[-1] != 0:
        raise InvariantError("the x^(2n-2) coefficient of delta must cancel")
    c, c2 = p.content, p.content * p.content
    return ShapiroInstance(p, n, _from_ints(p1_ints, c), _from_ints(p2_ints, c),
                           _from_ints(square, c2), _from_ints(delta_ints, c2), Fraction(n, n - 1))


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

    # From here on p has no real zero and p' has the single simple real zero
    # p0, so the real events of pp are known: p0 is a double pole, and the
    # zeros are those of p''.
    p2_roots = isolate_real_roots(p2) if p2.degree >= 1 else ()
    if not p2_roots:
        return _classify_definite_p2(instance, p0)

    left: list[IsolatedRoot] = []
    right: list[IsolatedRoot] = []
    for z in p2_roots:
        side = compare_roots(z, p0)
        if side == 0:
            raise InvariantError("p'' cannot vanish at the simple zero of p'")
        (left if side < 0 else right).append(z)
    n_left = sum(z.multiplicity for z in left)
    n_right = sum(z.multiplicity for z in right)

    # p'' has the sign of the leading coefficient at p0 and at both
    # infinities, so each side's count is even and the four odd-count
    # classes are empty.
    if n_left % 2 or n_right % 2:
        raise InvariantError(f"odd count of p'' zeros beside p0 (left {n_left}, right {n_right})")

    # The segment between the pole p0 and its nearest zero of p'' lies on
    # the +1 locus, and its gain sweeps (0, +inf): on the right when p'' has
    # zeros there, else on the left.
    pole = AxisEvent(_double_pole(p0), EventKind.POLE)
    if right:
        label = ClassLabel.GAMMA_211 if not left else ClassLabel.GAMMA_231
        lo, hi = pole, AxisEvent(right[0], EventKind.ZERO)
    else:
        label = ClassLabel.GAMMA_22
        lo, hi = AxisEvent(left[-1], EventKind.ZERO), pole
    finding = IntervalFinding(IntervalKind.POLE_TO_ZERO, lo, hi, (), None)
    return label, Evidence(p0, n_left, n_right, (finding,))


def _double_pole(p0: IsolatedRoot) -> IsolatedRoot:
    """p0 as the double pole of pp: the same interval and witness, multiplicity 2."""
    return replace(p0, multiplicity=2)


def _breakaway_polynomial(instance: ShapiroInstance) -> Polynomial:
    """B = 2pp''^2 - p'^2p'' - pp'p''', the reduced critical polynomial of pp.

    For p = cP, B = c^3 (P''(2PP'' - (P')^2) - PP'P'''), and
    n(2PP'' - (P')^2) = (n-2)(P')^2 - 2 Delta reads back the (P')^2 and
    Delta that ``build`` formed, so B takes three integer products.
    """
    p, n = instance.p, instance.n
    c2 = p.content * p.content
    p1_ints = _int_derivative(p.prim)
    p2_ints = _int_derivative(p1_ints)
    # p1_squared and delta are c^2 times integer vectors: unscale them.
    k_square = int(instance.p1_squared.content / c2)
    k_delta = int(instance.delta.content / c2)  # unused when delta is 0
    bracket = [(n - 2) * k_square * a for a in instance.p1_squared.prim]
    for i, d in enumerate(instance.delta.prim):
        bracket[i] -= 2 * k_delta * d
    # Both products have 3n - 3 coefficients, also at n = 2, where P''' is 0.
    minuend = _int_mul(p2_ints, [v // n for v in bracket])
    subtrahend = _int_mul(_int_mul(p.prim, p1_ints), _int_derivative(p2_ints))
    b = [x - y for x, y in zip(minuend, subtrahend, strict=True)]
    return _from_ints(b, c2 * p.content)


def _classify_definite_p2(instance: ShapiroInstance, p0: IsolatedRoot,
                          ) -> tuple[ClassLabel, Evidence]:
    """p'' has no real zeros, so p''p > 0 and the whole axis is the +1 locus.

    The gain K = (p')^2/(p''p) is 0 at p0 and finite and positive elsewhere.
    Its derivative is K' = p'B/(p''p)^2, where B = 2pp''^2 - p'^2p'' - pp'p'''
    is the reduced critical polynomial of pp, so K' changes sign exactly at
    the real roots of odd multiplicity in B: the standard breakaways. Since
    K rises away from p0, the standard breakaways on each side are, outward
    from p0, a maximum, a minimum, a maximum, and so on.

    A factor w^m of p with m >= 2 divides each term of B at least
    3m - 4 >= 2(m - 1) times, so g^2 divides B for g = gcd(p, p'). Since p
    has no real zero, neither has g, and B/g^2 has the real roots of B with
    the same multiplicities and a lower degree to bisect.
    """
    b = _breakaway_polynomial(instance)
    g = repeated_part(instance.p)
    if g.degree >= 1:
        b = div_exact(b, g * g)
    left: list[IsolatedRoot] = []
    right: list[IsolatedRoot] = []
    for r in isolate_real_roots(b):
        if r.multiplicity % 2 == 0:
            continue
        side = compare_roots(r, p0)
        if side == 0:
            raise InvariantError("B = 2pp''^2 cannot vanish at p0")
        (left if side < 0 else right).append(r)
    if not left and not right:
        return ClassLabel.GAMMA_11, Evidence(p0, 0, 0, ())

    pole = AxisEvent(_double_pole(p0), EventKind.POLE)
    findings = []
    all_below = True
    # The maxima are every other standard breakaway, starting next to p0.
    for kind, maxima, lo, hi in ((IntervalKind.RIGHT_INFINITE, right[::2], pole, None),
                                 (IntervalKind.LEFT_INFINITE_EVEN, left[::-2][::-1], None, pole)):
        if not maxima:
            continue
        # On the +1 locus sign(K - K0) = sign(delta).
        here = tuple(BreakawayFinding(m, Comparison.from_sign(sign_at_root(instance.delta, m)))
                     for m in maxima)
        decisive = next((bf for bf in here if bf.comparison is not Comparison.LT), None)
        all_below = all_below and decisive is None
        findings.append(IntervalFinding(kind, lo, hi, here, decisive))
    label = ClassLabel.GAMMA_121 if all_below else ClassLabel.GAMMA_122
    return label, Evidence(p0, 0, 0, tuple(findings))


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
    return Comparison.from_sign(s_delta)
