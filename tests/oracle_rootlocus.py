"""Real-axis root-locus analysis of a real rational function: the tests' oracle.

For the locus equation K * RF(s) = +-1 with gain K(x) = |den(x)/num(x)|,
this module computes the axis partition into segments of constant sign
(positive sign: the +1 locus; negative: the -1 locus), locates the
breakaway points as the real roots of the reduced critical polynomial of RF,
classifies them by the gain's monotonicity change, and compares gains
against rational thresholds exactly at algebraic points.

It is the generic reference implementation that the tests hold the package
against: ``oracle_pp`` cancels pp = p''p/(p')^2 with a gcd, where
``shapiro`` reads the events, breakaways and gains of pp from p, p', p''
and the breakaway polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from shapiro12.polycore import (
    ONE,
    ZERO,
    InvariantError,
    Polynomial,
    div_exact,
    from_coefficients,
    gcd,
    sign_at,
)
from shapiro12.realroots import (
    IsolatedRoot,
    _levels,
    compare_roots,
    isolate_real_roots,
    order_roots,
    refine,
    sign_at_root,
)
from shapiro12.shapiro import AxisEvent, Comparison, EventKind, ShapiroInstance
from fraction_ref import ref_derivative, ref_mul, ref_sum


class Parity(Enum):
    EVEN = "EVEN"  # rf > 0 on the segment: the +1 locus
    ODD = "ODD"    # rf < 0 on the segment: the -1 locus


class Extremum(Enum):
    MAX = "MAX"
    MIN = "MIN"
    NONE = "NONE"


class InfiniteGainError(ZeroDivisionError):
    """Raised where the gain is +infinity (at a zero of the rational function)."""


@dataclass(frozen=True)
class RationalFunctionOnAxis:
    """Coprime numerator/denominator pair restricted to the real axis."""

    numerator: Polynomial
    denominator: Polynomial
    canceled: bool = False

    def sign_of_value_at(self, x: Fraction | int) -> int:
        return sign_at(self.numerator, x) * sign_at(self.denominator, x)


@dataclass(frozen=True)
class AxisSegment:
    """Maximal open real interval free of zeros and poles.

    ``right_count`` is the multiplicity-weighted number of real zeros and
    poles strictly to the right.  ``witness`` is a rational point strictly
    inside the segment.
    """

    lo_event: AxisEvent | None
    hi_event: AxisEvent | None
    parity: Parity
    right_count: int
    witness: Fraction


@dataclass(frozen=True)
class BreakawayPoint:
    """A real critical point of the rational function away from its multiple
    zeros and poles, classified by the gain's behaviour across it."""

    location: IsolatedRoot
    standard: bool
    extremum: Extremum
    segment: AxisSegment


def normalize(numerator: Polynomial, denominator: Polynomial) -> RationalFunctionOnAxis:
    """Cancel the common factor and scale the pair so the numerator is monic.

    Both parts are divided by the same polynomial and the same constant, so
    the value of the function (hence the gain) is unchanged everywhere.
    """
    if denominator.is_zero:
        raise ZeroDivisionError("denominator is the zero polynomial")
    if numerator.is_zero:
        return RationalFunctionOnAxis(ZERO, ONE, True)
    g = gcd(numerator, denominator)
    if g.degree >= 1:
        numerator = div_exact(numerator, g)
        denominator = div_exact(denominator, g)
    lc = numerator.coeffs[-1]
    if lc != 1:
        numerator = from_coefficients([c / lc for c in numerator.coeffs])
        denominator = from_coefficients([c / lc for c in denominator.coeffs])
    return RationalFunctionOnAxis(numerator, denominator, True)


def oracle_pp(instance: ShapiroInstance) -> RationalFunctionOnAxis:
    """pp = p''p/(p')^2 of an instance, with the common factor cancelled."""
    return normalize(instance.p2 * instance.p, instance.p1 * instance.p1)


def separate_roots(roots: Sequence[IsolatedRoot]) -> list[IsolatedRoot]:
    """Refine a strictly increasing root list until interval closures are disjoint.

    Raises ValueError when two neighbours are out of order or equal, where
    refining could never separate them.
    """
    rs = list(roots)
    for i in range(len(rs) - 1):
        if compare_roots(rs[i], rs[i + 1]) >= 0:
            raise ValueError("roots must be strictly increasing")
        levels = _levels(rs[i:i + 2])
        while not rs[i].interval.hi < rs[i + 1].interval.lo:
            k = next(levels)
            rs[i], rs[i + 1] = refine(rs[i], k), refine(rs[i + 1], k)
    return rs


def _require_canceled(rf: RationalFunctionOnAxis) -> None:
    if not rf.canceled:
        raise ValueError("rational function must be normalized first")


def axis_events(rf: RationalFunctionOnAxis) -> tuple[AxisEvent, ...]:
    """All real zeros and poles with multiplicity, sorted left to right.

    The returned isolating intervals are refined until pairwise strictly
    separated, so consecutive events admit rational points between them.
    """
    _require_canceled(rf)
    # The coprime parts have different witnesses, so no root is in both.
    kinds: dict[IsolatedRoot, EventKind] = {}
    for part, kind in ((rf.numerator, EventKind.ZERO), (rf.denominator, EventKind.POLE)):
        if part.degree >= 1:
            kinds.update((r, kind) for r in isolate_real_roots(part))
    if not kinds:
        return ()
    picked: list[IsolatedRoot] = []
    for group in order_roots(kinds):
        if len(group.members) != 1:
            raise InvariantError("coprime numerator and denominator share a root")
        picked.append(group.primary)
    # separate_roots returns refined copies, so read the tags first.
    tags = [kinds[r] for r in picked]
    return tuple(AxisEvent(r, kind) for r, kind in zip(separate_roots(picked), tags))


def axis_segments(rf: RationalFunctionOnAxis) -> tuple[AxisSegment, ...]:
    """The open segments between consecutive events, tagged with parity.

    Parity comes from the exact sign of the function on the segment.  For a
    positive leading-coefficient ratio this agrees with the classical rule:
    the segment lies on the +1 locus iff the multiplicity-weighted count of
    real zeros and poles to its right is even; a disagreement raises.
    """
    _require_canceled(rf)
    events = axis_events(rf)
    suffix = [0] * (len(events) + 1)
    for i in range(len(events) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + events[i].multiplicity
    positive_ratio = (
        not rf.numerator.is_zero
        and rf.numerator.coeffs[-1] * rf.denominator.coeffs[-1] > 0
    )
    segments = []
    for i in range(len(events) + 1):
        lo_event = events[i - 1] if i > 0 else None
        hi_event = events[i] if i < len(events) else None
        if lo_event is None and hi_event is None:
            witness = Fraction(0)
        elif lo_event is None:
            witness = hi_event.root.interval.lo - 1
        elif hi_event is None:
            witness = lo_event.root.interval.hi + 1
        else:
            witness = (lo_event.root.interval.hi + hi_event.root.interval.lo) / 2
        sign = rf.sign_of_value_at(witness)
        if sign == 0:
            raise InvariantError("segment witness fell on an event")
        parity = Parity.EVEN if sign > 0 else Parity.ODD
        right_count = suffix[i]
        if positive_ratio and (parity is Parity.EVEN) != (right_count % 2 == 0):
            raise InvariantError("segment sign disagrees with the right-count parity rule")
        segments.append(AxisSegment(lo_event, hi_event, parity, right_count, witness))
    return tuple(segments)


def gain_at(rf: RationalFunctionOnAxis, x: Fraction | int) -> Fraction:
    """Exact gain |den(x)/num(x)|; zero at poles, infinite at zeros."""
    num = rf.numerator.eval_at(x)
    if num == 0:
        raise InfiniteGainError(f"gain is +infinity at x = {Fraction(x)}")
    return abs(rf.denominator.eval_at(x) / num)


def gain_derivative_numerator(rf: RationalFunctionOnAxis) -> Polynomial:
    """Numerator N = num'*den - num*den' of d(num/den)/dx."""
    _require_canceled(rf)
    num, den = rf.numerator.coeffs, rf.denominator.coeffs
    return from_coefficients(ref_sum((1, ref_mul(ref_derivative(num), den)),
                                     (-1, ref_mul(num, ref_derivative(den)))))


def breakaway_points(rf: RationalFunctionOnAxis) -> tuple[BreakawayPoint, ...]:
    """All real breakaway points, sorted, with standard/extremum classification.

    A zero or pole of multiplicity m is a root of multiplicity exactly m - 1
    of N = num'*den - num*den', so the candidates are the real roots of the
    reduced critical polynomial N / (gcd(num, num') * gcd(den, den')), which
    vanishes at no zero and no pole.  For pp = p''p/(p')^2 it is, up to a
    constant, B = 2*p*p''^2 - p'^2*p'' - p*p'*p'''.  A candidate is standard
    exactly when N changes sign across it, tested at rational points inside
    the same segment with no other critical point or event in between.
    """
    _require_canceled(rf)
    n_poly = gain_derivative_numerator(rf)
    if n_poly.degree < 1:
        return ()
    num, den = rf.numerator, rf.denominator
    crit = div_exact(n_poly, gcd(num, num.derivative()) * gcd(den, den.derivative()))
    candidates = isolate_real_roots(crit)
    if not candidates:
        return ()
    segments = axis_segments(rf)
    # Every segment but the last ends at an event.
    events = [s.hi_event for s in segments[:-1]]
    event_roots = {e.root for e in events}

    merged = order_roots(list(candidates) + [e.root for e in events])
    reps: list[IsolatedRoot] = []
    is_event: list[bool] = []
    for group in merged:
        if len(group.members) != 1:
            raise InvariantError("the reduced critical polynomial vanishes at a zero or pole")
        reps.append(group.primary)
        is_event.append(group.primary in event_roots)
    reps = separate_roots(reps)

    out: list[BreakawayPoint] = []
    seg_idx = 0
    for i, rep in enumerate(reps):
        if is_event[i]:
            seg_idx += 1
            continue
        segment = segments[seg_idx]
        left = (reps[i - 1].interval.hi + rep.interval.lo) / 2 if i > 0 else rep.interval.lo - 1
        right = (rep.interval.hi + reps[i + 1].interval.lo) / 2 if i + 1 < len(reps) else rep.interval.hi + 1
        sigma = 1 if segment.parity is Parity.EVEN else -1
        k_slope_left = -sigma * sign_at(n_poly, left)
        k_slope_right = -sigma * sign_at(n_poly, right)
        if k_slope_left == 0 or k_slope_right == 0:
            raise InvariantError("side sample hit a critical point")
        standard = k_slope_left != k_slope_right
        if not standard:
            extremum = Extremum.NONE
        elif k_slope_left > 0:
            extremum = Extremum.MAX
        else:
            extremum = Extremum.MIN
        out.append(BreakawayPoint(rep, standard, extremum, segment))
    return tuple(out)


def gain_compare_at(rf: RationalFunctionOnAxis, location: IsolatedRoot,
                    threshold: Fraction | int) -> Comparison:
    """Exact comparison of the gain at an algebraic point with a rational
    threshold, via the sign of den^2 - threshold^2 * num^2 there."""
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError("gain thresholds are non-negative")
    num, den = rf.numerator.coeffs, rf.denominator.coeffs
    test = ref_sum((1, ref_mul(den, den)), (-threshold * threshold, ref_mul(num, num)))
    return Comparison.from_sign(sign_at_root(from_coefficients(test), location))
