import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapiro12.polycore import ONE, from_coefficients, gcd, parse_polynomial, sign_at
from shapiro12.realroots import (
    compare_roots,
    isolate_real_roots,
    order_roots,
    rational_value,
    refine,
    sign_at_root,
)
from shapiro12.shapiro import Comparison, EventKind
from oracle_rootlocus import (
    Extremum,
    InfiniteGainError,
    Parity,
    axis_events,
    axis_segments,
    breakaway_points,
    gain_at,
    gain_compare_at,
    gain_derivative_numerator,
    normalize,
    separate_roots,
)

P = parse_polynomial

RECIP_QUARTIC = normalize(P("1"), P("-1,0,0,0,1"))   # 1/(x^4-1)
RECIP_CUBIC = normalize(P("1"), P("-1,0,0,1"))       # 1/(x^3-1)
PP_X2P1 = normalize(P("2,0,2"), P("0,0,4"))          # (x^2+1)''*(x^2+1) / ((x^2+1)')^2


def random_rf(rng, max_degree=4, bound=6):
    while True:
        num = from_coefficients([rng.randint(-bound, bound) for _ in range(rng.randint(1, max_degree + 1))])
        den = from_coefficients([rng.randint(-bound, bound) for _ in range(rng.randint(1, max_degree + 1))])
        if num.is_zero or den.is_zero:
            continue
        return normalize(num, den)


class TestNormalize:
    def test_shared_factor(self):
        rf = normalize(P("1,1") * P("-1,1"), P("-1,1"))
        assert rf.numerator == P("1,1")
        assert rf.denominator == P("1")
        assert rf.canceled

    def test_coprime_unchanged(self):
        rf = normalize(P("1"), P("-1,0,0,0,1"))
        assert rf.numerator == P("1")
        assert rf.denominator == P("-1,0,0,0,1")

    def test_pp_convention(self):
        assert PP_X2P1.numerator == P("1,0,1")
        assert PP_X2P1.denominator == P("0,0,2")

    def test_value_preserved(self):
        num, den = P("2,4,6"), P("0,8")
        rf = normalize(num, den)
        for x in [Fraction(1), Fraction(-3, 2), Fraction(7)]:
            assert rf.numerator.eval_at(x) / rf.denominator.eval_at(x) == num.eval_at(x) / den.eval_at(x)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            normalize(P("1"), from_coefficients([0]))


class TestAxisEvents:
    def test_recip_quartic_poles(self):
        events = axis_events(RECIP_QUARTIC)
        assert [e.kind for e in events] == [EventKind.POLE, EventKind.POLE]
        assert [e.multiplicity for e in events] == [1, 1]

    def test_recip_cubic_pole(self):
        events = axis_events(RECIP_CUBIC)
        assert len(events) == 1
        assert events[0].kind is EventKind.POLE
        assert rational_value(events[0].root) == 1

    def test_double_pole(self):
        events = axis_events(PP_X2P1)
        assert len(events) == 1
        assert events[0].kind is EventKind.POLE
        assert events[0].multiplicity == 2

    def test_zeros_and_poles_interleaved(self):
        rf = normalize(P("0,1"), P("-1,0,1"))  # x / (x^2-1)
        events = axis_events(rf)
        assert [e.kind for e in events] == [EventKind.POLE, EventKind.ZERO, EventKind.POLE]


class TestAxisSegments:
    def test_recip_quartic(self):
        segs = axis_segments(RECIP_QUARTIC)
        assert [s.parity for s in segs] == [Parity.EVEN, Parity.ODD, Parity.EVEN]
        assert [s.right_count for s in segs] == [2, 1, 0]

    def test_recip_cubic(self):
        segs = axis_segments(RECIP_CUBIC)
        assert [s.parity for s in segs] == [Parity.ODD, Parity.EVEN]

    def test_double_pole_counts_two(self):
        segs = axis_segments(PP_X2P1)
        assert [s.parity for s in segs] == [Parity.EVEN, Parity.EVEN]
        assert [s.right_count for s in segs] == [2, 0]

    def test_no_events(self):
        rf = normalize(P("1,0,1"), P("2"))
        segs = axis_segments(rf)
        assert len(segs) == 1
        assert segs[0].lo_event is None and segs[0].hi_event is None


class TestGain:
    def test_examples(self):
        assert gain_at(RECIP_QUARTIC, 0) == 1
        assert gain_at(PP_X2P1, 1) == 1

    def test_zero_at_pole(self):
        assert gain_at(RECIP_CUBIC, 1) == 0

    def test_infinite_at_zero(self):
        rf = normalize(P("-1,0,1"), P("0,1"))
        with pytest.raises(InfiniteGainError):
            gain_at(rf, 1)

    def test_gain_derivative_numerators(self):
        assert gain_derivative_numerator(RECIP_QUARTIC) == from_coefficients([0, 0, 0, -4])
        assert gain_derivative_numerator(RECIP_CUBIC) == from_coefficients([0, 0, -3])
        assert gain_derivative_numerator(PP_X2P1) == from_coefficients([0, -4])


class TestBreakaway:
    def test_standard_max_with_multiplicity_three(self):
        points = breakaway_points(RECIP_QUARTIC)
        assert len(points) == 1
        b = points[0]
        assert b.standard
        assert b.extremum is Extremum.MAX
        assert b.location.multiplicity == 3
        assert b.location.interval.is_point and b.location.interval.lo == 0

    def test_non_standard_with_multiplicity_two(self):
        points = breakaway_points(RECIP_CUBIC)
        assert len(points) == 1
        b = points[0]
        assert not b.standard
        assert b.extremum is Extremum.NONE
        assert b.location.multiplicity == 2

    def test_double_pole_excluded(self):
        assert breakaway_points(PP_X2P1) == ()

    def test_min_between_poles(self):
        rf = normalize(P("1"), P("0,-3,0,1"))  # 1/(x^3-3x): poles at -sqrt3, 0, sqrt3
        points = breakaway_points(rf)
        kinds = [(b.standard, b.extremum) for b in points]
        assert len(points) == 2
        assert all(standard for standard, _ in kinds)

    def test_gain_threshold_trio(self):
        b = breakaway_points(RECIP_QUARTIC)[0]
        assert gain_compare_at(RECIP_QUARTIC, b.location, 2) is Comparison.LT
        assert gain_compare_at(RECIP_QUARTIC, b.location, 1) is Comparison.EQ
        assert gain_compare_at(RECIP_QUARTIC, b.location, Fraction(1, 2)) is Comparison.GT


FIXTURE_RFS = [
    RECIP_QUARTIC,
    RECIP_CUBIC,
    PP_X2P1,
    normalize(P("0,1"), P("-1,0,1")),
    normalize(P("1"), P("0,-3,0,1")),
    normalize(P("2,0,6,-4,1") * P("12,-24,12"), P("0,12,-12,4") * P("0,12,-12,4")),
]


def _interior_samples(segment, count=3):
    """Rational points strictly inside a segment."""
    lo = segment.lo_event.root.interval.hi if segment.lo_event else None
    hi = segment.hi_event.root.interval.lo if segment.hi_event else None
    out = []
    for k in range(1, count + 1):
        if lo is None and hi is None:
            out.append(Fraction(k - 2))
        elif lo is None:
            out.append(hi - k)
        elif hi is None:
            out.append(lo + k)
        else:
            out.append(lo + (hi - lo) * k / (count + 1))
    return out


class TestStructuralInvariants:
    def test_parity_sign_equivalence(self):
        for rf in FIXTURE_RFS:
            for seg in axis_segments(rf):
                for x in _interior_samples(seg):
                    sgn = rf.sign_of_value_at(x)
                    if sgn == 0:
                        continue  # sample collided with an event enclosure
                    assert (sgn > 0) == (seg.parity is Parity.EVEN)

    def test_gain_monotone_between_stops(self):
        for rf in FIXTURE_RFS:
            stops = [e.root for e in axis_events(rf)] + \
                    [b.location for b in breakaway_points(rf)]
            merged = separate_roots([m.primary for m in order_roots(stops)])
            gaps = []
            if merged:
                gaps.append((merged[0].interval.lo - 1, merged[0].interval.lo))
                for a, b in zip(merged, merged[1:]):
                    if a.interval.hi < b.interval.lo:
                        gaps.append((a.interval.hi, b.interval.lo))
                gaps.append((merged[-1].interval.hi, merged[-1].interval.hi + 1))
            for lo, hi in gaps:
                width = hi - lo
                xs = [lo + width * k / 9 for k in range(1, 9)]
                values = []
                for x in xs:
                    try:
                        values.append(gain_at(rf, x))
                    except InfiniteGainError:
                        values.append(None)
                values = [v for v in values if v is not None]
                increasing = all(a < b for a, b in zip(values, values[1:]))
                decreasing = all(a > b for a, b in zip(values, values[1:]))
                assert increasing or decreasing

    def test_standard_iff_gain_extremum(self):
        for rf in FIXTURE_RFS:
            for b in breakaway_points(rf):
                narrow = refine(b.location, 16)
                lo, hi = narrow.interval.lo, narrow.interval.hi
                if narrow.interval.is_point:
                    lo, hi = lo - Fraction(1, 2 ** 16), hi + Fraction(1, 2 ** 16)
                width = hi - lo
                outside_left, outside_right = lo - width, hi + width
                k_left = gain_at(rf, outside_left)
                k_right = gain_at(rf, outside_right)
                if b.extremum is Extremum.MAX:
                    assert gain_compare_at(rf, b.location, k_left) is Comparison.GT
                    assert gain_compare_at(rf, b.location, k_right) is Comparison.GT
                elif b.extremum is Extremum.MIN:
                    assert gain_compare_at(rf, b.location, k_left) is Comparison.LT
                    assert gain_compare_at(rf, b.location, k_right) is Comparison.LT

    def test_standard_iff_odd_critical_multiplicity(self):
        # The monotonicity-change test must agree with multiplicity parity.
        for rf in FIXTURE_RFS:
            for b in breakaway_points(rf):
                assert b.standard == (b.location.multiplicity % 2 == 1)
                assert b.standard == (b.extremum is not Extremum.NONE)

    def test_no_breakaway_at_multiple_zero_or_pole(self):
        for rf in FIXTURE_RFS:
            for poly in (rf.numerator, rf.denominator):
                if poly.degree < 2:
                    continue
                locator = gcd(poly, poly.derivative())
                if locator.degree < 1:
                    continue
                for b in breakaway_points(rf):
                    assert sign_at_root(locator, b.location) != 0

    def test_segments_partition_axis(self):
        rng = random.Random(7)
        for rf in FIXTURE_RFS:
            segs = axis_segments(rf)
            events = axis_events(rf)
            for _ in range(20):
                x = Fraction(rng.randint(-4000, 4000), rng.randint(1, 40))
                if sign_at(rf.numerator, x) == 0 or sign_at(rf.denominator, x) == 0:
                    continue
                holders = []
                for seg in segs:
                    above = seg.lo_event is None or \
                        sign_at_root(from_coefficients([-x, 1]), seg.lo_event.root) < 0
                    below = seg.hi_event is None or \
                        sign_at_root(from_coefficients([-x, 1]), seg.hi_event.root) > 0
                    if above and below:
                        holders.append(seg)
                assert len(holders) == 1
                assert (rf.sign_of_value_at(x) > 0) == (holders[0].parity is Parity.EVEN)

    def test_random_rfs_hold_invariants(self):
        rng = random.Random(42)
        for _ in range(25):
            rf = random_rf(rng)
            if rf.numerator.is_zero:
                continue
            segs = axis_segments(rf)
            for seg in segs:
                for x in _interior_samples(seg, 2):
                    sgn = rf.sign_of_value_at(x)
                    if sgn != 0:
                        assert (sgn > 0) == (seg.parity is Parity.EVEN)
            for b in breakaway_points(rf):
                assert b.standard == (b.location.multiplicity % 2 == 1)


def _linear_power(args):
    a, e = args
    return math.prod([from_coefficients([-a, 1])] * e, start=ONE)


def _quadratic_power(args):
    b, extra, e = args
    return math.prod([from_coefficients([b * b // 4 + extra, b, 1])] * e, start=ONE)  # no real root


def factored_poly():
    """Nonzero constant times powers of real linear and complex quadratic factors."""
    linear = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(_linear_power)
    quadratic = st.tuples(st.integers(-2, 2), st.integers(1, 3), st.integers(1, 2)).map(_quadratic_power)
    lead = st.integers(1, 3).flatmap(lambda c: st.sampled_from([c, -c])).map(
        lambda c: from_coefficients([c]))
    factors = st.lists(st.one_of(linear, quadratic), max_size=3)
    return st.tuples(lead, factors).map(lambda t: math.prod(t[1], start=t[0]))


def reference_breakaways(rf):
    """Real roots of the gain derivative numerator N that are no zero or pole.

    A root r of multiplicity m is standard iff m is odd.  K = sigma*den/num
    with sigma the sign of rf at r, so sign K' = -sigma * sign N, and just
    left of r the sign of N is (-1)^m times the sign of N^(m)(r).
    """
    n_poly = gain_derivative_numerator(rf)
    if n_poly.degree < 1:
        return []
    events = [e.root for e in axis_events(rf)]
    out = []
    for r in isolate_real_roots(n_poly):
        if any(compare_roots(r, e) == 0 for e in events):
            continue
        m = r.multiplicity
        n_m = n_poly
        for _ in range(m):
            n_m = n_m.derivative()
        sigma = sign_at_root(rf.numerator, r) * sign_at_root(rf.denominator, r)
        slope_left = -sigma * (-1) ** m * sign_at_root(n_m, r)
        if m % 2 == 0:
            extremum = Extremum.NONE
        elif slope_left > 0:
            extremum = Extremum.MAX
        else:
            extremum = Extremum.MIN
        out.append((r, m % 2 == 1, extremum))
    return out


class TestReducedCriticalPolynomial:
    @given(factored_poly(), factored_poly())
    @settings(max_examples=60, deadline=None)
    def test_matches_generic_numerator_minus_events(self, num, den):
        rf = normalize(num, den)
        got = breakaway_points(rf)
        want = reference_breakaways(rf)
        assert len(got) == len(want)
        for b, (r, standard, extremum) in zip(got, want):
            assert compare_roots(b.location, r) == 0
            assert b.location.multiplicity == r.multiplicity
            assert (b.standard, b.extremum) == (standard, extremum)
