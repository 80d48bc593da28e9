import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapiro12

from shapiro12 import polycore, realroots, shapiro
from shapiro12.harness import FIXTURES, FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import (
    ONE,
    div_exact,
    format_polynomial,
    from_coefficients,
    gcd,
    parse_polynomial,
)
from shapiro12.realroots import RootCount, compare_roots, isolate_real_roots, sign_at_root
from shapiro12.shapiro import (
    ActualVerdict,
    ClassLabel,
    Comparison,
    DeltaIdenticallyZeroError,
    EventKind,
    IntervalKind,
    Verdict,
    actual_verdict,
    build,
    classify,
    delta_sign_shortcut,
    pp_gain_and_sign,
    predict_verdict,
)
from oracle_rootlocus import (
    Extremum,
    Parity,
    axis_events,
    axis_segments,
    breakaway_points,
    gain_compare_at,
    oracle_pp,
)
from fraction_ref import ref_derivative, ref_mul, ref_sum
from rare_inputs import GAMMA_11_WIDE
from sturm_helper import recording_walks, sturm_count

P = parse_polynomial


EXPECTED_VERDICTS = {
    ClassLabel.LAMBDA_1: Verdict.HOLDS,
    ClassLabel.LAMBDA_21: Verdict.HOLDS,
    ClassLabel.LAMBDA_22: Verdict.HOLDS,
    ClassLabel.GAMMA_11: Verdict.FAILS,
    ClassLabel.GAMMA_121: Verdict.FAILS,
    ClassLabel.GAMMA_122: Verdict.HOLDS,
    ClassLabel.GAMMA_211: Verdict.HOLDS,
    ClassLabel.GAMMA_2121: Verdict.FAILS,
    ClassLabel.GAMMA_2122: Verdict.HOLDS,
    ClassLabel.GAMMA_22: Verdict.HOLDS,
    ClassLabel.GAMMA_231: Verdict.HOLDS,
    ClassLabel.GAMMA_2321: Verdict.FAILS,
    ClassLabel.GAMMA_2322: Verdict.HOLDS,
}


class TestBuild:
    def test_x2_plus_1(self):
        inst = build(P("1,0,1"))
        assert inst.n == 2
        assert inst.delta == P("-4")
        assert inst.k0 == 2
        assert oracle_pp(inst).numerator == P("1,0,1")
        assert oracle_pp(inst).denominator == P("0,0,2")

    def test_x4_plus_1(self):
        inst = build(P("1,0,0,0,1"))
        assert inst.delta == from_coefficients([0, 0, -48])
        assert inst.k0 == Fraction(4, 3)

    def test_quartic(self):
        inst = build(P("2,0,-2,0,1"))
        assert inst.delta == P("32,0,-80,0,16")

    def test_p_counted_once_by_build(self, monkeypatch):
        # build counts p by the continued fractions that count delta. Only a
        # first run that gives up at a real multiple root walks remainder
        # sequences: the gcd of each repeated part with its derivative, but
        # for the last, linear one, which the integer certificate settles.
        # classify and actual_verdict read nr_p and count p nowhere again.
        counted = []
        monkeypatch.setattr(shapiro, "cf_root_count",
                            lambda q, count=realroots.cf_root_count: counted.append(q) or count(q))
        walks = recording_walks(monkeypatch)
        double = P("-1,1") * P("-1,1") * P("1,0,1")  # (x - 1)^2 (x^2 + 1)
        inst = build(double)
        assert walks == [double.prim]
        assert inst.nr_p == RootCount(1, 2)
        for p in [double] + [P(text) for text in FIXTURES.values()]:
            counted.clear()
            inst = build(p)
            assert counted == [p]
            counted.clear()
            classify(inst)
            actual_verdict(inst)
            assert p not in counted, format_polynomial(p)

    def test_wide_coefficients_walk_no_remainder_sequence(self, monkeypatch):
        # The slowest input CI classifies, of degree 32 with 64-bit numerators
        # and denominators: a Sturm walk of p takes about a second there. The
        # continued fractions count p, and the certificate proves p
        # squarefree for B/g^3, so build and classify walk none.
        p, label = GAMMA_11_WIDE
        walks = recording_walks(monkeypatch)
        inst = build(p)
        assert classify(inst)[0] is label
        assert walks == []
        assert inst.nr_p.distinct == sturm_count(p)

    def test_rejections(self):
        for text in ["1,1", "5", "1,2,3,4", "0"]:
            with pytest.raises(ValueError):
                build(P(text))

    def test_top_delta_coefficient_vanishes(self):
        rng = random.Random(3)
        for _ in range(30):
            deg = rng.choice([2, 4, 6, 8])
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, -3])]
            inst = build(from_coefficients(coeffs))
            assert inst.delta.prim[2 * inst.n - 3:] == ()
            assert inst.delta.degree <= 2 * inst.n - 4

    def test_uncancelled_top_coefficients_raise(self, monkeypatch):
        # The cancellation is read from the top lanes of the packed Delta:
        # one unit more in the lowest lane is a nonzero x^(2n-2) coefficient.
        read = shapiro._read_lanes
        monkeypatch.setattr(shapiro, "_read_lanes", lambda v, count, nb: read(v + 1, count, nb))
        with pytest.raises(polycore.InvariantError, match="must cancel"):
            build(P("1,0,1"))

    def test_gain_limit_is_k0(self):
        rng = random.Random(4)
        for _ in range(20):
            deg = rng.choice([2, 4, 6])
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -2, 5])]
            inst = build(from_coefficients(coeffs))
            num = inst.p1 * inst.p1
            den = inst.p2 * inst.p
            assert num.coeffs[-1] / den.coeffs[-1] == inst.k0

    def test_pp_built_only_on_first_use(self, monkeypatch):
        # Every binding of each probed function in the package counts its
        # calls, including names a module imported from another.
        calls = {}
        probed = (gcd, shapiro.pp_events, shapiro.pp_breakaways)
        for f in probed:
            def counting(*args, _f=f, **kwargs):
                calls[_f] += 1
                return _f(*args, **kwargs)

            calls[f] = 0
            for module in (polycore, realroots, shapiro):
                for name, value in list(vars(module).items()):
                    if value is f:
                        monkeypatch.setattr(module, name, counting)
        # Lambda1 is decided by one count of p: deciding it runs no gcd.
        inst = build(P(FIXTURES[ClassLabel.LAMBDA_1]))
        assert classify(inst)[0] is ClassLabel.LAMBDA_1
        assert actual_verdict(inst).verdict is Verdict.HOLDS
        assert calls[gcd] == 0
        # No class runs the axis analysis of pp that plotdata reads.
        never = probed[1:]
        for text in FIXTURES.values():
            inst = build(P(text))
            classify(inst)
            actual_verdict(inst)
            assert [calls[f] for f in never] == [0] * len(never), text


@st.composite
def factored_even_polys(draw):
    """A rational constant times powers of rational linear and non-real
    quadratic factors, one more factor making the degree even and >= 2."""
    fractions = st.fractions(-4, 4, max_denominator=7)
    p = from_coefficients([draw(fractions.filter(bool))])
    for _ in range(draw(st.integers(0, 3))):
        p *= math.prod([from_coefficients([-draw(fractions), draw(st.integers(1, 3))])]
                       * draw(st.integers(1, 3)), start=ONE)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(fractions), draw(st.fractions(Fraction(1, 5), 3, max_denominator=5))
        p *= math.prod([from_coefficients([a * a + b, -2 * a, 1])] * draw(st.integers(1, 2)),
                       start=ONE)
    if p.degree < 2:
        p *= from_coefficients([1, draw(fractions), 1])
    if p.degree % 2:
        p *= from_coefficients([draw(fractions), draw(fractions.filter(bool))])
    return p


def _derived_coeffs(inst):
    """The coefficients of p', p'', delta, K0 and B of an instance."""
    return (inst.p1.coeffs, inst.p2.coeffs, inst.delta.coeffs, inst.k0,
            shapiro._breakaway_polynomial(inst).coeffs)


class TestIntegerDerivation:
    """build and B form their integer vectors from p.prim; the reference
    derives the same fields on Fraction lists, apart from the kernel, and B
    from its definition, not from delta."""

    @staticmethod
    def reference(p):
        a = p.coeffs
        n = len(a) - 1
        p1 = ref_derivative(a)
        p2 = ref_derivative(p1)
        delta = ref_sum((n - 1, ref_mul(p1, p1)), (-n, ref_mul(a, p2)))
        return p1, p2, delta, Fraction(n, n - 1), _ref_breakaway(a)

    @given(factored_even_polys())
    @settings(max_examples=200, deadline=None)
    def test_fields_and_breakaway_match_polynomial_arithmetic(self, p):
        inst = build(p)
        assert _derived_coeffs(inst) == self.reference(p)
        assert inst.p == p and inst.n == p.degree

    def test_corpus_and_rational_inputs(self):
        inputs = [P(text) for text in FIXTURES.values()]
        inputs += [P("1/2,-3/7,5/3,0,2/9"), P("-3,1,27,1,30"), P("3/7,-6/7,3/7")]
        for strategy in (Strategy.UNIFORM, Strategy.POSITIVE_ONLY):
            config = FuzzConfig(seed=23, cases=100, degree_range=(2, 16), coeff_bound=12,
                                strategy=strategy)
            inputs += [random_polynomial(config, i) for i in range(config.cases)]
        for p in inputs:
            assert _derived_coeffs(build(p)) == self.reference(p), format_polynomial(p)

    @given(st.integers(1, 8).flatmap(lambda h: st.lists(
        st.integers(1 << 63, (1 << 64) - 1).flatmap(lambda m: st.sampled_from((m, -m))),
        min_size=2 * h + 1, max_size=2 * h + 1).filter(lambda a: math.gcd(*a) == 1)))
    @settings(max_examples=60, deadline=None)
    def test_wide_coefficients_take_wide_lanes(self, coeffs):
        # Primitive 64-bit coefficients put the bounds on delta and B past
        # 64 bits, so both are read from lanes of more than 8 bytes.
        p = from_coefficients(coeffs)
        with mock.patch.object(shapiro, "_read_lanes", wraps=shapiro._read_lanes) as read:
            assert _derived_coeffs(build(p)) == self.reference(p)
        assert [c.args[2] > 8 for c in read.call_args_list] == [True, True]

    def test_delta_lanes_take_the_sum_of_absolute_values(self):
        # At c = 31500000 the largest coefficient of Delta for
        # c(1 + x + ... + x^16) + x^16 is a 64-bit number, about 1.5 times
        # (n-1) max|P'|^2 + n max|P| max|P''|, which is below 2^63: lanes
        # sized from the largest coefficients alone would overflow.
        c = 31_500_000
        p = from_coefficients([c] * 16 + [c + 1])
        assert _derived_coeffs(build(p)) == self.reference(p)


class TestClassifyFixtures:
    def test_lambda_1(self):
        assert classify(build(P("-1,0,1")))[0] is ClassLabel.LAMBDA_1

    def test_gamma_11(self):
        assert classify(build(P("1,0,1")))[0] is ClassLabel.GAMMA_11

    def test_gamma_11_squared(self):
        p = P("1,0,1") * P("1,0,1")
        inst = build(p)
        assert inst.delta == P("-16,0,-32,0,-16")
        assert classify(inst)[0] is ClassLabel.GAMMA_11

    def test_lambda_22(self):
        assert classify(build(P("1,0,0,0,1")))[0] is ClassLabel.LAMBDA_22

    def test_lambda_21(self):
        assert classify(build(P("2,0,-2,0,1")))[0] is ClassLabel.LAMBDA_21

    def test_all_seeded_fixtures(self):
        for label, text in FIXTURES.items():
            inst = build(P(text))
            got, _ = classify(inst)
            assert got is label
            assert actual_verdict(inst).verdict is predict_verdict(label)

    def test_gamma_211_with_double_inflection(self):
        # p'' = 12(x-1)^2 has one double zero right of p0: the even branch.
        inst = build(P("2,0,6,-4,1"))
        assert inst.delta == from_coefficients([-96, 192, 48, -96])
        label, evidence = classify(inst)
        assert label is ClassLabel.GAMMA_211
        assert evidence.p2_roots_right == 2 and evidence.p2_roots_left == 0
        outcome = actual_verdict(inst)
        assert outcome.verdict is Verdict.HOLDS
        assert outcome.nr_delta.distinct == 3  # roots 1/2 and +-sqrt(2)

    def test_gamma_211_two_simple_inflections(self):
        inst = build(P("6,4,-2,0,1"))
        label, evidence = classify(inst)
        assert label is ClassLabel.GAMMA_211
        assert evidence.p2_roots_right == 2

    def test_gamma_22_evidence(self):
        inst = build(P("9,-8,6,-4,1"))
        label, evidence = classify(inst)
        assert label is ClassLabel.GAMMA_22
        assert evidence.p2_roots_left == 2 and evidence.p2_roots_right == 0
        assert len(evidence.interval_findings) == 1

    def test_gamma_231_symmetric_sextic(self):
        inst = build(P("100,0,84,0,-15,0,1"))
        label, evidence = classify(inst)
        assert label is ClassLabel.GAMMA_231
        assert evidence.p2_roots_left == 2 and evidence.p2_roots_right == 2

    def test_gamma_121_and_122_comparisons_recorded(self):
        for text, label in [(FIXTURES[ClassLabel.GAMMA_121], ClassLabel.GAMMA_121),
                            (FIXTURES[ClassLabel.GAMMA_122], ClassLabel.GAMMA_122)]:
            inst = build(P(text))
            got, evidence = classify(inst)
            assert got is label
            comparisons = [bf.comparison for f in evidence.interval_findings
                           for bf in f.breakaways]
            assert comparisons, "maximum-gain comparisons must be recorded"
            if label is ClassLabel.GAMMA_121:
                assert all(c is Comparison.LT for c in comparisons)
            else:
                assert any(c in (Comparison.GT, Comparison.EQ) for c in comparisons)

    def test_gamma_122_with_both_maxima_at_k0(self):
        # Each gain maximum reaches K0 exactly: delta has a double root there,
        # shared with B, so its sign is read through the gcd, and a maximum
        # equal to K0 decides Gamma122 as one above it does.
        inst = build(P("67/72,-11/3,17/3,-32/9,1"))
        label, evidence = classify(inst)
        assert label is ClassLabel.GAMMA_122
        assert [(f.kind, [bf.comparison for bf in f.breakaways])
                for f in evidence.interval_findings] == [
            (IntervalKind.RIGHT_INFINITE, [Comparison.EQ]),
            (IntervalKind.LEFT_INFINITE_EVEN, [Comparison.EQ])]
        assert actual_verdict(inst) == ActualVerdict(Verdict.HOLDS, RootCount(2, 4),
                                                     RootCount(0, 0))


class TestPredictVerdict:
    def test_full_table(self):
        for label, verdict in EXPECTED_VERDICTS.items():
            assert predict_verdict(label) is verdict


class TestActualVerdict:
    def test_fails_case(self):
        outcome = actual_verdict(build(P("1,0,1")))
        assert outcome == ActualVerdict(Verdict.FAILS,
                                        outcome.nr_delta, outcome.nr_p)
        assert outcome.nr_delta.distinct == 0
        assert outcome.nr_p.distinct == 0

    def test_holds_via_delta(self):
        outcome = actual_verdict(build(P("1,0,0,0,1")))
        assert outcome.verdict is Verdict.HOLDS
        assert outcome.nr_delta.distinct == 1
        assert outcome.nr_delta.with_multiplicity == 2

    def test_quartic_four_delta_roots(self):
        outcome = actual_verdict(build(P("2,0,-2,0,1")))
        assert outcome.verdict is Verdict.HOLDS
        assert outcome.nr_delta.distinct == 4

    def test_delta_identically_zero(self):
        for text in ["0,0,1", "1,4,6,4,1"]:  # x^2 and (x+1)^4
            with pytest.raises(DeltaIdenticallyZeroError) as excinfo:
                actual_verdict(build(P(text)))
            assert excinfo.value.nr_p.distinct == 1
            # Such polynomials always carry a real zero, so the conjecture holds.
            assert classify(build(P(text)))[0] is ClassLabel.LAMBDA_1

    def test_delta_counted_without_its_sturm_walk(self, monkeypatch):
        # delta is counted from the leaves of its continued fractions. A
        # first run that finishes proves every real root simple, so no Sturm
        # sequence of delta is walked and no root of it is isolated, and p
        # was counted by build: actual_verdict walks none. Only a run that
        # gives up on a delta not proved squarefree (x^4 + 1, whose delta is
        # -48x^2) walks the chain of its repeated parts.
        walks = recording_walks(monkeypatch)
        isolated = []
        for module in (realroots, shapiro):
            monkeypatch.setattr(module, "isolate_real_roots",
                                lambda q, isolate=isolate_real_roots: isolated.append(q) or isolate(q))
        config = FuzzConfig(seed=7, cases=100, degree_range=(10, 16), coeff_bound=12)
        polys = [P(text) for text in FIXTURES.values()]
        polys += [random_polynomial(config, i) for i in range(config.cases)]
        finished = 0
        for p in polys:
            inst = build(p)
            delta = inst.delta
            if delta.degree < 1:  # counted without any walk
                continue
            try:
                realroots._isolate(delta.prim, capped=True)
            except realroots._Inconclusive:
                continue
            finished += 1
            walks.clear()
            isolated.clear()
            actual_verdict(inst)
            assert walks == [], format_polynomial(p)
            assert isolated == [], format_polynomial(p)
        assert finished >= 100


class TestDeltaSignShortcut:
    def test_x2_plus_1_at_1(self):
        inst = build(P("1,0,1"))
        assert delta_sign_shortcut(inst, 1) is Comparison.LT

    def test_quartic_at_2(self):
        inst = build(P("2,0,-2,0,1"))
        assert inst.delta.eval_at(2) == -32
        assert delta_sign_shortcut(inst, 2) is Comparison.LT

    def test_equality_at_delta_root(self):
        # delta of x^4+1 is -48x^2... its root 0 is the pole of pp; use the
        # Gamma_211 fixture where delta has the rational root 1/2 instead.
        inst = build(P("2,0,6,-4,1"))
        assert inst.delta.eval_at(Fraction(1, 2)) == 0
        assert delta_sign_shortcut(inst, Fraction(1, 2)) is Comparison.EQ

    def test_cancelled_multiple_root(self):
        # 0 is a double root of x^2(x^2 + 1), and sqrt(2) one of
        # (x^2 - 2)^2(x^2 + 1): no event of pp, which tends to 1/2 there.
        # delta vanishes at both, but the gain m/(m - 1) = 2 exceeds K0.
        inst = build(P("0,0,1,0,1"))
        assert inst.delta.eval_at(0) == 0
        assert pp_gain_and_sign(inst, Fraction(0)) == (2, 1) and 2 > inst.k0
        assert delta_sign_shortcut(inst, 0) is Comparison.GT
        inst = build(P("-2,0,1") * P("-2,0,1") * P("1,0,1"))
        root = isolate_real_roots(P("-2,0,1"))[1]
        assert delta_sign_shortcut(inst, root) is Comparison.GT

    def test_perfect_power_is_at_the_threshold(self):
        # delta of (x - 1)^4 is identically zero, and the gain is K0 = 4/3.
        inst = build(P("1,-4,6,-4,1"))
        assert pp_gain_and_sign(inst, Fraction(1)) == (inst.k0, 1)
        assert delta_sign_shortcut(inst, 1) is Comparison.EQ

    def test_odd_segment_rejected(self):
        inst = build(P("6,4,-2,0,1"))
        with pytest.raises(ValueError):
            delta_sign_shortcut(inst, 0)

    def test_event_rejected(self):
        inst = build(P("1,0,1"))
        with pytest.raises(ValueError):
            delta_sign_shortcut(inst, 0)

    def test_agrees_with_gain_threshold_at_breakaways(self):
        for text in FIXTURES.values():
            inst = build(P(text))
            pp = oracle_pp(inst)
            for b in breakaway_points(pp):
                if b.segment.parity is not Parity.EVEN:
                    continue
                via_gain = gain_compare_at(pp, b.location, inst.k0)
                via_delta = delta_sign_shortcut(inst, b.location)
                assert via_gain is via_delta


_GAMMA_1 = (ClassLabel.GAMMA_11, ClassLabel.GAMMA_121, ClassLabel.GAMMA_122)
_GAMMA_2 = (ClassLabel.GAMMA_211, ClassLabel.GAMMA_22, ClassLabel.GAMMA_231)


@pytest.fixture(scope="module")
def labelled_instances():
    """The fixtures and 150 seeded positive-only cases, with their classes."""
    config = FuzzConfig(seed=3, cases=150, degree_range=(4, 10), coeff_bound=12,
                        strategy=Strategy.POSITIVE_ONLY)
    polys = [P(text) for text in FIXTURES.values()]
    polys += [random_polynomial(config, i) for i in range(config.cases)]
    instances = [build(p) for p in polys]
    return [(inst, classify(inst)[0]) for inst in instances]


@pytest.fixture(scope="module")
def gamma1_instances(labelled_instances):
    return [inst for inst, label in labelled_instances if label in _GAMMA_1]


@pytest.fixture(scope="module")
def gamma2_instances(labelled_instances):
    return [inst for inst, label in labelled_instances if label in _GAMMA_2]


def _ref_breakaway(p):
    """B = 2*p*p''^2 - p'^2*p'' - p*p'*p''' of a Fraction list p."""
    p1 = ref_derivative(p)
    p2 = ref_derivative(p1)
    return ref_sum((2, ref_mul(p, ref_mul(p2, p2))), (-1, ref_mul(ref_mul(p1, p1), p2)),
                   (-1, ref_mul(ref_mul(p, p1), ref_derivative(p2))))


def _breakaway_polynomial(inst):
    """B of an instance, from its definition on Fraction lists."""
    return from_coefficients(_ref_breakaway(inst.p.coeffs))


class TestPaperAlgebraOnGamma1:
    def test_corpus_not_vacuous(self, gamma1_instances):
        assert len(gamma1_instances) >= 100

    def test_breakaways_are_the_real_roots_of_b(self, gamma1_instances):
        # B = 2*p*p''^2 - p'^2*p'' - p*p'*p''' is pp's reduced critical polynomial.
        for inst in gamma1_instances:
            roots = isolate_real_roots(_breakaway_polynomial(inst))
            points = breakaway_points(oracle_pp(inst))
            assert len(points) == len(roots)
            for b, r in zip(points, roots):
                assert compare_roots(b.location, r) == 0
                assert b.standard == (r.multiplicity % 2 == 1)

    def test_square_of_repeated_part_leaves_the_real_roots_of_b(self, gamma1_instances):
        # g = gcd(p, p'): g^2 divides B, and g has no real zero when p has
        # none. classify divides out g^3, which leaves no factor of g here
        # but in (x^2 + 1)^2 (x^2 + 3): there H = (x + i)^2 (x^2 + 3) has
        # H'(i) = 0 (see the next test), and B/g^3 keeps x^2 + 1.
        repeated = [inst for inst in gamma1_instances if gcd(inst.p, inst.p1).degree >= 1]
        special = build(math.prod([P("1,0,1")] * 2, start=P("3,0,1")))
        crafted = [build(math.prod([P("1,0,1")] * 3, start=P("2,1,1"))),
                   build(math.prod([P("2,1,1")] * 4, start=ONE)), special]
        assert len(repeated) >= 3
        for inst in repeated + crafted:
            b = _breakaway_polynomial(inst)
            g = gcd(inst.p, inst.p1)
            full, reduced = isolate_real_roots(b), isolate_real_roots(div_exact(b, g * g))
            assert [r.multiplicity for r in full] == [r.multiplicity for r in reduced]
            assert all(compare_roots(x, y) == 0 for x, y in zip(full, reduced))
            assert gcd(div_exact(b, g * g * g), g) == (g if inst is special else P("1"))
            assert shapiro._reduced_breakaway_polynomial(inst) == div_exact(b, g * g * g)

    @given(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=4),
                              st.fractions(Fraction(1, 8), 4, max_denominator=8),
                              st.integers(1, 4)),
                    min_size=1, max_size=3, unique_by=lambda t: t[:2])
           .filter(lambda factors: any(m >= 2 for _, _, m in factors)),
           st.fractions(-9, 9, max_denominator=5).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_cube_of_repeated_part_divides_b(self, factors, scale):
        # p = c * prod w^m with w = (x - a)^2 + b non-real. Near a root r of
        # w, p = t^m (H + H't + ...) with H = p/(x - r)^m, and
        # B = -2m H^2 H' t^(3m-3) + ..., so w^(3m-3) divides B. With
        # k = p/w^m, H'(r) = 0 exactly when m k + w' k' vanishes at r, since
        # w'(r) = r - conj(r); only then does B/g^3 share w with g.
        ws = [(from_coefficients([a * a + b, -2 * a, 1]), m) for a, b, m in factors]
        p = math.prod((w for w, m in ws for _ in range(m)), start=from_coefficients([scale]))
        g = gcd(p, p.derivative())
        reduced = div_exact(_breakaway_polynomial(build(p)), g * g * g)
        for w, m in ws:
            if m >= 2:
                k = div_exact(p, math.prod([w] * m, start=ONE))
                critical = from_coefficients(
                    ref_sum((m, k.coeffs), (1, (w.derivative() * k.derivative()).coeffs)))
                assert (gcd(reduced, w).degree == 0) == (gcd(w, critical).degree == 0)

    def test_no_exact_gcd_at_high_degree(self, monkeypatch):
        # With B/g^2, the witness of B kept w^(m-1) of every repeated factor
        # w^m of p, which delta shares, so the coprimality certificate failed
        # and sign_at_root took an exact gcd: 11 calls on this corpus. The
        # one exact remainder sequence left is that of g = gcd(p, p') itself,
        # where the certificate cannot prove p squarefree.
        config = FuzzConfig(seed=11, cases=24, degree_range=(22, 32), coeff_bound=12,
                            strategy=Strategy.POSITIVE_ONLY)
        polys = [random_polynomial(config, i) for i in range(config.cases)]
        assert sum(gcd(p, p.derivative()).degree >= 1 for p in polys) >= 10
        walks = recording_walks(monkeypatch)
        for p in polys:
            walks.clear()
            inst = build(p)
            classify(inst)
            assert walks in ([], [inst.p.prim]), format_polynomial(p)

    def test_certified_cases_run_no_remainder_sequence(self, gamma1_instances, monkeypatch):
        # When p is squarefree, build counts p and classify isolates p', p''
        # and B by continued fractions alone, and the coprimality
        # certificates decide g = 1 for B/g^3 and every order and sign: build
        # and classify make no remainder sequence.
        walks = recording_walks(monkeypatch)
        fixtures = [P(FIXTURES[label]) for label in _GAMMA_1[1:]]
        polys = fixtures + [inst.p for inst in gamma1_instances]
        certified = [p for p in polys if gcd(p, p.derivative()).degree == 0]
        assert fixtures == certified[:2] and len(certified) >= 100
        for p in certified:
            walks.clear()
            assert classify(build(p))[0] in _GAMMA_1
            assert walks == [], format_polynomial(p)

    def test_breakaway_polynomial_is_the_covariant_of_delta(self, gamma1_instances):
        # On the Gamma1 fixtures and seeded cases, nB = p'delta' - 2p''delta
        # holds on Fraction lists, and classify forms B from delta by it.
        for inst in gamma1_instances:
            p1, p2, delta = inst.p1.coeffs, inst.p2.coeffs, inst.delta.coeffs
            covariant = ref_sum((1, ref_mul(p1, ref_derivative(delta))), (-2, ref_mul(p2, delta)))
            assert covariant == tuple(inst.n * c for c in _ref_breakaway(inst.p.coeffs))
            assert shapiro._breakaway_polynomial(inst) == _breakaway_polynomial(inst)

    def test_delta_sign_equals_gain_comparison(self, gamma1_instances):
        # gain_compare_at never reads delta, so the two routes stay independent.
        for inst in gamma1_instances:
            pp = oracle_pp(inst)
            for b in breakaway_points(pp):
                via_gain = gain_compare_at(pp, b.location, inst.k0)
                assert delta_sign_shortcut(inst, b.location) is via_gain


class TestGainAtInfinity:
    """On the +1 locus of Gamma1, K - K0 = delta/((n-1)p''p) and K -> K0 at
    +-inf. Where delta > 0 at +inf, K falls to K0 from above after the last
    standard breakaway on the right, which is then a maximum with gain > K0:
    the label is Gamma122. The same holds on the left at -inf. This reads
    the sign of delta at the infinities, not at the maxima."""

    def test_positive_delta_at_an_infinity_puts_the_outermost_maximum_above_k0(
            self, gamma1_instances):
        config = FuzzConfig(seed=5, cases=1000, degree_range=(6, 10), coeff_bound=12,
                            strategy=Strategy.POSITIVE_ONLY)
        instances = [*gamma1_instances, build(P("67/72,-11/3,17/3,-32/9,1")),
                     *(build(random_polynomial(config, i)) for i in range(config.cases))]
        seen = 0
        for inst in instances:
            label, evidence = classify(inst)
            if label not in _GAMMA_1:
                continue
            lead = inst.delta.prim[-1]
            findings = {f.kind: f.breakaways for f in evidence.interval_findings}
            # The outermost maximum is the last on the right, the first on the left.
            for kind, sign, outermost in (
                    (IntervalKind.RIGHT_INFINITE, lead, -1),
                    (IntervalKind.LEFT_INFINITE_EVEN, lead * (-1) ** inst.delta.degree, 0)):
                if sign > 0:
                    seen += 1
                    assert label is ClassLabel.GAMMA_122
                    assert kind in findings
                    assert findings[kind][outermost].comparison is Comparison.GT
        assert seen >= 200

    def test_every_maximum_compared_by_the_sign_of_delta(self, gamma1_instances):
        # classify reads the outermost maximum of a side with an odd count of
        # standard breakaways as GT without a sign of delta. Every comparison
        # must equal that sign all the same. Sides with two maxima, the inner
        # one below K0, catch the rule applied to the innermost breakaway.
        inner_below = set()
        for inst in gamma1_instances:
            for finding in classify(inst)[1].interval_findings:
                for bf in finding.breakaways:
                    assert bf.comparison is \
                        Comparison.from_sign(sign_at_root(inst.delta, bf.location))
                if len(finding.breakaways) >= 2:
                    right = finding.kind is IntervalKind.RIGHT_INFINITE
                    inner = finding.breakaways[0 if right else -1]
                    if inner.comparison is Comparison.LT:
                        inner_below.add(finding.kind)
        assert inner_below == {IntervalKind.RIGHT_INFINITE, IntervalKind.LEFT_INFINITE_EVEN}


# The seeded corpus has no breakaway of even multiplicity in B and no
# rational breakaway, so these inputs are crafted to have them.
_CRAFTED = {
    "27,-54,54,-36,18,-6,1": ClassLabel.GAMMA_11,     # only breakaway: 0, double in B
    "4,-6,9,-4,3,0,1": ClassLabel.GAMMA_11,           # only breakaway: -1, double in B
    "4,-4,4,-4,5,-3,1": ClassLabel.GAMMA_121,         # a gain maximum at 0
    "400,-120,9,0,40,-6,0,0,1": ClassLabel.GAMMA_122,  # a gain maximum at 0
}


def _same_event(ours, theirs) -> bool:
    if ours is None or theirs is None:
        return ours is theirs
    return (compare_roots(ours.root, theirs.root) == 0 and ours.kind is theirs.kind
            and ours.multiplicity == theirs.multiplicity)


def _check_against_root_locus(inst):
    """The classifier reads p0, the zeros of p'' and the roots of B; the
    generic root-locus analysis of pp must find the same evidence."""
    label, evidence = classify(inst)
    pp = oracle_pp(inst)
    segments = axis_segments(pp)
    if label in _GAMMA_1:
        points = breakaway_points(pp)
        assert (label is ClassLabel.GAMMA_11) == (not any(b.standard for b in points))
        for kind, seg in ((IntervalKind.RIGHT_INFINITE, segments[-1]),
                          (IntervalKind.LEFT_INFINITE_EVEN, segments[0])):
            maxima = [b.location for b in points
                      if b.segment == seg and b.standard and b.extremum is Extremum.MAX]
            found = [f for f in evidence.interval_findings if f.kind is kind]
            if not maxima:
                assert not found
                continue
            (finding,) = found
            assert _same_event(finding.lo, seg.lo_event)
            assert _same_event(finding.hi, seg.hi_event)
            assert len(finding.breakaways) == len(maxima)
            for bf, location in zip(finding.breakaways, maxima):
                assert compare_roots(bf.location, location) == 0
                assert bf.comparison is gain_compare_at(pp, location, inst.k0)
    else:
        assert label in _GAMMA_2
        events = axis_events(pp)
        (pole,) = [i for i, e in enumerate(events) if e.kind is EventKind.POLE]
        # The pole's segment towards a zero of p'' on its right if there is
        # one, else on its left.
        zero_right = pole + 1 < len(events)
        assert (label is ClassLabel.GAMMA_22) == (not zero_right)
        seg = segments[pole + 1 if zero_right else pole]
        assert seg.parity is Parity.EVEN
        (finding,) = evidence.interval_findings
        assert finding.kind is IntervalKind.POLE_TO_ZERO
        assert _same_event(finding.lo, seg.lo_event)
        assert _same_event(finding.hi, seg.hi_event)


class TestClassifierAgainstRootLocus:
    def test_fixtures_and_crafted(self):
        for text in list(FIXTURES.values()) + list(_CRAFTED):
            inst = build(P(text))
            label = classify(inst)[0]
            assert label is _CRAFTED.get(text, label)
            if label in _GAMMA_1 + _GAMMA_2:
                _check_against_root_locus(inst)

    def test_seeded_gamma1(self, gamma1_instances):
        for inst in gamma1_instances:
            _check_against_root_locus(inst)

    def test_seeded_gamma2(self, gamma2_instances):
        assert len(gamma2_instances) >= 10
        for inst in gamma2_instances:
            _check_against_root_locus(inst)


class TestScalingCovariance:
    def test_classify_invariant_under_scaling(self):
        texts = list(FIXTURES.values()) + ["1,2,3,4,5,6,7", "3,-1,4,-1,5,-9,2"]
        for text in texts:
            p = P(text)
            base_label, _ = classify(build(p))
            base_pred = predict_verdict(base_label)
            try:
                base_actual = actual_verdict(build(p)).verdict
            except DeltaIdenticallyZeroError:
                base_actual = None
            for factor in (2, -3, Fraction(1, 5)):
                scaled = from_coefficients([factor * c for c in p.coeffs])
                label, _ = classify(build(scaled))
                assert label is base_label
                assert predict_verdict(label) is base_pred
                if base_actual is not None:
                    assert actual_verdict(build(scaled)).verdict is base_actual


class TestTheoremAgreement:
    def test_mini_fuzz(self):
        for config in [FuzzConfig(seed=101, cases=120, degree_range=(2, 8), coeff_bound=15),
                       FuzzConfig(seed=102, cases=80, degree_range=(4, 8),
                                  coeff_bound=10, strategy=Strategy.POSITIVE_ONLY)]:
            for i in range(config.cases):
                p = random_polynomial(config, i)
                inst = build(p)
                label, _ = classify(inst)
                try:
                    outcome = actual_verdict(inst)
                except DeltaIdenticallyZeroError:
                    continue
                assert predict_verdict(label) is outcome.verdict, \
                    f"disagreement on {format_polynomial(p)} ({label})"

    def test_positive_only_never_has_real_roots(self):
        config = FuzzConfig(seed=55, cases=50, degree_range=(4, 8),
                            coeff_bound=12, strategy=Strategy.POSITIVE_ONLY)
        for i in range(config.cases):
            assert sturm_count(random_polynomial(config, i)) == 0


# Under ``python -O`` an ``assert`` is stripped; an invariant must still fire.
_DROP_ONE_P2_ROOT = textwrap.dedent("""
    import sys
    from shapiro12 import shapiro
    from shapiro12.harness import FIXTURES
    from shapiro12.polycore import InvariantError, parse_polynomial

    if not sys.flags.optimize:
        sys.exit("not running under -O")
    inst = shapiro.build(parse_polynomial(FIXTURES[shapiro.ClassLabel.GAMMA_231]))
    isolate = shapiro.isolate_real_roots

    def drop_one_p2_root(p):
        roots = isolate(p)
        return roots[1:] if p == inst.p2 else roots

    shapiro.isolate_real_roots = drop_one_p2_root
    try:
        label, _ = shapiro.classify(inst)
    except InvariantError as exc:
        print("raised:", exc)
        sys.exit(0)
    sys.exit(f"classify returned {label} without raising")
""")


class TestInvariantsUnderOptimize:
    def test_odd_p2_count_raises_under_dash_O(self):
        src = str(Path(shapiro12.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-O", "-c", _DROP_ONE_P2_ROOT],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "odd count of p'' zeros" in result.stdout
