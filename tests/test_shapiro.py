import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapiro12

from shapiro12 import polycore, realroots, rootlocus, shapiro
from shapiro12.harness import FIXTURES, FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import (
    _sturm_profile,
    div_exact,
    format_polynomial,
    from_coefficients,
    gcd,
    monic,
    parse_polynomial,
    repeated_part,
)
from shapiro12.realroots import compare_roots, isolate_real_roots, sturm_count
from shapiro12.rootlocus import (
    Comparison,
    EventKind,
    Extremum,
    Parity,
    axis_events,
    axis_segments,
    breakaway_points,
    gain_compare_at,
    normalize,
)
from shapiro12.shapiro import (
    ActualVerdict,
    ClassLabel,
    DeltaIdenticallyZeroError,
    IntervalKind,
    Verdict,
    actual_verdict,
    build,
    classify,
    delta_sign_shortcut,
    predict_verdict,
)

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
        assert inst.pp.numerator == P("1,0,1")
        assert inst.pp.denominator == P("0,0,2")

    def test_x4_plus_1(self):
        inst = build(P("1,0,0,0,1"))
        assert inst.delta == from_coefficients([0, 0, -48])
        assert inst.k0 == Fraction(4, 3)

    def test_quartic(self):
        inst = build(P("2,0,-2,0,1"))
        assert inst.delta == P("32,0,-80,0,16")

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
            assert inst.delta.prim[2 * inst.n - 2:] == ()
            assert inst.delta.degree < 2 * inst.n - 2

    def test_gain_limit_is_k0(self):
        rng = random.Random(4)
        for _ in range(20):
            deg = rng.choice([2, 4, 6])
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -2, 5])]
            inst = build(from_coefficients(coeffs))
            num = inst.p1 * inst.p1
            den = inst.p2 * inst.p
            assert num.leading_coefficient() / den.leading_coefficient() == inst.k0

    def test_pp_built_only_on_first_use(self, monkeypatch):
        # Every binding of each probed function in the package counts its
        # calls, including names a module imported from another.
        calls = {}
        probed = (gcd, axis_events, axis_segments, breakaway_points, realroots.separate_roots)
        for f in probed:
            def counting(*args, _f=f, **kwargs):
                calls[_f] += 1
                return _f(*args, **kwargs)

            calls[f] = 0
            for module in (polycore, realroots, rootlocus, shapiro):
                for name, value in list(vars(module).items()):
                    if value is f:
                        monkeypatch.setattr(module, name, counting)
        # Lambda1 is decided by one Sturm count of p: deciding it runs no gcd,
        # so pp = p''p/(p')^2 is never normalized.
        inst = build(P(FIXTURES[ClassLabel.LAMBDA_1]))
        assert classify(inst)[0] is ClassLabel.LAMBDA_1
        assert actual_verdict(inst).verdict is Verdict.HOLDS
        assert calls[gcd] == 0
        assert "pp" not in vars(inst)
        # No class reads pp, runs the generic root-locus analysis of it or
        # refines its evidence intervals apart: the printer canonicalises them.
        never = probed[1:]
        for text in FIXTURES.values():
            inst = build(P(text))
            classify(inst)
            actual_verdict(inst)
            assert "pp" not in vars(inst), text
            assert [calls[f] for f in never] == [0] * len(never), text
            assert inst.pp == normalize(inst.p2 * inst.p, inst.p1 * inst.p1)


@st.composite
def factored_even_polys(draw):
    """A rational constant times powers of rational linear and non-real
    quadratic factors, one more factor making the degree even and >= 2."""
    fractions = st.fractions(-4, 4, max_denominator=7)
    p = from_coefficients([draw(fractions.filter(bool))])
    for _ in range(draw(st.integers(0, 3))):
        p *= math.prod([from_coefficients([-draw(fractions), draw(st.integers(1, 3))])]
                       * draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(fractions), draw(st.fractions(Fraction(1, 5), 3, max_denominator=5))
        p *= math.prod([from_coefficients([a * a + b, -2 * a, 1])] * draw(st.integers(1, 2)))
    if p.degree < 2:
        p *= from_coefficients([1, draw(fractions), 1])
    if p.degree % 2:
        p *= from_coefficients([draw(fractions), draw(fractions.filter(bool))])
    return p


class TestIntegerDerivation:
    """build and B form their integer vectors from p.prim; the Polynomial
    arithmetic they replace is kept here as the reference."""

    @staticmethod
    def reference(p):
        n = int(p.degree)
        p1 = p.derivative()
        p2 = p1.derivative()
        p1_squared = p1 * p1
        delta = p1_squared.scale(n - 1) - (p * p2).scale(n)
        bracket = p1_squared.scale(n - 2) - delta.scale(2)
        b = p2 * bracket.scale(Fraction(1, n)) - p * p1 * p2.derivative()
        return p1, p2, p1_squared, delta, Fraction(n, n - 1), b

    @given(factored_even_polys())
    @settings(max_examples=200, deadline=None)
    def test_fields_and_breakaway_match_polynomial_arithmetic(self, p):
        inst = build(p)
        got = (inst.p1, inst.p2, inst.p1_squared, inst.delta, inst.k0,
               shapiro._breakaway_polynomial(inst))
        assert got == self.reference(p)
        assert inst.p == p and inst.n == p.degree

    def test_corpus_and_rational_inputs(self):
        inputs = [P(text) for text in FIXTURES.values()]
        inputs += [P("1/2,-3/7,5/3,0,2/9"), P("-3,1,27,1,30"), P("3/7,-6/7,3/7")]
        for strategy in (Strategy.UNIFORM, Strategy.POSITIVE_ONLY):
            config = FuzzConfig(seed=23, cases=100, degree_range=(2, 16), coeff_bound=12,
                                strategy=strategy)
            inputs += [random_polynomial(config, i) for i in range(config.cases)]
        for p in inputs:
            inst = build(p)
            got = (inst.p1, inst.p2, inst.p1_squared, inst.delta, inst.k0,
                   shapiro._breakaway_polynomial(inst))
            assert got == self.reference(p), format_polynomial(p)


class TestClassifyFixtures:
    def test_lambda_1(self):
        assert classify(build(P("-1,0,1")))[0] is ClassLabel.LAMBDA_1

    def test_gamma_11(self):
        assert classify(build(P("1,0,1")))[0] is ClassLabel.GAMMA_11

    def test_gamma_11_squared(self):
        p = P("1,0,1") * P("1,0,1")
        inst = build(p)
        assert inst.delta == (P("1,0,1") * P("1,0,1")).scale(-16)
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
            for b in breakaway_points(inst.pp):
                if b.segment.parity is not Parity.EVEN:
                    continue
                via_gain = gain_compare_at(inst.pp, b.location, inst.k0)
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


def _breakaway_polynomial(inst):
    p, p1, p2 = inst.p, inst.p1, inst.p2
    return (p * p2 * p2).scale(2) - p1 * p1 * p2 - p * p1 * p2.derivative()


class TestPaperAlgebraOnGamma1:
    def test_corpus_not_vacuous(self, gamma1_instances):
        assert len(gamma1_instances) >= 100

    def test_breakaways_are_the_real_roots_of_b(self, gamma1_instances):
        # B = 2*p*p''^2 - p'^2*p'' - p*p'*p''' is pp's reduced critical polynomial.
        for inst in gamma1_instances:
            roots = isolate_real_roots(_breakaway_polynomial(inst))
            points = breakaway_points(inst.pp)
            assert len(points) == len(roots)
            for b, r in zip(points, roots):
                assert compare_roots(b.location, r) == 0
                assert b.standard == (r.multiplicity % 2 == 1)

    def test_square_of_repeated_part_leaves_the_real_roots_of_b(self, gamma1_instances):
        # classify isolates B/g^2, g = gcd(p, p'): g^2 divides B, and g has no
        # real zero when p has none.
        repeated = [inst for inst in gamma1_instances if repeated_part(inst.p).degree >= 1]
        crafted = [build(math.prod([P("1,0,1")] * 3, start=P("2,1,1"))),
                   build(math.prod([P("2,1,1")] * 4))]
        assert len(repeated) >= 3
        for inst in repeated + crafted:
            b = _breakaway_polynomial(inst)
            g = repeated_part(inst.p)
            full, reduced = isolate_real_roots(b), isolate_real_roots(div_exact(b, g * g))
            assert [r.multiplicity for r in full] == [r.multiplicity for r in reduced]
            assert all(compare_roots(x, y) == 0 for x, y in zip(full, reduced))

    def test_certified_cases_run_no_remainder_sequence_but_that_of_p(self, gamma1_instances,
                                                                     monkeypatch):
        # When p is squarefree, classify isolates p', p'' and B by Descartes
        # bisection alone and decides every order and sign with coprimality
        # certificates: the Sturm sequence of p, walked once for the profile
        # that the Lambda1 test reads, is the only remainder sequence it
        # builds.
        walks = []
        remainder_sequence = polycore._remainder_sequence

        def recording(a, b):
            walks.append(a)
            return remainder_sequence(a, b)

        monkeypatch.setattr(polycore, "_remainder_sequence", recording)
        fixtures = [P(FIXTURES[label]) for label in _GAMMA_1[1:]]
        polys = fixtures + [inst.p for inst in gamma1_instances]
        certified = [p for p in polys if repeated_part(p).degree == 0]
        assert fixtures == certified[:2] and len(certified) >= 100
        for p in certified:
            inst = build(p)
            gcd.cache_clear()
            _sturm_profile.cache_clear()
            walks.clear()
            assert classify(inst)[0] in _GAMMA_1
            assert _sturm_profile.cache_info().misses == 1
            assert gcd.cache_info().misses == 0
            assert walks == [monic(p).prim]

    def test_breakaway_polynomial_from_the_square_of_p1_and_delta(self, gamma1_instances):
        # On the Gamma1 fixtures and seeded cases, classify forms B as p''((n-2)p'^2 - 2 delta)/n - pp'p''' from the
        # (p')^2 that build keeps.
        for inst in gamma1_instances:
            assert inst.p1_squared == inst.p1 * inst.p1
            assert shapiro._breakaway_polynomial(inst) == _breakaway_polynomial(inst)

    def test_delta_sign_equals_gain_comparison(self, gamma1_instances):
        # gain_compare_at never reads delta, so the two routes stay independent.
        for inst in gamma1_instances:
            for b in breakaway_points(inst.pp):
                via_gain = gain_compare_at(inst.pp, b.location, inst.k0)
                assert delta_sign_shortcut(inst, b.location) is via_gain


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
    pp = inst.pp
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
                scaled = p.scale(factor)
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
                    f"disagreement on {p} ({label})"

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
