import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import shapiro12

from shapiro12.harness import FIXTURES, FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import constant, from_coefficients, parse_polynomial
from shapiro12.realroots import sturm_count
from shapiro12.rootlocus import Comparison, Parity, breakaway_points, gain_vs_threshold
from shapiro12.shapiro import (
    ActualVerdict,
    ClassLabel,
    DeltaIdenticallyZeroError,
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
        assert inst.delta == constant(-4)
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
            assert inst.delta.coefficient(2 * inst.n - 2) == 0
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
                via_gain = gain_vs_threshold(inst.pp, b, inst.k0)
                via_delta = delta_sign_shortcut(inst, b.location)
                assert via_gain is via_delta


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
