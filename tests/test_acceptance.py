"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic; no criterion carries a floating-point
tolerance except the CSV decimal rendering (relative 1e-10, criterion 5 of
the CLI contract), which is checked in its own test.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from shapiro12.harness import (
    FIXTURES,
    FuzzConfig,
    Strategy,
    find_class_example,
    random_polynomial,
)
from shapiro12.polycore import from_coefficients, gcd, parse_polynomial, sign_at
from shapiro12.realroots import order_roots, sign_at_root
from shapiro12.shapiro import (
    ClassLabel,
    Comparison,
    DeltaIdenticallyZeroError,
    Verdict,
    actual_verdict,
    build,
    classify,
    delta_sign_shortcut,
    predict_verdict,
)
from oracle_rootlocus import (
    Extremum,
    InfiniteGainError,
    Parity,
    axis_events,
    axis_segments,
    breakaway_points,
    gain_at,
    gain_derivative_numerator,
    normalize,
    oracle_pp,
    separate_roots,
)

P = parse_polynomial
SRC = Path(__file__).resolve().parent.parent / "src"


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}", flush=True)


def _agreement_run(config: FuzzConfig) -> tuple[int, int, list]:
    checked = delta_zero = 0
    disagreements = []
    for i in range(config.cases):
        poly = random_polynomial(config, i)
        instance = build(poly)
        label, _ = classify(instance)
        predicted = predict_verdict(label)
        try:
            outcome = actual_verdict(instance)
        except DeltaIdenticallyZeroError:
            delta_zero += 1
            continue
        checked += 1
        if predicted is not outcome.verdict:
            disagreements.append((poly, label, predicted, outcome.verdict))
    return checked, delta_zero, disagreements


class TestCriterion1TheoremAgreement:
    def test_theorem_agreement_at_scale(self):
        start = time.monotonic()
        uniform = FuzzConfig(seed=7, cases=2000, degree_range=(2, 10), coeff_bound=20)
        checked_u, dz_u, bad_u = _agreement_run(uniform)
        positive = FuzzConfig(seed=11, cases=500, degree_range=(4, 8),
                              coeff_bound=12, strategy=Strategy.POSITIVE_ONLY)
        checked_p, dz_p, bad_p = _agreement_run(positive)
        elapsed = time.monotonic() - start
        bad = bad_u + bad_p
        total = checked_u + checked_p
        ok = not bad and checked_u + dz_u == 2000 and checked_p + dz_p == 500
        _report(1, ok, f"{total} verdicts agree (plus {dz_u + dz_p} delta==0 cases) "
                       f"in {elapsed:.0f}s")
        assert not bad, f"verdict disagreements: {bad[:3]}"
        assert elapsed < 300, "agreement run exceeded the five-minute budget"


class TestCriterion2Fixtures:
    CASES = [
        ("-1,0,1", ClassLabel.LAMBDA_1, Verdict.HOLDS),
        ("1,0,1", ClassLabel.GAMMA_11, Verdict.FAILS),
        ("1,0,2,0,1", ClassLabel.GAMMA_11, Verdict.FAILS),   # (x^2+1)^2
        ("1,0,0,0,1", ClassLabel.LAMBDA_22, Verdict.HOLDS),
        ("2,0,-2,0,1", ClassLabel.LAMBDA_21, Verdict.HOLDS),
    ]

    def test_fixture_classifications(self):
        for text, label, verdict in self.CASES:
            instance = build(P(text))
            got_label, _ = classify(instance)
            assert got_label is label, (text, got_label)
            assert predict_verdict(got_label) is verdict
            assert actual_verdict(instance).verdict is verdict

        assert build(P("1,0,1")).delta == from_coefficients([-4])
        sq = P("1,0,1") * P("1,0,1")
        assert build(sq).delta == P("-16,0,-32,0,-16")
        assert build(P("1,0,0,0,1")).delta == from_coefficients([0, 0, -48])
        assert actual_verdict(build(P("2,0,-2,0,1"))).nr_delta.distinct == 4
        _report(2, True, "five fixture classes, exact deltas and root counts")


class TestCriterion3PaperExamples:
    def test_reciprocal_quartic_and_cubic(self):
        quartic = normalize(P("1"), P("-1,0,0,0,1"))
        n1 = gain_derivative_numerator(quartic)
        assert n1 == from_coefficients([0, 0, 0, -4])
        points = breakaway_points(quartic)
        assert len(points) == 1
        assert points[0].location.multiplicity == 3
        assert points[0].standard and points[0].extremum is Extremum.MAX
        assert points[0].location.interval.is_point
        assert points[0].location.interval.lo == 0

        cubic = normalize(P("1"), P("-1,0,0,1"))
        n2 = gain_derivative_numerator(cubic)
        assert n2 == from_coefficients([0, 0, -3])
        points = breakaway_points(cubic)
        assert len(points) == 1
        assert points[0].location.multiplicity == 2
        assert not points[0].standard and points[0].extremum is Extremum.NONE
        assert points[0].location.interval.lo == 0
        _report(3, True, "breakaway structure of 1/(x^4-1) and 1/(x^3-1): "
                         "multiplicities 3 and 2, standard MAX vs non-standard")


def _structural_check(rf) -> None:
    segments = axis_segments(rf)
    # Parity-sign equivalence at three interior samples per segment.
    for seg in segments:
        lo = seg.lo_event.root.interval.hi if seg.lo_event else None
        hi = seg.hi_event.root.interval.lo if seg.hi_event else None
        for k in (1, 2, 3):
            if lo is None and hi is None:
                x = Fraction(k - 2)
            elif lo is None:
                x = hi - k
            elif hi is None:
                x = lo + k
            else:
                x = lo + (hi - lo) * k / 4
            sgn = rf.sign_of_value_at(x)
            if sgn == 0:
                continue
            assert (sgn > 0) == (seg.parity is Parity.EVEN)

    # Order all stops (events and critical points) and separate them, so that
    # everything below samples only in zones free of other stops.
    bps = breakaway_points(rf)
    stops = [(e.root, None) for e in axis_events(rf)] + [(b.location, b) for b in bps]
    groups = order_roots([root for root, _ in stops])
    by_id = {id(root): b for root, b in stops if b is not None}
    merged = separate_roots([g.primary for g in groups])
    breakaway_at = [next((by_id[id(m)] for m in g.members if id(m) in by_id), None)
                    for g in groups]

    # Strict gain monotonicity on 8-point grids between consecutive stops.
    gaps = []
    if merged:
        gaps.append((merged[0].interval.lo - 1, merged[0].interval.lo))
        for a, b in zip(merged, merged[1:]):
            if a.interval.hi < b.interval.lo:
                gaps.append((a.interval.hi, b.interval.lo))
        gaps.append((merged[-1].interval.hi, merged[-1].interval.hi + 1))
    for lo, hi in gaps:
        values = []
        for k in range(1, 9):
            try:
                values.append(gain_at(rf, lo + (hi - lo) * k / 9))
            except InfiniteGainError:
                pass
        assert all(a < b for a, b in zip(values, values[1:])) or \
            all(a > b for a, b in zip(values, values[1:]))

    # Standard breakaway <=> gain extremum, certified by rational evaluations
    # at points between the stop and its neighbours: the gain is monotone on
    # either side, so endpoint domination pins an interior extremum.
    for i, b in enumerate(breakaway_at):
        if b is None:
            continue
        iv = merged[i].interval
        left_bound = merged[i - 1].interval.hi if i > 0 else iv.lo - 1
        right_bound = merged[i + 1].interval.lo if i + 1 < len(merged) else iv.hi + 1
        out_l = (left_bound + iv.lo) / 2
        out_r = (iv.hi + right_bound) / 2
        if iv.is_point:
            inner_l = inner_r = gain_at(rf, iv.lo)
        else:
            inner_l, inner_r = gain_at(rf, iv.lo), gain_at(rf, iv.hi)
        k_left, k_right = gain_at(rf, out_l), gain_at(rf, out_r)
        if b.extremum is Extremum.MAX:
            assert inner_l > k_left and inner_r > k_right
        elif b.extremum is Extremum.MIN:
            assert inner_l < k_left and inner_r < k_right
        else:
            assert (k_left < inner_l) == (inner_r < k_right)  # monotone through
        assert b.standard == (b.location.multiplicity % 2 == 1)
        # Exclusion: never at a multiple zero or pole.
        for poly in (rf.numerator, rf.denominator):
            if poly.degree >= 2:
                locator = gcd(poly, poly.derivative())
                if locator.degree >= 1:
                    assert sign_at_root(locator, b.location) != 0


class TestCriterion4StructuralInvariants:
    def test_invariants_on_fixtures_and_fuzz(self):
        fixture_rfs = [
            normalize(P("1"), P("-1,0,0,0,1")),
            normalize(P("1"), P("-1,0,0,1")),
        ]
        for text in FIXTURES.values():
            fixture_rfs.append(oracle_pp(build(P(text))))
        for rf in fixture_rfs:
            _structural_check(rf)

        checked = 0
        config = FuzzConfig(seed=19, cases=200, degree_range=(2, 8), coeff_bound=12)
        for i in range(config.cases):
            poly = random_polynomial(config, i)
            instance = build(poly)
            # Exact identities on every case.
            assert instance.delta.prim[2 * instance.n - 2:] == ()
            num = instance.p1 * instance.p1
            den = instance.p2 * instance.p
            assert num.coeffs[-1] / den.coeffs[-1] == instance.k0
            _structural_check(oracle_pp(instance))
            base_label, _ = classify(instance)
            for factor in (2, -3, Fraction(1, 5)):
                scaled = from_coefficients([factor * c for c in poly.coeffs])
                label, _ = classify(build(scaled))
                assert label is base_label
            checked += 1
        assert checked == 200
        _report(4, True, "parity/monotonicity/extremum/exclusion + delta top "
                         "coefficient + leading ratio + scaling, 200 cases")


class TestCriterion5ShortcutIdentity:
    def test_sign_identity_on_even_segments(self):
        points_checked = 0
        for text in FIXTURES.values():
            instance = build(P(text))
            pp = oracle_pp(instance)
            for seg in axis_segments(pp):
                if seg.parity is not Parity.EVEN:
                    continue
                lo = seg.lo_event.root.interval.hi if seg.lo_event else None
                hi = seg.hi_event.root.interval.lo if seg.hi_event else None
                xs = []
                for k in range(1, 11):
                    if lo is None and hi is None:
                        xs.append(Fraction(k - 5))
                    elif lo is None:
                        xs.append(hi - k)
                    elif hi is None:
                        xs.append(lo + k)
                    else:
                        xs.append(lo + (hi - lo) * k / 11)
                for x in xs:
                    if pp.sign_of_value_at(x) <= 0:
                        continue  # collided with an event enclosure
                    want = sign_at(instance.delta, x)
                    got = delta_sign_shortcut(instance, x)
                    assert {1: Comparison.GT, 0: Comparison.EQ, -1: Comparison.LT}[want] is got
                    # Cross-check against the squared-gain comparison.
                    k_exact = gain_at(pp, x)
                    direct = (Comparison.GT if k_exact > instance.k0 else
                              Comparison.LT if k_exact < instance.k0 else Comparison.EQ)
                    assert direct is got
                    points_checked += 1
        assert points_checked >= 10 * len(FIXTURES)
        _report(5, True, f"sign(K - K0) == sign(delta) at {points_checked} "
                         "rational points on +1-locus segments")


class TestCriterion6Determinism:
    def test_fuzz_byte_identical(self):
        cmd = [sys.executable, "-m", "shapiro12", "fuzz", "--seed", "7", "--cases", "500"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout
        summary = json.loads(first.stdout)
        assert summary["total"] == 500
        assert summary["disagreements"] == []
        _report(6, True, "two runs of `fuzz --seed 7 --cases 500` are byte-identical")


class TestCriterion7ClassCoverage:
    SEARCH_BUDGET = 400

    def test_coverage_report(self):
        required = {ClassLabel.LAMBDA_1, ClassLabel.LAMBDA_21,
                    ClassLabel.LAMBDA_22, ClassLabel.GAMMA_11}
        config = FuzzConfig(seed=29, cases=0, degree_range=(4, 8), coeff_bound=10)
        statuses = {}
        for label in ClassLabel:
            poly = find_class_example(label, budget=self.SEARCH_BUDGET, config=config)
            if poly is None:
                statuses[label] = "NOT_FOUND"
            else:
                got, _ = classify(build(poly))
                assert got is label, "coverage example must classify to its label"
                statuses[label] = "found"
        assert all(statuses[label] == "found" for label in required)
        # Nine classes are populated; the four odd-count branches are empty
        # under multiplicity counting (even-degree p'' keeps even side counts).
        found = sorted(l.value for l, s in statuses.items() if s == "found")
        missing = sorted(l.value for l, s in statuses.items() if s == "NOT_FOUND")
        assert set(missing) <= {"Gamma2121", "Gamma2122", "Gamma2321", "Gamma2322"}
        _report(7, True, f"budget {self.SEARCH_BUDGET}/label: found {found}; "
                         f"NOT_FOUND {missing}")
