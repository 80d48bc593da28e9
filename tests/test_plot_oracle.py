"""The axis analysis of pp that plotdata reads, held against the oracle.

``shapiro`` reads the zeros and poles of pp = p''p/(p')^2 from the roots of
p, p' and p'', and its breakaways from the roots of B/g^3; the oracle
cancels pp with a gcd and runs the generic root-locus analysis. Both must
find the same events, with their kinds and multiplicities, and the same
breakaway locations. The inputs lean on
what the cancellation decides: real multiple roots of p, a multiple real
zero of p' (Lambda22) and multiple real zeros of p''.
"""

import math
import random
from fractions import Fraction

from shapiro12.harness import FuzzConfig, random_polynomial
from shapiro12.polycore import from_coefficients, gcd, parse_polynomial
from shapiro12.realroots import compare_roots
from shapiro12.shapiro import ClassLabel, build, classify, pp_breakaways, pp_events
from oracle_rootlocus import axis_events, breakaway_points, oracle_pp
from sturm_helper import sturm_count

P = parse_polynomial


def _has_real_multiple_root(p):
    return sturm_count(gcd(p, p.derivative())) > 0


def _integrate_twice(q, c1, c0):
    """The polynomial with second derivative q and value c0, slope c1 at 0."""
    coeffs = [Fraction(c0), Fraction(c1)]
    coeffs += [c / ((i + 1) * (i + 2)) for i, c in enumerate(q.coeffs)]
    return from_coefficients(coeffs)


def _inputs():
    polys = []
    for bound in (2, 3):
        config = FuzzConfig(seed=13, cases=100, degree_range=(2, 12), coeff_bound=bound)
        polys += [random_polynomial(config, i) for i in range(config.cases)]
    # Rational and irrational multiple roots times non-real factors.
    factors = [P("-1,3"), P("-3,10"), P("-1,1"), P("0,1"), P("-2,0,1"), P("-1,-1,1")]
    for i, f in enumerate(factors):
        for m in (2, 3, 4):
            p = math.prod([f] * m, start=P("1,0,1") if i % 2 else P("2,1,1"))
            polys.append(p * P("1,1") if p.degree % 2 else p)
    # Seeded products (ax - b)^m q with small integer coefficients.
    rng = random.Random(18)
    while len(polys) < 300:
        m = rng.randint(2, 4)
        linear = from_coefficients([rng.randint(-3, 3), rng.randint(1, 3)])
        degree = rng.randrange(m % 2, 9 - m, 2)
        q = from_coefficients([rng.randint(-2, 2) for _ in range(degree)] + [rng.choice([1, -2])])
        polys.append(math.prod([linear] * m, start=q))
    # Lambda22: p' has a single real zero, a multiple one.
    polys += [P("1,0,0,0,1"), P("3,-4,6,-4,1"), P("5,0,0,0,0,0,1"), P("1,0,0,0,1,0,0,0,1"),
              P("2,-12,54,-108,81")]
    # p'' with multiple real zeros: (x - 1)^2 (x^2 + 1), x^2 (x + 2)^2, (3x - 1)^3 (x + 1),
    # integrated twice with a few slopes and values.
    for q in (P("1,-2,2,-2,1"), P("0,0,4,4,1"), P("-1,8,-18,0,27")):
        for c1, c0 in ((0, 1), (1, 3), (-2, 5), (3, -1)):
            polys.append(_integrate_twice(q, c1, c0))
    return polys


INPUTS = _inputs()


def test_inputs_cover_the_cancelled_cases():
    assert len(INPUTS) >= 300
    assert sum(_has_real_multiple_root(p) for p in INPUTS) >= 100
    labels = [classify(build(p))[0] for p in INPUTS]
    assert labels.count(ClassLabel.LAMBDA_22) >= 5
    assert sum(_has_real_multiple_root(build(p).p2) for p in INPUTS) >= 12


def test_events_and_breakaways_match_the_oracle():
    for p in INPUTS:
        inst = build(p)
        rf = oracle_pp(inst)
        events = pp_events(inst)
        want = axis_events(rf)
        assert len(events) == len(want), p
        for ours, theirs in zip(events, want):
            assert compare_roots(ours.root, theirs.root) == 0, p
            assert (ours.kind, ours.multiplicity) == (theirs.kind, theirs.multiplicity), p
        breakaways = pp_breakaways(inst, events)
        want = breakaway_points(rf)
        assert len(breakaways) == len(want), p
        assert all(compare_roots(b, w.location) == 0 for b, w in zip(breakaways, want)), p
