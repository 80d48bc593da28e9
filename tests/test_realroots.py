import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shapiro12
from shapiro12 import realroots
from shapiro12.polycore import (
    _PRIME,
    InvariantError,
    _sign_changes,
    _sturm_profile,
    from_coefficients,
    gcd,
    monic,
    parse_polynomial,
    proves_coprime,
    repeated_part,
    sign_at,
    squarefree_part,
)
from shapiro12.realroots import (
    RootCount,
    _bound_exponent,
    _taylor_shift,
    _unit_interval_count,
    bisect_once,
    compare_roots,
    isolate_real_roots,
    order_roots,
    rational_value,
    refine,
    root_count,
    separate_roots,
    sign_at_root,
    sturm_count,
)

P = parse_polynomial


def int_polys(max_degree=10, bound=20):
    return st.lists(st.integers(-bound, bound), min_size=2, max_size=max_degree + 1) \
        .map(from_coefficients).filter(lambda p: p.degree >= 1)


class TestSturmCount:
    def test_two_real_roots(self):
        assert sturm_count(P("-1,0,1")) == 2

    def test_no_real_roots(self):
        assert sturm_count(P("1,0,1")) == 0

    def test_quartic_four_roots(self):
        # 16x^4 - 80x^2 + 32 = 0 at x^2 = (80 +- sqrt(4352))/32, both positive.
        assert sturm_count(P("32,0,-80,0,16")) == 4

    def test_grid_oracle_agrees(self):
        # Independent check: count sign flips of the polynomial on a fine grid.
        for text in ["32,0,-80,0,16", "-1,0,1", "0,-4,0,4", "-6,1,7,-3,1"]:
            p = P(text)
            flips = 0
            prev = 0
            for k in range(-4000, 4001):
                s = sign_at(p, Fraction(k, 100))
                if s == 0:
                    continue
                if prev != 0 and s != prev:
                    flips += 1
                prev = s
            assert sturm_count(p) == flips

    def test_bounded_interval(self):
        assert sturm_count(P("-1,0,1"), 0, 2) == 1
        assert sturm_count(P("-1,0,1"), -2, 2) == 2
        assert sturm_count(P("-1,0,1"), 2, None) == 0

    def test_endpoint_root_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(P("-1,0,1"), 1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(from_coefficients([0]))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(P("1,0,1"), 2, 2)

    def test_constant(self):
        assert sturm_count(P("5")) == 0


class TestIsolation:
    def test_monomial_multiplicity(self):
        roots = isolate_real_roots(P("0,0,0,4"))
        assert len(roots) == 1
        assert roots[0].multiplicity == 3
        assert roots[0].interval.is_point and roots[0].interval.lo == 0

    def test_three_simple_roots(self):
        roots = isolate_real_roots(P("0,-4,0,4"))  # 4x(x-1)(x+1)
        assert [r.multiplicity for r in roots] == [1, 1, 1]
        mids = [r.interval.midpoint for r in roots]
        assert mids[0] < mids[1] < mids[2]

    def test_derivative_of_x2_plus_1(self):
        roots = isolate_real_roots(P("0,2"))
        assert len(roots) == 1
        assert roots[0].multiplicity == 1
        assert roots[0].interval.is_point and roots[0].interval.lo == 0

    def test_no_real_roots(self):
        assert isolate_real_roots(P("1,0,1")) == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(from_coefficients([0]))

    def test_repeated_irrational(self):
        p = P("-2,0,1") * P("-2,0,1") * P("0,1")  # (x^2-2)^2 * x
        roots = isolate_real_roots(p)
        assert [r.multiplicity for r in roots] == [2, 1, 2]
        # A root of odd multiplicity m >= 3 is a root of even multiplicity of
        # g1 = gcd(p, p'), where g1 does not change sign.
        p = math.prod([P("-2,0,1")] * 3 + [P("-3,0,1")] * 5 + [P("-5,0,1")] * 4)
        assert [r.multiplicity for r in isolate_real_roots(p)] == [4, 5, 3, 3, 5, 4]
        assert root_count(p) == RootCount(6, 24)


@st.composite
def bound_cases(draw):
    """c * prod (x - r) * prod ((x - a)^2 + b), b > 0, with every root known.

    Roots r = +-2^j test strictness: a bound read from bit lengths lands on
    such a root first.
    """
    dyadic = st.builds(lambda s, j: s * Fraction(2) ** j, st.sampled_from([1, -1]),
                       st.integers(-12, 12))
    reals = draw(st.lists(st.one_of(st.fractions(-50, 50, max_denominator=9), dyadic),
                          max_size=5))
    quads = draw(st.lists(st.tuples(st.fractions(-9, 9, max_denominator=4),
                                    st.fractions(Fraction(1, 64), 2 ** 12, max_denominator=64)),
                          max_size=3))
    p = from_coefficients([draw(st.fractions(-9, 9, max_denominator=5).filter(bool))])
    for r in reals:
        p = p * from_coefficients([-r, 1])
    for a, b in quads:
        p = p * from_coefficients([a * a + b, -2 * a, 1])
    assume(p.degree >= 1)
    # Squared moduli of all roots: r^2, and a^2 + b for a +- i sqrt(b).
    return p, [r * r for r in reals] + [a * a + b for a, b in quads]


class TestRootBound:
    @given(bound_cases())
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_strictly_above_every_root(self, case):
        p, squared_moduli = case
        bound = Fraction(2) ** _bound_exponent(p.prim)
        assert all(m < bound * bound for m in squared_moduli)

    def test_tight_when_coefficients_are_large(self):
        # (x - 1)(x + 1)(x^2 + 2^40): the largest modulus is 2^20, while the
        # Cauchy bound 1 + max |a_i / a_n| is about 2^40.
        p = P("-1,0,1") * from_coefficients([2 ** 40, 0, 1])
        assert _bound_exponent(p.prim) <= 22
        assert [r.multiplicity for r in isolate_real_roots(p)] == [1, 1]


class TestRefine:
    def test_width_contract(self):
        root = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        narrow = refine(root, Fraction(1, 100))
        assert narrow.interval.width <= Fraction(1, 100)
        assert narrow.interval.lo ** 2 < 2 < narrow.interval.hi ** 2

    def test_tight_enclosure(self):
        root = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        tight = refine(root, Fraction(1, 10000))
        assert Fraction(141, 100) < tight.interval.lo
        assert tight.interval.hi < Fraction(142, 100)

    def test_rational_point_stays(self):
        root = isolate_real_roots(P("0,2"))[0]
        assert refine(root, Fraction(1, 10 ** 9)).interval.is_point

    def test_already_narrow(self):
        root = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        same = refine(root, root.interval.width + 1)
        assert same.interval.width <= root.interval.width

    def test_nonpositive_width_rejected(self):
        # Bisecting an irrational root towards width 0 never ends, so run the
        # calls in a subprocess that a hang cannot stall.
        src = str(Path(shapiro12.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-c", _REFINE_TO_NONPOSITIVE_WIDTH],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["rejected", "rejected"]


    def test_rational_value(self):
        # (x^2 - 2)(6x - 5)(x - 3): 5/6 is rational but not dyadic, so no
        # bisection lands on it, and the lc of the witness is 6.
        p = P("-2,0,1") * P("-5,6") * P("-3,1")
        values = [rational_value(r) for r in isolate_real_roots(p)]
        assert values == [None, Fraction(5, 6), None, 3]
        assert rational_value(isolate_real_roots(P("0,2"))[0]) == 0


_REFINE_TO_NONPOSITIVE_WIDTH = textwrap.dedent("""
    from shapiro12.polycore import parse_polynomial
    from shapiro12.realroots import isolate_real_roots, refine

    root = isolate_real_roots(parse_polynomial("-2,0,1"))[0]
    for width in (0, -1):
        try:
            refine(root, width)
        except ValueError:
            print("rejected")
""")


class TestSignAtRoot:
    def test_constant(self):
        root = isolate_real_roots(P("-2,0,1"))[0]
        assert sign_at_root(P("-4"), root) == -1

    def test_same_root_detected(self):
        root = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        assert sign_at_root(P("-2,0,1"), root) == 0

    def test_rational_point(self):
        root = isolate_real_roots(P("0,2"))[0]
        assert sign_at_root(P("32,0,-80,0,16"), root) == 1

    def test_irrational_nonzero(self):
        sqrt2 = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        assert sign_at_root(P("-3,0,1"), sqrt2) == -1   # 2 < 3
        assert sign_at_root(P("-1,0,1"), sqrt2) == 1    # 2 > 1
        assert sign_at_root(P("0,1"), sqrt2) == 1

    def test_shared_factor(self):
        p = P("-2,0,1") * P("-5,1")
        sqrt2 = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        assert sign_at_root(p, sqrt2) == 0


class TestOrderAndCompare:
    def test_merge_two_sources(self):
        merged = order_roots(
            list(isolate_real_roots(P("0,2"))) + list(isolate_real_roots(P("-4,0,12"))))
        assert len(merged) == 3
        assert merged[1].primary.interval.is_point
        assert merged[1].primary.interval.lo == 0

    def test_single_list_sorted(self):
        roots = list(isolate_real_roots(P("0,-4,0,4")))
        random.Random(1).shuffle(roots)
        merged = order_roots(roots)
        mids = [m.primary.interval.midpoint for m in merged]
        assert mids == sorted(mids)

    def test_duplicate_rational(self):
        a = isolate_real_roots(P("0,2"))[0]
        b = isolate_real_roots(P("0,0,3"))[0]
        merged = order_roots([a, b])
        assert len(merged) == 1
        assert len(merged[0].members) == 2

    def test_equal_irrational_across_owners(self):
        a = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        b = [r for r in isolate_real_roots(P("-4,0,0,0,1")) if r.interval.hi > 0][0]
        assert compare_roots(a, b) == 0
        assert compare_roots(b, a) == 0

    def test_close_but_distinct(self):
        a = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        b = [r for r in isolate_real_roots(P("-20001,0,10000")) if r.interval.hi > 0][0]
        assert compare_roots(a, b) == -1

    @given(int_polys(4, 9), int_polys(4, 9), int_polys(3, 9))
    @settings(max_examples=80, deadline=None)
    def test_order_merges_exactly_the_common_roots(self, f, g, h):
        # Equality reads only the sign of the witnesses' common divisor at
        # the ends of the overlap; Sturm counts check it from outside.
        p, q = f * h, g * h
        merged = order_roots(list(isolate_real_roots(p)) + list(isolate_real_roots(q)))
        assert len(merged) == sturm_count(p * q)
        assert sum(len(m.members) == 2 for m in merged) == sturm_count(gcd(p, q))
        for m in merged:
            assert all(compare_roots(m.primary, r) == 0 for r in m.members)
        for left, right in zip(merged, merged[1:]):
            a, b = left.primary, right.primary
            for _ in range(200):
                if a.interval.hi < b.interval.lo:
                    break
                a, b = bisect_once(a), bisect_once(b)
            assert a.interval.hi < b.interval.lo

    def test_separate_roots(self):
        roots = [m.primary for m in order_roots(
            list(isolate_real_roots(P("-2,0,1"))) + list(isolate_real_roots(P("0,1"))))]
        separated = separate_roots(roots)
        for left, right in zip(separated, separated[1:]):
            assert left.interval.hi < right.interval.lo

    def test_separate_roots_out_of_order_rejected(self):
        # Refining roots given out of order never ends, so run the calls in a
        # subprocess that a hang cannot stall.
        src = str(Path(shapiro12.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-c", _SEPARATE_OUT_OF_ORDER],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["rejected"] * 3


    def test_separate_roots_equal_irrational_rejected(self):
        # One irrational root given twice: no refinement separates it from
        # itself, so the order check must catch it. Run in a subprocess that
        # a hang cannot stall.
        src = str(Path(shapiro12.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-c", _SEPARATE_EQUAL_IRRATIONAL],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["rejected"] * 2


_SEPARATE_EQUAL_IRRATIONAL = textwrap.dedent("""
    from shapiro12.polycore import parse_polynomial
    from shapiro12.realroots import isolate_real_roots, separate_roots

    sqrt2 = isolate_real_roots(parse_polynomial("-2,0,1"))[1]
    fourth_root_4 = isolate_real_roots(parse_polynomial("-4,0,0,0,1"))[1]
    for roots in ([sqrt2, sqrt2], [sqrt2, fourth_root_4]):
        try:
            separate_roots(roots)
        except ValueError:
            print("rejected")
""")


_SEPARATE_OUT_OF_ORDER = textwrap.dedent("""
    from shapiro12.polycore import parse_polynomial
    from shapiro12.realroots import isolate_real_roots, separate_roots

    minus_sqrt2, sqrt2 = isolate_real_roots(parse_polynomial("-2,0,1"))
    (zero,) = isolate_real_roots(parse_polynomial("0,1"))
    for roots in ([sqrt2, minus_sqrt2], [sqrt2, zero], [zero, zero]):
        try:
            separate_roots(roots)
        except ValueError:
            print("rejected")
""")


class TestRootCount:
    def test_examples(self):
        assert root_count(P("-1,0,1")) == root_count(P("-1,0,1"))
        rc = root_count(P("0,0,0,4"))
        assert rc.distinct == 1 and rc.with_multiplicity == 3

    def test_constant(self):
        rc = root_count(P("7"))
        assert rc.distinct == rc.with_multiplicity == 0

    def test_repeated_part_that_keeps_the_degree_raises(self, monkeypatch):
        # A kernel fault that fails to lower deg g must raise, not loop
        # forever; the stub gives up after a few calls if nothing stops it.
        calls = []

        def stuck(g):
            calls.append(g)
            if len(calls) > 5:
                raise RuntimeError("the degree check never fired")
            return g

        monkeypatch.setattr(realroots, "repeated_part", stuck)
        with pytest.raises(InvariantError):
            root_count(P("-1,0,1"))


@st.composite
def factored_polys(draw):
    """c * prod (x - r)^m * prod q^k, q = (x - a)^2 + b with b > 0 irreducible.

    Returns p, its distinct real roots r, their multiplicities m, and
    gcd(p, p') = prod (x - r)^(m - 1) * prod q^(k - 1), all known by construction.
    """
    roots = draw(st.lists(st.fractions(-5, 5, max_denominator=6), max_size=4, unique=True))
    mults = draw(st.lists(st.integers(1, 5), min_size=len(roots), max_size=len(roots)))
    quads = draw(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=4),
                                    st.fractions(Fraction(1, 8), 4, max_denominator=8)),
                          max_size=2, unique=True))
    powers = draw(st.lists(st.integers(1, 3), min_size=len(quads), max_size=len(quads)))
    p = from_coefficients([draw(st.fractions(-9, 9, max_denominator=5).filter(bool))])
    repeated = P("1")
    for r, m in zip(roots, mults):
        linear = from_coefficients([-r, 1])
        p = math.prod([linear] * m, start=p)
        repeated = math.prod([linear] * (m - 1), start=repeated)
    for (a, b), k in zip(quads, powers):
        quadratic = from_coefficients([a * a + b, -2 * a, 1])
        p = math.prod([quadratic] * k, start=p)
        repeated = math.prod([quadratic] * (k - 1), start=repeated)
    return p, roots, mults, repeated


class TestNonSquarefreeGroundTruth:
    """Counts on non-squarefree p read the Sturm sequence of p itself."""

    @given(factored_polys())
    @settings(max_examples=80, deadline=None)
    def test_counts_and_repeated_part(self, case):
        p, roots, mults, repeated = case
        assert sturm_count(p) == len(roots)
        assert root_count(p) == RootCount(len(roots), sum(mults))
        assert repeated_part(p) == repeated
        isolated = isolate_real_roots(p)
        assert [r.multiplicity for r in isolated] == [m for _, m in sorted(zip(roots, mults))]
        # Only a real multiple root makes isolation take the squarefree part.
        witness = monic(p) if set(mults) <= {1} else squarefree_part(p)
        assert all(r.witness == witness for r in isolated)

    @given(factored_polys(), st.fractions(-6, 6, max_denominator=7),
           st.fractions(-6, 6, max_denominator=7))
    @settings(max_examples=80, deadline=None)
    def test_bounded_count(self, case, lo, hi):
        p, roots, _, _ = case
        lo, hi = sorted((lo, hi))
        assume(lo < hi and lo not in roots and hi not in roots)
        assert sturm_count(p, lo, hi) == sum(1 for r in roots if lo < r < hi)

    @given(factored_polys(), st.fractions(-6, 6, max_denominator=7))
    @settings(max_examples=80, deadline=None)
    def test_one_open_end(self, case, x):
        # An open end stands for +-2^e from the root bound, which no root reaches.
        p, roots, _, _ = case
        assume(x not in roots)
        assert sturm_count(p, None, x) == sum(1 for r in roots if r < x)
        assert sturm_count(p, x, None) == sum(1 for r in roots if r > x)


class TestInvariants:
    @given(int_polys())
    @settings(max_examples=60, deadline=None)
    def test_count_matches_isolation(self, p):
        assert sturm_count(p) == len(isolate_real_roots(p))

    @given(int_polys())
    @settings(max_examples=60, deadline=None)
    def test_multiplicity_parity(self, p):
        rc = root_count(p)
        assert rc.with_multiplicity >= rc.distinct
        assert rc.with_multiplicity % 2 == int(p.degree) % 2

    @given(int_polys(8, 15))
    @settings(max_examples=40, deadline=None)
    def test_refined_intervals_bracket(self, p):
        for root in isolate_real_roots(p):
            tight = refine(root, Fraction(1, 10 ** 6))
            iv = tight.interval
            if iv.is_point:
                assert sign_at(root.witness, iv.lo) == 0
            else:
                assert sign_at(root.witness, iv.lo) * sign_at(root.witness, iv.hi) < 0

    def test_sign_at_root_agrees_with_midpoint(self):
        sqrt2 = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        for q in [P("-1,0,1"), P("-3,0,1"), P("5,1"), P("1,2,3")]:
            tight = refine(sqrt2, Fraction(1, 10 ** 12))
            assert sign_at_root(q, sqrt2) == sign_at(q, tight.interval.midpoint)


def _exact_sign(q, root):
    """Sign of q at the root by the exact gcd and Sturm counts alone."""
    iv = root.interval
    if iv.is_point:
        return sign_at(q, iv.lo)
    g = gcd(root.witness, q)
    if g.degree >= 1 and sign_at(g, iv.lo) * sign_at(g, iv.hi) < 0:
        return 0
    while True:
        s = sign_at(q, iv.lo)
        if s and s == sign_at(q, iv.hi) and sturm_count(q, iv.lo, iv.hi) == 0:
            return s
        root = bisect_once(root)
        iv = root.interval
        if iv.is_point:
            return sign_at(q, iv.lo)


class TestModularCertificatesAndDescartes:
    """The isolation kernel: the coprimality certificate, Descartes bisection."""

    @given(int_polys(4, 9), int_polys(4, 9), int_polys(3, 9))
    @settings(max_examples=80, deadline=None)
    def test_common_factor_never_certified_coprime(self, f, g, h):
        assert not proves_coprime(f * h, g * h)

    def test_certificates_prove_the_generic_case(self):
        assert proves_coprime(P("-2,0,1"), P("-3,0,1"))
        assert not proves_coprime(P("-2,0,1") * P("1,1"), P("1,1"))

    def test_coprimality_certificate_computed_once_per_pair(self, monkeypatch):
        # Classifying a Gamma122 polynomial compares B/g^2 with p' once per
        # standard breakaway and again while separating the roots.
        pairs = []

        def recording(p, q):
            pairs.append((p, q))
            return proves_coprime(p, q)

        monkeypatch.setattr(realroots, "proves_coprime", recording)
        proves_coprime.cache_clear()
        shapiro12.classify(shapiro12.build(P("6,-6,4,-3,1")))
        info = proves_coprime.cache_info()
        assert info.misses == len(set(pairs))
        assert info.hits == len(pairs) - len(set(pairs)) > 0

    @given(st.one_of(int_polys(8, 12), factored_polys().map(lambda case: case[0]),
                     st.tuples(int_polys(4, 9), int_polys(3, 9), st.integers(1, 3))
                     .map(lambda t: math.prod([t[1]] * t[2], start=t[0]))))
    @settings(max_examples=120, deadline=None)
    def test_intervals_isolate_every_root(self, p):
        roots = isolate_real_roots(p)
        assert len(roots) == sturm_count(p)
        for left, right in zip(roots, roots[1:]):
            assert left.interval.hi <= right.interval.lo
        for root in roots:
            iv, w = root.interval, root.witness
            if iv.is_point:
                assert sign_at(w, iv.lo) == 0
            else:
                assert sign_at(w, iv.lo) != 0 and sign_at(w, iv.hi) != 0
                assert sturm_count(w, iv.lo, iv.hi) == 1

    def test_fallback_when_not_squarefree_mod_the_prime(self):
        # x^2 - q is squarefree over Q but x^2 mod q. Isolation reads no
        # residue: the first bisection finishes on p itself, with no Sturm
        # walk, and p is the witness.
        p = from_coefficients([-_PRIME, 0, 1])
        _sturm_profile.cache_clear()
        minus, plus = isolate_real_roots(p)
        assert _sturm_profile.cache_info().misses == 0
        assert minus.witness == plus.witness == monic(p)
        assert minus.multiplicity == plus.multiplicity == 1
        assert 0 <= plus.interval.lo and plus.interval.lo ** 2 < _PRIME < plus.interval.hi ** 2
        assert minus.interval.hi <= 0 and minus.interval.hi ** 2 < _PRIME < minus.interval.lo ** 2

    @given(factored_polys(), int_polys(6, 9))
    @settings(max_examples=80, deadline=None)
    def test_sign_at_rational_roots(self, case, q):
        p, roots, _, _ = case
        for root, r in zip(isolate_real_roots(p), sorted(roots)):
            assert sign_at_root(q, root) == sign_at(q, r)

    @given(int_polys(5, 9), int_polys(4, 9), int_polys(3, 9))
    @settings(max_examples=80, deadline=None)
    def test_sign_where_q_shares_a_factor_with_the_witness(self, f, g, k):
        p, q = f * g, g * k
        for root in isolate_real_roots(p):
            assert sign_at_root(q, root) == _exact_sign(q, root)
            assert sign_at_root(f + k, root) == _exact_sign(f + k, root)


@st.composite
def roots_in_unit_interval(draw):
    """A random vector times up to 5 factors den x - num with 0 < num < den:
    with several roots in (0, 1), the full Taylor shift often shows three or
    more variations."""
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any))
    for _ in range(draw(st.integers(0, 5))):
        den = draw(st.integers(2, 12))
        num = draw(st.integers(1, den - 1))
        coeffs = [den * d - num * c for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class TestEarlyExitDescartes:
    @given(st.one_of(st.lists(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6)),
                              min_size=1, max_size=14),
                     roots_in_unit_interval()))
    @settings(max_examples=300, deadline=None)
    def test_capped_count_of_the_full_taylor_shift(self, coeffs):
        # 2 means two or more: the shift stops once the fixed coefficients
        # show two variations.
        full = _sign_changes(_taylor_shift(coeffs))
        assert _unit_interval_count(coeffs) == min(full, 2)


def _recording_isolation(monkeypatch):
    """Record each bisection run that isolate_real_roots starts, as (capped,
    how it ended, nodes counted)."""
    runs, nodes = [], []
    isolate, node_count = realroots._isolate, realroots._node_count

    def recording_isolate(f, capped):
        start = len(nodes)
        try:
            out = isolate(f, capped)
        except realroots._Inconclusive:
            runs.append((capped, "inconclusive", len(nodes) - start))
            raise
        runs.append((capped, "finished", len(nodes) - start))
        return out

    def recording_node_count(node):
        nodes.append(node)
        return node_count(node)

    monkeypatch.setattr(realroots, "_isolate", recording_isolate)
    monkeypatch.setattr(realroots, "_node_count", recording_node_count)
    return runs


class TestLazySquarefreeCertificate:
    @pytest.mark.parametrize("text", ["1,0,1", "1,0,0,0,1", "5,-2,1"])
    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_no_certificate_without_real_roots(self, monkeypatch, text, power):
        # Descartes count 0 on every node proves that there is no real root,
        # whatever the complex multiplicities.
        runs = _recording_isolation(monkeypatch)
        assert isolate_real_roots(math.prod([P(text)] * power, start=P("1"))) == ()
        assert [run[:2] for run in runs] == [(True, "finished")]

    def test_certified_roots_reuse_the_first_bisection(self, monkeypatch):
        runs = _recording_isolation(monkeypatch)
        p = P("-2,0,1") * P("-3,1")
        roots = isolate_real_roots(p)
        assert [run[:2] for run in runs] == [(True, "finished")]
        assert [r.multiplicity for r in roots] == [1, 1, 1]
        assert all(r.witness == p for r in roots)

    # (polynomial, how the first run ends, real roots, multiplicities)
    _FALLBACKS = [
        (P("0,0,1") * P("1,0,1"), "double root at 0", [0], [2]),
        (P("-1,2") * P("-1,2") * P("1,0,1"), "dyadic double root", [Fraction(1, 2)], [2]),
        (P("-2,0,1") * P("-2,0,1") * P("3,1"), "depth cap", [-3, None, None], [1, 2, 2]),
        # Two simple roots 2^-21.6 apart.
        (P("-1,3") * from_coefficients([-2 ** 20 - 1, 3 * 2 ** 20]), "depth cap, squarefree",
         [Fraction(1, 3), Fraction(1048577, 3145728)], [1, 1]),
        (P("1,0,1") * P("1,0,1") * P("-1,1"), "finished, non-real double factor", [1], [1]),
    ]

    @pytest.mark.parametrize("p, reason, values, mults", _FALLBACKS)
    def test_fallback_keeps_the_squarefree_part_as_witness(self, monkeypatch, p, reason,
                                                           values, mults):
        runs = _recording_isolation(monkeypatch)
        roots = isolate_real_roots(p)
        if reason.startswith("finished"):
            # A finished first run proves every real root simple: p is the witness.
            assert [run[:2] for run in runs] == [(True, "finished")]
            witness = monic(p)
        else:
            (capped, first, nodes), uncapped = runs
            assert capped and first == "inconclusive" and uncapped[:2] == (False, "finished")
            # Only the depth cap lets the first run bisect that deep.
            assert (nodes > realroots._DEPTH_CAP) == reason.startswith("depth cap")
            witness = squarefree_part(p)
        assert [r.multiplicity for r in roots] == mults
        assert [rational_value(r) for r in roots] == values
        for r in roots:
            assert r.witness == witness
            iv = r.interval
            if not iv.is_point:
                assert sturm_count(r.witness, iv.lo, iv.hi) == 1

    def test_depth_cap_bounds_the_first_run_on_a_multiple_root(self, monkeypatch):
        # (p')^2 for the Gamma121 fixture 11,-6,4,-3,1 has a double root that
        # is not dyadic, so the capped first run bisects down to the cap
        # before the squarefree part takes over: 53 Descartes nodes in all at
        # a cap of 32, 32 at the cap of 16.
        runs = _recording_isolation(monkeypatch)
        p1 = P("11,-6,4,-3,1").derivative()
        (root,) = isolate_real_roots(p1 * p1)
        assert [run[:2] for run in runs] == [(True, "inconclusive"), (False, "finished")]
        assert root.multiplicity == 2 and (root.interval.lo, root.interval.hi) == (0, 2)
        assert sum(run[2] for run in runs) < 40
