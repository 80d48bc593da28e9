import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shapiro12
from shapiro12 import polycore, realroots, shapiro
from shapiro12.harness import FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import (
    ONE,
    InvariantError,
    _bound_exponent,
    div_exact,
    from_coefficients,
    gcd,
    monic,
    parse_polynomial,
    sign_at,
)
from shapiro12.realroots import (
    IsolatingInterval,
    RootCount,
    _descartes_count,
    _taylor_shift,
    cf_root_count,
    compare_roots,
    isolate_real_roots,
    isolates,
    order_roots,
    rational_value,
    refine,
    sign_at_root,
)
from fraction_ref import ref_add, ref_descartes_count
from oracle_rootlocus import separate_roots
from sturm_helper import recording_walks, sturm_count, sturm_root_count

P = parse_polynomial


def _recording_kernel(monkeypatch):
    """Record the arguments of every call gcd makes to its certificate,
    _coprime, and to its exact remainder sequence, _exact_gcd."""
    calls = {"_coprime": [], "_exact_gcd": []}
    for name, log in calls.items():
        def recording(a, b, kernel=getattr(polycore, name), log=log):
            log.append((a, b))
            return kernel(a, b)

        monkeypatch.setattr(polycore, name, recording)
    return calls


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
        assert roots[0].interval.hi <= roots[1].interval.lo
        assert roots[1].interval.hi <= roots[2].interval.lo

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
        p = math.prod([P("-2,0,1")] * 3 + [P("-3,0,1")] * 5 + [P("-5,0,1")] * 4,
                      start=ONE)
        assert [r.multiplicity for r in isolate_real_roots(p)] == [4, 5, 3, 3, 5, 4]
        assert cf_root_count(p) == sturm_root_count(p) == RootCount(6, 24)


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
        # Level 7 cells are 1/128 wide: sqrt(2) lies in [181/128, 182/128].
        root = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        iv = refine(root, 7).interval
        assert Fraction(181, 128) <= iv.lo < iv.hi <= Fraction(182, 128)
        assert iv.lo ** 2 < 2 < iv.hi ** 2

    def test_tight_enclosure(self):
        root = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        tight = refine(root, 14)
        assert Fraction(141, 100) < tight.interval.lo
        assert tight.interval.hi < Fraction(142, 100)

    def test_rational_point_stays(self):
        root = isolate_real_roots(P("0,2"))[0]
        assert refine(root, 30).interval.is_point

    def test_already_narrow(self):
        # An interval inside one cell of the level is kept as it is.
        root = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        narrow = refine(root, 20)
        assert refine(narrow, 20) == narrow
        assert refine(narrow, 0) == narrow

    def test_dyadic_root_becomes_a_point(self):
        # Isolation keeps the root 3 of (x^2 - 2)(6x - 5)(x - 3) in (2, 16);
        # the grid search lands on it already at level 0.
        p = P("-2,0,1") * P("-5,6") * P("-3,1")
        root = isolate_real_roots(p)[-1]
        assert (root.interval.lo, root.interval.hi) == (2, 16)
        iv = refine(root, 0).interval
        assert iv.is_point and iv.lo == 3

    def test_negative_level_rejected(self):
        root = isolate_real_roots(P("-2,0,1"))[0]
        with pytest.raises(ValueError):
            refine(root, -1)

    def test_replace_rechecks_interval_order(self):
        with pytest.raises(ValueError):
            IsolatingInterval(Fraction(1), Fraction(2))._replace(lo=Fraction(3))


    def test_rational_value(self):
        # (x^2 - 2)(6x - 5)(x - 3): isolation meets neither 5/6 nor 3 and
        # keeps them in (0, 1) and (2, 16), and the lc of the witness is 6.
        p = P("-2,0,1") * P("-5,6") * P("-3,1")
        values = [rational_value(r) for r in isolate_real_roots(p)]
        assert values == [None, Fraction(5, 6), None, 3]
        assert rational_value(isolate_real_roots(P("0,2"))[0]) == 0


class TestRationalValueModularTest:
    """A small prime that leaves the witness without a root modulo it proves
    every root irrational before rational_value refines; with no prime to
    try, rational_value answers by the refinement alone."""

    SIX = P("-2,0,1") * P("-3,0,1") * P("-6,0,1")  # a root modulo every prime

    @staticmethod
    def values(p):
        return [rational_value(r) for r in isolate_real_roots(p)]

    def refined(self, p):
        with mock.patch.object(realroots, "_SMALL_PRIMES", ()):
            return self.values(p)

    @given(int_polys(4, 9), st.integers(-9, 9), st.integers(1, 9), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_plain_refinement(self, p, u, v, with_linear):
        p = p * P("-2,0,1")
        if with_linear:
            p = p * from_coefficients([-u, v])
        assert self.values(p) == self.refined(p)

    def test_the_primes_below_200(self):
        assert realroots._SMALL_PRIMES == tuple(
            q for q in range(2, 200) if all(q % d for d in range(2, q)))

    def test_a_root_modulo_every_prime_falls_through(self):
        assert self.values(self.SIX) == self.refined(self.SIX) == [None] * 6
        (w,) = {r.witness.prim for r in isolate_real_roots(self.SIX)}
        assert all(realroots._has_root_mod(w, q) for q in realroots._SMALL_PRIMES)

    def test_no_root_mod_three_skips_the_refinement(self):
        # x^2 - 2 has no root mod 3, so neither root is refined; with a
        # rational root beside it the refinement still runs and finds it.
        with mock.patch.object(realroots, "refine", side_effect=AssertionError("refined")):
            assert self.values(P("-2,0,1")) == [None, None]
        assert self.values(P("-2,0,1") * P("-5,6")) == [None, Fraction(5, 6), None]


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
        for left, right in zip(merged, merged[1:]):
            assert left.primary.interval.hi <= right.primary.interval.lo

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
            for k in range(200):
                if a.interval.hi < b.interval.lo:
                    break
                a, b = refine(a, k), refine(b, k)
            assert a.interval.hi < b.interval.lo

    def test_separate_roots(self):
        roots = [m.primary for m in order_roots(
            list(isolate_real_roots(P("-2,0,1"))) + list(isolate_real_roots(P("0,1"))))]
        separated = separate_roots(roots)
        for left, right in zip(separated, separated[1:]):
            assert left.interval.hi < right.interval.lo

    def test_separate_roots_out_of_order_rejected(self):
        minus_sqrt2, sqrt2 = isolate_real_roots(P("-2,0,1"))
        (zero,) = isolate_real_roots(P("0,1"))
        for roots in ([sqrt2, minus_sqrt2], [sqrt2, zero], [zero, zero]):
            with pytest.raises(ValueError):
                separate_roots(roots)

    def test_separate_roots_equal_irrational_rejected(self):
        # One irrational root given twice: no refinement separates it from
        # itself, so the order check must catch it.
        sqrt2 = isolate_real_roots(P("-2,0,1"))[1]
        fourth_root_4 = isolate_real_roots(P("-4,0,0,0,1"))[1]
        for roots in ([sqrt2, sqrt2], [sqrt2, fourth_root_4]):
            with pytest.raises(ValueError):
                separate_roots(roots)


def _mignotte(d, b):
    """x^d - 2(2^b x - 1)^2, with two roots about 2^(-b(d+2)/2) apart near 2^-b."""
    return from_coefficients([-2, 2 ** (b + 2), -2 ** (2 * b + 1)] + [0] * (d - 3) + [1])


class TestRefinementBound:
    """Every refinement loop raises past the root separation bound instead
    of refining forever, and on correct code ends before it."""

    def test_sign_at_a_root_of_q_missed(self, monkeypatch):
        # With the vanishing test broken, q = 3(x^2 - 2) never gets a
        # constant sign about sqrt(2).
        monkeypatch.setattr(realroots, "_vanishes_on", lambda q, iv: False)
        sqrt2 = isolate_real_roots(P("-2,0,1"))[1]
        with pytest.raises(InvariantError):
            sign_at_root(P("-6,0,3"), sqrt2)

    def test_equal_roots_of_two_witnesses_missed(self, monkeypatch):
        monkeypatch.setattr(realroots, "_vanishes_on", lambda q, iv: False)
        sqrt2 = isolate_real_roots(P("-2,0,1"))[1]
        also_sqrt2 = isolate_real_roots(P("-2,0,1") * P("1,0,1"))[1]
        with pytest.raises(InvariantError):
            compare_roots(sqrt2, also_sqrt2)

    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    @pytest.mark.parametrize("b", [10, 30, 60])
    def test_close_roots_end_inside_the_bound(self, d, b):
        w = _mignotte(d, b)
        roots = isolate_real_roots(w)
        others = isolate_real_roots(w * P("1,0,1"))
        assert [[compare_roots(r, s) for s in others] for r in roots] == \
            [[(i > j) - (i < j) for j in range(len(others))] for i in range(len(roots))]
        assert all(sign_at_root(w.derivative(), r) for r in roots)
        critical = isolate_real_roots(w.derivative())
        assert len(order_roots(roots + critical)) == len(roots) + len(critical)


class TestRootCount:
    def test_examples(self):
        assert cf_root_count(P("-1,0,1")) == RootCount(2, 2)
        rc = cf_root_count(P("0,0,0,4"))
        assert rc.distinct == 1 and rc.with_multiplicity == 3

    def test_constant(self):
        rc = cf_root_count(P("7"))
        assert rc.distinct == rc.with_multiplicity == 0

    def test_repeated_part_that_keeps_the_degree_raises(self, monkeypatch):
        # A kernel fault that fails to lower deg g must raise, not loop
        # forever; the stub, a gcd that returns g itself, gives up after a
        # few calls if nothing stops it. The double root 1 makes the first
        # run give up and fails the certificate, so the chain is taken.
        calls = []

        def stuck(g, derivative):
            calls.append(g)
            if len(calls) > 5:
                raise RuntimeError("the degree check never fired")
            return g

        monkeypatch.setattr(realroots, "gcd", stuck)
        with pytest.raises(InvariantError):
            cf_root_count(P("1,-2,1"))


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


def small_rational_roots():
    """Products of 2-6 factors d x - k, |k| <= 4, d in {1, 2, 3}, some of them
    times an irreducible quadratic. Continued fractions meet such roots at
    splits, next to a half with one sign variation."""
    linear = st.tuples(st.integers(-4, 4), st.integers(1, 3)) \
        .map(lambda t: from_coefficients([-t[0], t[1]]))
    quadratic = st.tuples(st.integers(-3, 3), st.integers(1, 6)) \
        .filter(lambda t: t[0] ** 2 < 4 * t[1]).map(lambda t: from_coefficients([t[1], t[0], 1]))
    return st.tuples(st.lists(linear, min_size=2, max_size=6), st.one_of(st.just(P("1")), quadratic)) \
        .map(lambda t: math.prod(t[0], start=t[1]))


class TestNonSquarefreeGroundTruth:
    """Counts on non-squarefree p, by the package and by Sturm sequences."""

    @given(factored_polys())
    @settings(max_examples=80, deadline=None)
    def test_counts_and_repeated_part(self, case):
        p, roots, mults, repeated = case
        assert sturm_count(p) == len(roots)
        assert cf_root_count(p) == sturm_root_count(p) == RootCount(len(roots), sum(mults))
        assert gcd(p, p.derivative()) == repeated
        isolated = isolate_real_roots(p)
        assert [r.multiplicity for r in isolated] == [m for _, m in sorted(zip(roots, mults))]
        # Only a real multiple root makes isolation take the squarefree part.
        witness = monic(p) if set(mults) <= {1} else div_exact(monic(p), repeated)
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
        rc = cf_root_count(p)
        assert rc.with_multiplicity >= rc.distinct
        assert rc.with_multiplicity % 2 == int(p.degree) % 2

    @given(int_polys(8, 15))
    @settings(max_examples=40, deadline=None)
    def test_refined_intervals_bracket(self, p):
        # At every level, a point where the witness vanishes, or an interval
        # inside one cell with opposite witness signs at its ends.
        for root in isolate_real_roots(p):
            for k in range(41):
                iv = refine(root, k).interval
                if iv.is_point:
                    assert sign_at(root.witness, iv.lo) == 0
                    assert (iv.lo * 2 ** k).denominator == 1 or iv == root.interval
                else:
                    m = math.floor(iv.lo * 2 ** k)
                    assert iv.hi * 2 ** k <= m + 1
                    assert sign_at(root.witness, iv.lo) * sign_at(root.witness, iv.hi) < 0

    def test_sign_at_root_agrees_with_midpoint(self):
        sqrt2 = [r for r in isolate_real_roots(P("-2,0,1")) if r.interval.hi > 0][0]
        for q in [P("-1,0,1"), P("-3,0,1"), P("5,1"), P("1,2,3")]:
            tight = refine(sqrt2, 40).interval
            assert sign_at_root(q, sqrt2) == sign_at(q, (tight.lo + tight.hi) / 2)


def _exact_sign(q, root):
    """Sign of q at the root by the exact gcd and Sturm counts alone."""
    iv = root.interval
    if iv.is_point:
        return sign_at(q, iv.lo)
    g = gcd(root.witness, q)
    if g.degree >= 1 and sign_at(g, iv.lo) * sign_at(g, iv.hi) < 0:
        return 0
    k = 0
    while True:
        s = sign_at(q, iv.lo)
        if s and s == sign_at(q, iv.hi) and sturm_count(q, iv.lo, iv.hi) == 0:
            return s
        root = refine(root, k)
        k += 1
        iv = root.interval
        if iv.is_point:
            return sign_at(q, iv.lo)


def _assert_interval_contract(p):
    """Sorted, disjoint intervals; a point is a root of its witness, any
    other interval holds exactly one (by a Sturm count) and has a nonzero
    witness at both ends; counts and multiplicities, and the counts of
    cf_root_count, agree with the Sturm counts of the repeated parts."""
    roots = isolate_real_roots(p)
    count = sturm_root_count(p)
    assert len(roots) == count.distinct, p
    assert sum(r.multiplicity for r in roots) == count.with_multiplicity, p
    assert cf_root_count(p) == count, p
    for left, right in zip(roots, roots[1:]):
        a, b = left.interval, right.interval
        assert a.hi < b.lo or (a.hi == b.lo and not (a.is_point and b.is_point)), p
    for root in roots:
        iv, w = root.interval, root.witness
        if iv.is_point:
            assert sign_at(w, iv.lo) == 0, p
        else:
            assert sign_at(w, iv.lo) != 0 and sign_at(w, iv.hi) != 0, (p, iv)
            assert sturm_count(w, iv.lo, iv.hi) == 1, (p, iv)


class TestModularCertificatesAndDescartes:
    """The isolation kernel: gcd and its coprimality certificate, continued
    fractions."""

    @given(int_polys(4, 9), int_polys(4, 9), int_polys(3, 9))
    @settings(max_examples=80, deadline=None)
    def test_common_factor_never_certified_coprime(self, f, g, h):
        common = gcd(f * h, g * h)
        assert common.degree >= h.degree
        assert div_exact(common, monic(h)) == gcd(f, g)

    def test_certificates_prove_the_generic_case(self, monkeypatch):
        walks = recording_walks(monkeypatch)
        assert gcd(P("-2,0,1"), P("-3,0,1")) == ONE
        assert walks == []
        assert gcd(P("-2,0,1") * P("1,1"), P("1,1")) == P("1,1")
        assert walks == [(P("-2,0,1") * P("1,1")).prim]

    def test_no_certificate_when_the_prime_divides_a_leading_coefficient(self, monkeypatch):
        # The common factor qx - 1, q = 2^30 - 35, has a root far inside 1
        # and a 30-bit leading coefficient, so |qX - 1| passes the bound
        # 2^(s-1) at X = 2^s + 1, at the first try and at the retry: gcd
        # takes the exact remainder sequence.
        common = P(f"-1,{2**30 - 35}")
        walks = recording_walks(monkeypatch)
        assert gcd(common * P("1,0,1"), common * P("-3,1")) == monic(common)
        assert walks == [(common * P("1,0,1")).prim]

    def test_equal_primitive_parts_need_no_certificate(self, monkeypatch):
        # gcd(p, c p) is monic(p) for every rational c > 0, read from the
        # equal primitive parts with no certificate and no walk.
        p = P("6,-6,4,-3,1")
        calls = _recording_kernel(monkeypatch)
        for a, b in ((p, p), (p, from_coefficients([Fraction(3, 7) * c for c in p.coeffs])),
                     (monic(p), p)):
            assert gcd(a, b) == monic(p)
        assert calls == {"_coprime": [], "_exact_gcd": []}

    def test_gamma122_classify_walks_no_remainder_sequence(self, monkeypatch):
        # Classifying a Gamma122 polynomial takes g = gcd(p, p') once and
        # compares the witness of B/g^3 with p' once per standard breakaway,
        # two of them: three certificates of two distinct pairs, each proving
        # coprimality, so no exact remainder sequence is walked.
        calls = _recording_kernel(monkeypatch)
        shapiro12.classify(shapiro12.build(P("6,-6,4,-3,1")))
        assert calls["_exact_gcd"] == []
        assert len(calls["_coprime"]) == 3 and len(set(calls["_coprime"])) == 2

    @given(st.one_of(int_polys(8, 12), factored_polys().map(lambda case: case[0]),
                     st.tuples(int_polys(4, 9), int_polys(3, 9), st.integers(1, 3))
                     .map(lambda t: math.prod([t[1]] * t[2], start=t[0])),
                     small_rational_roots()))
    @settings(max_examples=120, deadline=None)
    def test_intervals_isolate_every_root(self, p):
        _assert_interval_contract(p)

    def test_intervals_isolate_every_root_of_derived_polynomials(self):
        # p, p', p'', delta and B of seeded corpora, where small coefficients
        # give many rational roots and continued-fraction nodes that end at
        # one of them.
        polys = []
        for bound in (2, 3, 12):
            for strategy, degrees in ((Strategy.UNIFORM, (2, 12)),
                                      (Strategy.POSITIVE_ONLY, (4, 12))):
                config = FuzzConfig(seed=5, cases=40, degree_range=degrees, coeff_bound=bound,
                                    strategy=strategy)
                for i in range(config.cases):
                    inst = shapiro.build(random_polynomial(config, i))
                    polys += [inst.p, inst.p1, inst.p2, inst.delta,
                              shapiro._breakaway_polynomial(inst)]
        polys = [q for q in polys if q.degree >= 1]
        assert len(polys) >= 1000
        for q in polys:
            _assert_interval_contract(q)

    def test_fallback_when_not_squarefree_mod_the_prime(self, monkeypatch):
        # x^2 - q, q = 2^30 - 35, is squarefree over Q but x^2 mod q: no
        # step reads a residue. The first isolation finishes on p itself,
        # with no Sturm walk, p is the witness, and the integer certificate
        # proves gcd(p, p') = 1 without a remainder sequence.
        q = 2**30 - 35
        p = from_coefficients([-q, 0, 1])
        walks = recording_walks(monkeypatch)
        minus, plus = isolate_real_roots(p)
        assert gcd(p, p.derivative()) == ONE
        assert walks == []
        assert minus.witness == plus.witness == monic(p)
        assert minus.multiplicity == plus.multiplicity == 1
        assert 0 <= plus.interval.lo and plus.interval.lo ** 2 < q < plus.interval.hi ** 2
        assert minus.interval.hi <= 0 and minus.interval.hi ** 2 < q < minus.interval.lo ** 2

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
        f_plus_k = from_coefficients(ref_add(f.coeffs, k.coeffs))
        for root in isolate_real_roots(p):
            assert sign_at_root(q, root) == _exact_sign(q, root)
            assert sign_at_root(f_plus_k, root) == _exact_sign(f_plus_k, root)


def _binomial_shift(desc, c):
    """a(x + c) by the binomial theorem, in descending coefficients."""
    a = desc[::-1]
    return [sum(a[k] * math.comb(k, j) * c ** (k - j) for k in range(j, len(a)))
            for j in range(len(a))][::-1]


def _lane_shift(desc):
    """_taylor_shift(desc) and the lane width it read the result in: 8 bytes
    (one signed word), 16 (two), or None for synthetic division."""
    with mock.patch.object(realroots, "_read_lanes", wraps=realroots._read_lanes) as read:
        return _taylor_shift(desc), read.call_args.args[2] if read.called else None


#: The largest integers that one and two signed 64-bit words hold as a lane.
_ONE_WORD, _TWO_WORDS = (1 << 63) - 1, (1 << 126) - 1


class TestTaylorShift:
    # Isolation shifts by 1 and by powers of two, and _descartes_count's
    # wide path by the integer numerator of an interval's lower end, which
    # may be negative. Degrees 0-40 at widths up to 130 bits put every kind
    # of shift on all three sides of the lane bounds sum |a_i| (1 + |c|)^n
    # < 2^63 and < 2^126.
    @given(st.tuples(st.integers(0, 40), st.integers(0, 130)).flatmap(
               lambda nw: st.lists(st.integers(-(1 << nw[1]), 1 << nw[1]),
                                   min_size=nw[0] + 1, max_size=nw[0] + 1)),
           st.one_of(st.just(1), st.integers(1, 40).map(lambda s: 1 << s),
                     st.integers(-10 ** 6, 10 ** 6).filter(bool)))
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_the_binomial_expansion(self, desc, c):
        assert _taylor_shift(desc, c) == _binomial_shift(desc, c)

    @pytest.mark.parametrize("a, lanes", [(_ONE_WORD, 8), (-_ONE_WORD, 8),
                                          (_ONE_WORD + 1, 16), (-_ONE_WORD - 1, 16),
                                          (_TWO_WORDS, 16), (-_TWO_WORDS, 16),
                                          (_TWO_WORDS + 1, None), (-_TWO_WORDS - 1, None),
                                          (2 * _TWO_WORDS + 1, None)])
    def test_single_coefficient_at_the_lane_edge(self, a, lanes):
        assert _lane_shift([a]) == ([a], lanes)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_equal_coefficients_at_the_lane_bound(self, n):
        # sum |a_i| just under 2^(63 - n) takes one word and twice that two;
        # just under 2^(126 - n) takes two words and twice that none.
        for limit, below, above in ((63, 8, 16), (126, 16, None)):
            v = ((1 << limit - n) - 1) // (n + 1)
            for sign in (1, -1):
                for scale, lanes in ((1, below), (2, above)):
                    desc = [sign * scale * v] * (n + 1)
                    assert _lane_shift(desc) == (_binomial_shift(desc, 1), lanes)


def _counted(a, lo, hi):
    """_descartes_count(a, lo, hi) and the lane width of its Mobius pass: 8,
    16, or None when it took the two Taylor shifts."""
    with mock.patch.object(realroots, "_read_lanes", wraps=realroots._read_lanes) as read, \
            mock.patch.object(realroots, "_taylor_shift", wraps=realroots._taylor_shift) as shift:
        count = _descartes_count(a, lo, hi)
    return count, None if shift.called else read.call_args.args[2]


def _spread(total, n):
    """n + 1 coefficients of alternating sign whose absolute values sum to total."""
    q, r = divmod(total, n + 1)
    return [(-1) ** i * (q + (i < r)) for i in range(n + 1)]


@st.composite
def descartes_cases(draw):
    """Ascending integer coefficients and an interval (lo, hi): a leaf of the
    continued fractions (root-bound ends included), a dyadic cell of level
    0-40 about a root or anywhere, or two fractions of either sign. Degrees
    1-24 at widths of 0-100 bits put sum |a_i| max(|A| + |B|, C + E)^n on
    both sides of 2^63 and of 2^126."""
    n, width = draw(st.integers(1, 24)), draw(st.integers(0, 100))
    a = draw(st.lists(st.integers(-(1 << width), 1 << width), min_size=n + 1, max_size=n + 1)
             .filter(lambda a: a[-1]))
    kind = draw(st.sampled_from(("leaf", "cell", "ends")))
    if kind == "ends":
        lo, hi = sorted(draw(st.fractions(-(1 << 20), 1 << 20, max_denominator=1 << 20))
                        for _ in range(2))
    else:
        roots = isolate_real_roots(from_coefficients(a))
        k = draw(st.integers(0, 40))
        if roots:
            root = draw(st.sampled_from(roots))
            lo, hi = (refine(root, k) if kind == "cell" else root).interval
        else:
            m = draw(st.integers(-(1 << k + 3), 1 << k + 3))
            lo, hi = Fraction(m, 1 << k), Fraction(m + 1, 1 << k)
    assume(lo < hi)
    return a, lo, hi


class TestMobiusCount:
    # _descartes_count reads Q(x) = sum a_i (Ax + B)^i (Cx + E)^(n - i), for
    # hi = A/C and lo = B/E, in lanes of one or two words when its bound
    # allows, and the reference count takes the two Taylor shifts the
    # package took before; the counts must agree.
    @given(descartes_cases())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_two_shift_count(self, case):
        a, lo, hi = case
        assert _descartes_count(a, lo, hi) == ref_descartes_count(a, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(Fraction(0), Fraction(1, 1 << 10)),
                                        (Fraction(-3, 2), Fraction(5, 7)),
                                        (Fraction(-1 - (1 << 12)), Fraction(-1 << 12)),
                                        (Fraction(1, 3), Fraction(1, 2))])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
    def test_both_sides_of_each_lane_bound(self, lo, hi, n):
        # Coefficients whose absolute sum puts the bound just under 2^63 or
        # 2^126 take the narrower lanes, and one more the wider path. The
        # first interval's C + E, and the third's |A| + |B|, set the bound.
        m = max(abs(hi.numerator) + abs(lo.numerator), hi.denominator + lo.denominator) ** n
        for edge, below, above in ((_ONE_WORD, 8, 16), (_TWO_WORDS, 16, None)):
            total = edge // m
            if total > n:
                for t, lanes in ((total, below), (total + 1, above)):
                    a = _spread(t, n)
                    assert _counted(a, lo, hi) == (ref_descartes_count(a, lo, hi), lanes)


def squarefree_polys():
    """Squarefree parts of factored_polys and small_rational_roots."""
    return st.one_of(factored_polys().map(lambda case: case[0]), small_rational_roots()) \
        .map(lambda p: div_exact(monic(p), gcd(p, p.derivative())))


class TestIntervalDescartes:
    # Descartes' rule on (lo, hi) bounds the distinct real roots of a
    # squarefree p there, with their parity, and counts them exactly when it
    # reads 0 or 1.
    @given(squarefree_polys(), st.fractions(-6, 6, max_denominator=7),
           st.fractions(-6, 6, max_denominator=7))
    @settings(max_examples=300, deadline=None)
    def test_bounds_the_sturm_count(self, p, lo, hi):
        lo, hi = sorted((lo, hi))
        assume(lo < hi and sign_at(p, lo) and sign_at(p, hi))
        exact = sturm_count(p, lo, hi)
        count = _descartes_count(p.prim, lo, hi)
        assert count >= exact and (count - exact) % 2 == 0
        if count <= 1:
            assert count == exact
        if isolates(p, lo, hi):
            assert exact == 1


def _recording_isolation(monkeypatch):
    """Record each isolation run that isolate_real_roots starts, as (capped,
    how it ended, nodes counted): every node's sign variations are counted
    once."""
    runs, nodes = [], []
    isolate, sign_changes = realroots._isolate, realroots._sign_changes

    def recording_isolate(f, capped):
        start = len(nodes)
        try:
            out = isolate(f, capped)
        except realroots._Inconclusive:
            runs.append((capped, "inconclusive", len(nodes) - start))
            raise
        runs.append((capped, "finished", len(nodes) - start))
        return out

    def recording_sign_changes(node):
        nodes.append(node)
        return sign_changes(node)

    monkeypatch.setattr(realroots, "_isolate", recording_isolate)
    monkeypatch.setattr(realroots, "_sign_changes", recording_sign_changes)
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
        (P("-1,3") * P("-1,3") * P("1,0,1"), "rational double root", [Fraction(1, 3)], [2]),
        (P("-2,0,1") * P("-2,0,1") * P("3,1"), "step cap", [-3, None, None], [1, 2, 2]),
        # Two simple roots 2^-21.6 apart: 1/3 is met exactly at a split.
        (P("-1,3") * from_coefficients([-2 ** 20 - 1, 3 * 2 ** 20]), "finished, squarefree",
         [Fraction(1, 3), Fraction(1048577, 3145728)], [1, 1]),
        # Fibonacci ratios F(k+1)/F(k) for k = 26, 27: their continued
        # fractions agree in more terms than the step cap allows.
        (from_coefficients([-196418, 121393]) * from_coefficients([-317811, 196418]),
         "step cap, squarefree", [Fraction(317811, 196418), Fraction(196418, 121393)], [1, 1]),
        (P("1,0,1") * P("1,0,1") * P("-1,1"), "finished, non-real double factor", [1], [1]),
    ]

    def test_squarefree_give_up_walks_no_remainder_sequence(self, monkeypatch):
        # When the capped first run gives up on a p that the integer
        # certificate proves squarefree, an uncapped run on p itself
        # finishes: p is the witness and no Sturm sequence is walked. Here
        # the Fibonacci pair and the delta (degree 60, 978-bit coefficients)
        # of a positive-only degree-32 p at bound 2^32 - 1.
        config = FuzzConfig(seed=1, cases=1, degree_range=(32, 32), coeff_bound=2 ** 32 - 1,
                            strategy=Strategy.POSITIVE_ONLY)
        delta = shapiro.build(random_polynomial(config, 0)).delta
        runs = _recording_isolation(monkeypatch)
        walks = recording_walks(monkeypatch)
        for p, count in ((self._FALLBACKS[5][0], 2), (delta, 4)):
            runs.clear()
            roots = isolate_real_roots(p)
            assert [run[:2] for run in runs] == [(True, "inconclusive"), (False, "finished")]
            assert walks == []
            assert len(roots) == count
            assert all(r.witness == monic(p) and r.multiplicity == 1 for r in roots)

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
            # Only the step cap lets the first run go that deep.
            assert (nodes > realroots._STEP_CAP) == reason.startswith("step cap")
            witness = div_exact(monic(p), gcd(p, p.derivative()))
        assert [r.multiplicity for r in roots] == mults
        assert [rational_value(r) for r in roots] == values
        assert cf_root_count(p) == RootCount(len(mults), sum(mults))
        for r in roots:
            assert r.witness == witness
            iv = r.interval
            if not iv.is_point:
                assert sturm_count(r.witness, iv.lo, iv.hi) == 1

    def test_depth_cap_bounds_the_first_run_on_a_multiple_root(self, monkeypatch):
        # (p')^2 for the Gamma121 fixture 11,-6,4,-3,1 has an irrational
        # double root, so the capped first run splits down to the cap before
        # the squarefree part takes over: 38 nodes in all at the step cap of
        # 22, 40 at a cap of 24.
        runs = _recording_isolation(monkeypatch)
        p1 = P("11,-6,4,-3,1").derivative()
        (root,) = isolate_real_roots(p1 * p1)
        assert [run[:2] for run in runs] == [(True, "inconclusive"), (False, "finished")]
        assert root.multiplicity == 2 and (root.interval.lo, root.interval.hi) == (1, 8)
        assert sum(run[2] for run in runs) < 40
