import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapiro12.polycore import (
    NEG_INFINITY,
    Polynomial,
    _int_rem_positive,
    div_exact,
    format_polynomial,
    from_coefficients,
    gcd,
    monic,
    parse_polynomial,
    parse_rational,
    sign_at,
)
from shapiro12.realroots import RootCount, isolate_real_roots, real_root_profile
from fraction_ref import ref_add, ref_derivative, ref_eval, ref_gcd, ref_mul, ref_sum, ref_trim
from sturm_helper import recording_walks

P = parse_polynomial


def squarefree_part(p):
    """Monic product of the distinct irreducible factors of p."""
    return div_exact(monic(p), gcd(p, p.derivative()))


def poly_strategy(max_degree=8, bound=20):
    return st.lists(st.integers(-bound, bound), min_size=1, max_size=max_degree + 1).map(from_coefficients)


def nonzero_poly(max_degree=8, bound=20):
    return poly_strategy(max_degree, bound).filter(lambda p: not p.is_zero)


class TestConstruction:
    def test_basic(self):
        p = from_coefficients([1, 0, 1])
        assert p.degree == 2
        assert p.coeffs == (1, 0, 1)

    def test_zero(self):
        z = from_coefficients([0])
        assert z.is_zero
        assert z.degree == NEG_INFINITY

    def test_rational_normalization(self):
        p = from_coefficients([4, 0, Fraction(-80, 5), 0, 16])
        assert p.coeffs == (4, 0, -16, 0, 16)
        assert p.degree == 4

    def test_trailing_zeros_stripped(self):
        assert from_coefficients([1, 2, 0, 0]).degree == 1

    def test_canonical_enforced(self):
        with pytest.raises(ValueError):
            Polynomial((Fraction(1), Fraction(0)))

    @pytest.mark.parametrize("prim, content", [
        ((2, 4), Fraction(1)), ((1,), Fraction(-1)), ((), Fraction(2))])
    def test_content_times_primitive_enforced(self, prim, content):
        with pytest.raises(ValueError):
            Polynomial(prim, content)

    def test_replace_rechecks(self):
        with pytest.raises(ValueError):
            Polynomial((2, 4))
        with pytest.raises(ValueError):
            Polynomial((1, 1))._replace(prim=(2, 4))

    def test_no_tuple_sum_repetition_or_order(self):
        p, q = P("1,1"), P("-1,1")
        for op, a, b in ((operator.add, p, q), (operator.mul, 2, p), (operator.lt, p, q)):
            with pytest.raises(TypeError):
                op(a, b)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("1,1") * P("-1,1") == P("-1,0,1")

    def test_derivative_power_rule(self):
        assert P("1,0,1").derivative() == P("0,2")
        assert P("1,0,0,0,1").derivative() == P("0,0,0,4")
        assert P("5").derivative().is_zero

    def test_eval(self):
        assert P("1,0,1").eval_at(0) == 1
        # delta = (p')^2 - 2 p p'' of x^2 + 1, formed on Fraction lists.
        delta = from_coefficients(ref_sum((1, (P("0,2") * P("0,2")).coeffs),
                                          (-2, (P("1,0,1") * P("2")).coeffs)))
        assert delta == P("-4")
        assert delta.eval_at(7) == -4
        assert P("32,0,-80,0,16").eval_at(1) == -32

    def test_sign_at(self):
        p = P("32,0,-80,0,16")
        assert sign_at(p, 1) == -1
        assert sign_at(p, 0) == 1
        assert sign_at(p, Fraction(10, 3)) == 1


class TestGcd:
    def test_shared_root(self):
        assert gcd(P("-1,0,1"), P("-1,1")) == P("-1,1")

    def test_coprime(self):
        assert gcd(P("1,0,1"), P("-1,0,1")).degree == 0

    def test_hand_euclid(self):
        # gcd(-48x^2, 16x^4 - 80x^2 + 32): the quartic has nonzero constant
        # term, so x does not divide it and the gcd is 1.
        assert gcd(from_coefficients([0, 0, -48]), P("32,0,-80,0,16")).degree == 0

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(from_coefficients([0]), from_coefficients([0]))

    def test_one_zero(self):
        assert gcd(from_coefficients([0]), P("0,0,4")) == P("0,0,1")


class TestDivExact:
    def test_exact(self):
        assert div_exact(P("-1,0,1"), P("1,1")) == P("-1,1")
        assert div_exact(P("1/2,0,1/2"), P("3,0,3")) == P("1/6")

    def test_inexact_step(self):
        with pytest.raises(ValueError):
            div_exact(P("1,1"), P("1,2"))

    def test_inexact_remainder(self):
        with pytest.raises(ValueError):
            div_exact(P("1,0,1"), P("1,1"))

    def test_divisor_of_higher_degree(self):
        with pytest.raises(ValueError):
            div_exact(P("1,1"), P("1,0,1"))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            div_exact(P("1,1"), from_coefficients([0]))


class TestSquarefree:
    def test_repeated_factor_removed(self):
        p = P("-1,1") * P("-1,1") * P("2,1")
        assert squarefree_part(p) == monic(P("-1,1") * P("2,1"))

    def test_already_squarefree(self):
        assert squarefree_part(P("1,0,1")) == P("1,0,1")

    def test_monomial(self):
        assert squarefree_part(P("0,0,0,4")) == P("0,1")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(from_coefficients([0]))

    def test_multiplicities_read_only_the_repeated_part_chain(self, monkeypatch):
        # p = (x-1)^3 (x+2) (x^2+1) (x^2-3)^2: the chain g0 = p,
        # g1 = (x-1)^2 (x^2-3), g2 = x-1 has three levels, and counting and
        # isolating with multiplicities each walk the Sturm sequence of
        # every level once and no other remainder sequence.
        p = math.prod([P("-1,1")] * 3 + [P("-3,0,1")] * 2, start=P("10,5") * P("1,0,1"))
        chain = [p.prim, (P("-1,1") * P("-1,1") * P("-3,0,1")).prim, P("-1,1").prim]
        walks = recording_walks(monkeypatch)
        assert real_root_profile(p)[0] == RootCount(4, 8)
        assert walks == chain
        walks.clear()
        assert [r.multiplicity for r in isolate_real_roots(p)] == [1, 2, 3, 2]
        assert walks == chain

    def test_every_rational_multiple_shares_one_profile(self):
        # The count and the repeated part depend on the roots alone, so p,
        # -p, (3/7)p and monic p have the same.
        p = P("1/2,-3/7,5/3,0,-2/9") * P("-1,3") * P("-1,3")
        multiples = [from_coefficients([c * x for x in p.coeffs])
                     for c in (1, -1, Fraction(3, 7))]
        multiples.append(monic(p))
        assert {real_root_profile(q) for q in multiples} == {(RootCount(3, 4), P("-1/3,1"))}


class TestTextFormat:
    def test_round_trip(self):
        for text in ["1,0,1", "1/3,-2,7/5", "-1,0,1", "0", "2,0,-2,0,1"]:
            assert format_polynomial(parse_polynomial(text)) == text

    def test_exact_strings(self):
        assert format_polynomial(P("1,0,1")) == "1,0,1"
        assert format_polynomial(from_coefficients([0])) == "0"
        assert format_polynomial(P("1/3,-2")) == "1/3,-2"

    def test_descending(self):
        assert parse_polynomial("1,2,3", descending=True) == P("3,2,1")

    def test_malformed(self):
        for bad in ["", "1,,2", "abc", "1/0", "1;2"]:
            with pytest.raises(ValueError):
                parse_polynomial(bad)

    @pytest.mark.parametrize("bad", ["1e5,0,1", "1_0,0,1", "1.5,0,1"])
    def test_only_integers_and_fractions(self, bad):
        # Fraction() itself accepts these; the documented format does not.
        with pytest.raises(ValueError):
            parse_polynomial(bad)

    def test_signs_and_spaces(self):
        assert parse_polynomial(" +1 , -2/3,4 ") == from_coefficients([1, Fraction(-2, 3), 4])

    def test_rational_token(self):
        # The one token parser of polynomial texts and plot ranges.
        assert parse_rational("+6/4") == Fraction(3, 2)
        for bad in ["-3/-4", "1/0", " 1"]:
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestRingProperties:
    @given(poly_strategy(6), poly_strategy(6))
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, p, q):
        assert (p * q).derivative().coeffs == ref_add((p.derivative() * q).coeffs,
                                                      (p * q.derivative()).coeffs)

    @given(poly_strategy(6), poly_strategy(6), st.fractions(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_eval_is_ring_homomorphism(self, p, q, x):
        assert (p * q).eval_at(x) == p.eval_at(x) * q.eval_at(x)
        assert from_coefficients(ref_add(p.coeffs, q.coeffs)).eval_at(x) \
            == p.eval_at(x) + q.eval_at(x)

    @given(nonzero_poly(6), nonzero_poly(6))
    @settings(max_examples=60, deadline=None)
    def test_degree_additive(self, p, q):
        assert (p * q).degree == p.degree + q.degree

    @given(nonzero_poly(5))
    @settings(max_examples=60, deadline=None)
    def test_gcd_with_irreducible_factor(self, q):
        # gcd(p*q, p) is an associate of p for irreducible p.
        for p in [P("1,0,1"), P("-2,0,1"), P("3,1")]:
            assert gcd(p * q, p) == monic(p)

    @given(nonzero_poly(5, 10), nonzero_poly(3, 10))
    @settings(max_examples=40, deadline=None)
    def test_squarefree_part_coprime_with_derivative(self, p, q):
        product = p * p * q
        sf = squarefree_part(product)
        if sf.degree >= 1:
            assert gcd(sf, sf.derivative()).degree == 0

    @given(nonzero_poly(6), nonzero_poly(6))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, p, q):
        g = gcd(p, q)
        assert div_exact(p, g) * g == p
        assert div_exact(q, g) * g == q

    @given(poly_strategy(7))
    @settings(max_examples=60, deadline=None)
    def test_text_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p)) == p


def _assert_canonical(p):
    if p.is_zero:
        assert p.prim == () and p.content == 1
        return
    assert all(isinstance(c, int) for c in p.prim)
    assert math.gcd(*p.prim) == 1
    assert p.content > 0
    assert p.prim[-1] != 0


def fraction_lists(max_len=7):
    return st.lists(st.fractions(-20, 20, max_denominator=12), max_size=max_len)


class TestKernelReference:
    @given(fraction_lists(), fraction_lists(), st.fractions(-5, 5, max_denominator=9))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b, c):
        p, q = from_coefficients(a), from_coefficients(b)
        a, b = ref_trim(a), ref_trim(b)
        cases = [
            (p, a),
            (p * q, ref_mul(a, b)),
            (p.derivative(), ref_derivative(a)),
        ]
        for got, want in cases:
            _assert_canonical(got)
            assert got.coeffs == want
        assert p.eval_at(c) == ref_eval(a, c)

    @given(fraction_lists(), fraction_lists())
    @settings(max_examples=150, deadline=None)
    def test_monic_and_exact_division(self, a, b):
        p, q = from_coefficients(a), from_coefficients(b)
        a, b = ref_trim(a), ref_trim(b)
        if a:
            m = monic(p)
            _assert_canonical(m)
            assert m.coeffs == tuple(x / a[-1] for x in a)
        if b:
            quo = div_exact(p * q, q)
            _assert_canonical(quo)
            assert quo.coeffs == a

    @given(fraction_lists(4).filter(any), fraction_lists(3).filter(any))
    @settings(max_examples=100, deadline=None)
    def test_repeated_part_is_euclid_gcd(self, a, b):
        # a * b^2 repeats every root of b, so gcd(p, p') is rarely 1.
        ref = ref_mul(ref_trim(a), ref_mul(ref_trim(b), ref_trim(b)))
        p = from_coefficients(ref)
        got = gcd(p, p.derivative())
        _assert_canonical(got)
        assert got.coeffs == ref_gcd(ref, ref_derivative(ref))


def _stepwise_rem_positive(a, b):
    """One leading term of a per step, each step scaled by |lc(b)|: the
    remainder loop that ``_int_rem_positive`` replaces for a one-degree drop."""
    r = list(a)
    db = len(b) - 1
    alb, slb = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0)
    while len(r) - 1 >= db and r:
        lr = slb * r[-1]
        k = len(r) - 1 - db
        r = [alb * c for c in r]
        for i, bc in enumerate(b):
            r[i + k] -= lr * bc
        del r[-1]
        while r and r[-1] == 0:
            r.pop()
    return r


_SPARSE_INTS = st.one_of(st.just(0), st.integers(-30, 30))


@st.composite
def one_degree_drop(draw):
    """(a, b) with deg a = deg b + 1 >= 1, nonzero leading coefficients of
    either sign and often zero coefficients below them."""
    db = draw(st.integers(0, 7))
    lead = st.integers(-30, 30).filter(bool)
    b = draw(st.lists(_SPARSE_INTS, min_size=db, max_size=db)) + [draw(lead)]
    a = draw(st.lists(_SPARSE_INTS, min_size=db + 1, max_size=db + 1)) + [draw(lead)]
    return a, b


class TestOnePassRemainder:
    @given(one_degree_drop())
    @example(([3, -5], [-7]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_stepwise_loop(self, case):
        # The one pass is lc(b)^2 a - (q1 x + q0) b. The loop takes the same
        # two steps, or stops after one when the x^deg(b) coefficient already
        # cancels, and then lacks the positive factor |lc(b)| of the second.
        a, b = case
        got, want = _int_rem_positive(a, b), _stepwise_rem_positive(a, b)
        assert got in (want, [abs(b[-1]) * c for c in want])
        assert len(got) < len(b)
