import math
import operator
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapiro12 import polycore, shapiro
from shapiro12.harness import FuzzConfig, Strategy, random_polynomial, run_fuzz
from shapiro12.polycore import (
    NEG_INFINITY,
    ONE,
    Polynomial,
    _bound_exponent,
    _coprime,
    _int_mul,
    _lane_bytes,
    _pack,
    _read_lanes,
    div_exact,
    format_polynomial,
    from_coefficients,
    gcd,
    monic,
    parse_polynomial,
    parse_rational,
    sign_at,
)
from shapiro12.realroots import RootCount, cf_root_count, isolate_real_roots
from fraction_ref import (
    ref_add, ref_derivative, ref_eval, ref_gcd, ref_mul, ref_parse_polynomial, ref_sum, ref_trim,
)
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
        for op, a, b in ((operator.add, p, q), (operator.mul, 2, p), (operator.mul, p, 2),
                         (operator.mul, p, (1, 2)), (operator.lt, p, q)):
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


def int_vectors(max_len=40, max_bits=200):
    """Integer vectors of 0 to max_len entries, all of one width of 0 to
    max_bits bits."""
    return st.tuples(st.integers(0, max_len), st.integers(0, max_bits)).flatmap(
        lambda lw: st.lists(st.integers(-(1 << lw[1]), 1 << lw[1]), min_size=lw[0], max_size=lw[0]))


_EDGE, _EDGE2 = (1 << 63) - 1, (1 << 126) - 1


class TestKroneckerProduct:
    # _int_mul reads every coefficient of the product from one integer, in
    # signed lanes whose width the bound |a|_1 |b|_1 sets. Widths of 0 to
    # 200 bits put the products in 8-byte lanes and in wider ones.
    @given(int_vectors(), int_vectors())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_schoolbook_product(self, a, b):
        got = _int_mul(a, b)
        assert len(got) == max(0, len(a) + len(b) - 1)
        assert ref_trim(got) == ref_mul(a, b)

    @pytest.mark.parametrize("a", [_EDGE, -_EDGE, -_EDGE - 1, _EDGE + 1])
    def test_single_coefficient_at_the_lane_edge(self, a):
        # +-(2^63 - 1) fill an 8-byte lane; -2^63 and 2^63 take a ninth byte.
        assert _int_mul([a], [1]) == _int_mul([1], [a]) == [a]
        assert _int_mul([0, a], [-1, 0]) == [0, -a, 0]
        assert _int_mul([a], [a]) == [a * a]

    def test_adjacent_lanes_either_side_of_the_edge(self):
        for lo, hi in ((_EDGE, _EDGE + 1), (_EDGE + 1, _EDGE), (-_EDGE - 1, _EDGE),
                       (_EDGE, -_EDGE - 1)):
            assert _int_mul([lo, hi], [1]) == [lo, hi]
            assert _int_mul([1, 1], [lo, hi]) == [lo, lo + hi, hi]
        # 2^62 - 1 plus 2^62: a lane that sums to exactly 2^63 - 1.
        assert _int_mul([1, 1], [(1 << 62) - 1, 1 << 62]) == [(1 << 62) - 1, _EDGE, 1 << 62]

    @pytest.mark.parametrize("a", [_EDGE2, -_EDGE2, _EDGE2 + 1, -_EDGE2 - 1, 2 * _EDGE2 + 1])
    def test_single_coefficient_at_the_two_word_edge(self, a):
        # +-(2^126 - 1) fill a two-word lane; 2^126 and past it take 17 bytes.
        assert _int_mul([a], [1]) == _int_mul([1], [a]) == [a]
        assert _int_mul([0, a], [-1, 0]) == [0, -a, 0]
        assert _int_mul([a], [a]) == [a * a]

    def test_adjacent_lanes_either_side_of_the_two_word_edge(self):
        # |lo| + |hi| = 2^126 - 1 reads two words a lane, and 2^126 17 bytes.
        half = 1 << 125
        for lo, hi in ((half, 1 - half), (1 - half, half), (half, -half), (-half, half)):
            assert _int_mul([lo, hi], [1]) == [lo, hi]
            assert _int_mul([-1], [lo, hi]) == [-lo, -hi]

    def test_two_word_lanes_keep_every_low_word(self):
        # c = (h << 64) + l with the low word l anywhere in [-2^63, 2^63) and
        # the high word h of either sign, in lanes of 16 bytes.
        values = [0, 1, -1, _EDGE, -_EDGE, _EDGE + 1, -_EDGE - 1, (1 << 64) - 1, 1 << 64,
                  -(1 << 64), (1 << 64) + _EDGE, -(1 << 64) - _EDGE - 1, _EDGE2, -_EDGE2,
                  _EDGE2 - _EDGE, -_EDGE2 + _EDGE + 1]
        assert [_lane_bytes(abs(v)) for v in (_EDGE, _EDGE + 1, _EDGE2, _EDGE2 + 1)] == [8, 16, 16, 17]
        assert _read_lanes(_pack(values, 128), len(values), 16) == values
        assert _read_lanes(_pack(values[::-1], 128), len(values), 16) == values[::-1]

    def test_empty_factor(self):
        assert _int_mul([1, 2, 3], []) == _int_mul([], [1, 2, 3]) == [0, 0]
        assert _int_mul([5], []) == _int_mul([], []) == []

    def test_reader_table_stays_fixed_on_a_wide_fuzz_run(self):
        before = len(polycore._LANES)
        summary = run_fuzz(FuzzConfig(seed=1, cases=20, degree_range=(14, 16),
                                      coeff_bound=(1 << 64) - 1, strategy=Strategy.UNIFORM))
        assert summary.disagreements == []
        assert len(polycore._LANES) == before


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


def wide_polys():
    """Nonzero integer polynomials of degree 0 to 40 with coefficients of 0
    to 2000 bits. The width is cut to 8000 / (degree + 1)^2 bits, since the
    Fraction reference gcd slows with both."""
    def vectors(dw):
        bound = 1 << min(dw[1], 8000 // (dw[0] + 1) ** 2)
        return st.lists(st.integers(-bound, bound), min_size=dw[0] + 1, max_size=dw[0] + 1)

    return st.tuples(st.integers(0, 40), st.integers(0, 2000)).flatmap(vectors) \
        .map(from_coefficients).filter(lambda p: not p.is_zero)


def root_near_bound(m, k):
    """(f, x - z) with z = 2^(k+1) - 3 and f(x)(x - z) = x^m - r x^(m-1) - ...
    - r^(m-1) x - c, r = 2^k - 1, c fixed by the root z. For m >= 2 and k in
    {m - 1, m} (checked up to m = 15), Fujiwara's exponent of the product is
    e = k + 1: the root z lies 3 below 2^e."""
    r, z = (1 << k) - 1, (1 << (k + 1)) - 3
    c = z ** m - sum(r ** i * z ** (m - i) for i in range(1, m))
    h = from_coefficients([-z, 1])
    return div_exact(from_coefficients([-c] + [-r ** i for i in range(m - 1, 0, -1)] + [1]), h), h


def factor_pairs():
    """(f, h) for a common factor h of degree >= 1: f from wide_polys and h
    narrow of degree 1 to 4 or 2^k x - c with k and c of up to 2000 bits, or
    root_near_bound's pair, whose product has a root just inside 2^e."""
    nonzero = st.integers(-(1 << 2000), 1 << 2000).filter(bool)
    common = st.one_of(
        st.lists(st.integers(-(1 << 64), 1 << 64), min_size=2, max_size=5)
        .map(from_coefficients).filter(lambda h: h.degree >= 1),
        st.tuples(st.integers(0, 2000), nonzero)
        .map(lambda kc: from_coefficients([-kc[1], 1 << kc[0]])),
    )
    return st.one_of(st.tuples(wide_polys(), common),
                     st.tuples(st.integers(2, 12), st.integers(0, 1))
                     .map(lambda mj: root_near_bound(mj[0], mj[0] - mj[1])))


def _certificate_tries(a, b, monkeypatch):
    """_coprime's answer on two polynomials, and the integer gcds it took."""
    tries = []
    recording = SimpleNamespace(gcd=lambda *v: tries.append(v) or math.gcd(*v))
    with monkeypatch.context() as m:
        m.setattr(polycore, "math", recording)
        return _coprime(a.prim, b.prim), len(tries)


class TestIntegerCertificate:
    """gcd's certificate: one integer gcd of the two values at X = 2^s + 1,
    s = e + 32, past Fujiwara's bound 2^e on every complex root, with one
    retry at a larger s."""

    @given(factor_pairs(), wide_polys(), st.fractions(min_value=Fraction(1, 10**9), max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_certified_pairs_are_coprime_and_gcd_is_euclid(self, fh, g, c):
        f, h = fh
        scaled = from_coefficients([c * x for x in (f * h).coeffs])
        for a, b in ((f * h, g * h), (f, g), (f * h, f * h), (f * h, scaled)):
            want = ref_gcd(a.coeffs, b.coeffs)
            if _coprime(a.prim, b.prim):
                assert len(want) == 1
            assert gcd(a, b).coeffs == want

    def test_power_of_two_inputs_walk_no_remainder_sequence(self, monkeypatch):
        # (2^27x - 1)(2^27x - 2)(x^30 + 1), one of CI's slowest classify
        # inputs: at X = 2^s the values of B and delta share 2^50, past the
        # bound, and only the retry would shed it. The values of x^4 + 2^200
        # and 4x^3 at X = 2^s share 2^200, above X^2/4, so there no retry
        # runs. The odd X = 2^s + 1 certifies every pair at the first try.
        linear = [from_coefficients([-c, 1 << 27]) for c in (1, 2)]
        inst = shapiro.build(linear[0] * linear[1] * from_coefficients([1] + [0] * 29 + [1]))
        quartic = from_coefficients([1 << 200, 0, 0, 0, 1])
        walks = recording_walks(monkeypatch)
        for a, b in ((inst.p, inst.p1), (shapiro._breakaway_polynomial(inst), inst.delta),
                     (quartic, quartic.derivative())):
            assert _certificate_tries(a, b, monkeypatch) == (True, 1)
            assert gcd(a, b) == ONE
        assert walks == []

    def test_shared_integers_take_the_retry(self, monkeypatch):
        # The delta (degree 60, 978-bit coefficients) of a positive-only
        # degree-32 p at bound 2^32 - 1: its values and those of delta' share
        # about 73 bits of small primes at s = e + 32, and the retry past
        # them proves delta squarefree.
        config = FuzzConfig(seed=1, cases=1, degree_range=(32, 32), coeff_bound=2 ** 32 - 1,
                            strategy=Strategy.POSITIVE_ONLY)
        delta = shapiro.build(random_polynomial(config, 0)).delta
        walks = recording_walks(monkeypatch)
        assert _certificate_tries(delta, delta.derivative(), monkeypatch) == (True, 2)
        assert gcd(delta, delta.derivative()) == ONE
        assert walks == []

    def test_roots_far_inside_one_clip_the_exponent(self, monkeypatch):
        # 2^2000 x - 1 has e = -1998; the certificate clips it at 0.
        p = from_coefficients([-1, 1 << 2000])
        assert _bound_exponent(p.prim) < 0
        walks = recording_walks(monkeypatch)
        assert gcd(p, P("1,0,1")) == ONE
        assert gcd(p, from_coefficients([1, 1 << 2000])) == ONE
        assert walks == []

    def test_root_just_inside_the_bound(self, monkeypatch):
        # x - 509 divides a degree-8 polynomial whose Fujiwara exponent is 9:
        # at X = 2^9 + 1 its value is 4, below 2^8, and the certificate at
        # s = e would prove the pair coprime. At s = e + 32 it walks.
        f, h = root_near_bound(8, 8)
        assert h == P("-509,1") and _bound_exponent((f * h).prim) == 9
        walks = recording_walks(monkeypatch)
        assert gcd(f * h, h * P("1,1")) == h
        assert walks == [(f * h).prim]

    def test_common_factor_of_degree_two_takes_no_retry(self, monkeypatch):
        # |h(X)| > X^2/4 for a common factor h of degree 2, so a retry could
        # not certify; one of degree 1 leaves G below X^2/4 and takes it.
        quadratic, linear = P("1,0,1"), P("-1,1")
        assert _certificate_tries(quadratic * P("-3,1"), quadratic * P("5,1"),
                                  monkeypatch) == (False, 1)
        assert _certificate_tries(linear * P("2,0,1"), linear * P("3,1"),
                                  monkeypatch) == (False, 2)
        walks = recording_walks(monkeypatch)
        assert gcd(quadratic * P("-3,1"), quadratic * P("5,1")) == quadratic
        assert walks == [(quadratic * P("-3,1")).prim]


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
        # isolating with multiplicities each walk the remainder sequence of
        # g0 and g1 with their derivatives once, for their gcds, and no
        # other: the integer certificate proves gcd(g2, g2') = 1.
        p = math.prod([P("-1,1")] * 3 + [P("-3,0,1")] * 2, start=P("10,5") * P("1,0,1"))
        chain = [p.prim, (P("-1,1") * P("-1,1") * P("-3,0,1")).prim]
        walks = recording_walks(monkeypatch)
        assert cf_root_count(p) == RootCount(4, 8)
        assert walks == chain
        walks.clear()
        assert [r.multiplicity for r in isolate_real_roots(p)] == [1, 2, 3, 2]
        assert walks == chain

    def test_every_rational_multiple_shares_one_profile(self):
        # The count and the repeated part gcd(p, p') depend on the roots
        # alone, so p, -p, (3/7)p and monic p have the same.
        p = P("1/2,-3/7,5/3,0,-2/9") * P("-1,3") * P("-1,3")
        multiples = [from_coefficients([c * x for x in p.coeffs])
                     for c in (1, -1, Fraction(3, 7))]
        multiples.append(monic(p))
        assert {(cf_root_count(q), gcd(q, q.derivative())) for q in multiples} \
            == {(RootCount(3, 4), P("-1/3,1"))}


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


def _padded(token):
    pad = st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u3000", "\x1c"])
    return st.tuples(pad, token, pad).map("".join)


_INTEGER_TOKENS = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]),
                            st.sampled_from(["", "0", "000"]), st.integers(0, 10 ** 30))
#: Tokens outside the format, then two past int's digit limit, the first by
#: leading zeros alone.
_ODD_TOKENS = ["1e5", "1_0", "1.5", "--1", "+-1", "1/0", "1/-2", "\u0663", "0x1", "", "+ 1", "1 /2",
               "-" + "0" * 4400 + "7", "1" * 4301]
_OTHER_TOKENS = st.one_of(
    st.builds("{}/{}{}".format, _INTEGER_TOKENS, st.sampled_from(["", "0"]), st.integers(0, 99)),
    st.sampled_from(_ODD_TOKENS),
)


@st.composite
def _texts(draw):
    """Integer tokens, with up to two fractions or malformed tokens among them."""
    tokens = draw(st.lists(_padded(_INTEGER_TOKENS), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_padded(_OTHER_TOKENS)))
    return ",".join(tokens)


class TestParserOracle:
    """The one-pass integer parser against the per-token reference parser."""

    @staticmethod
    def check(text, descending=False):
        try:
            expected = ref_parse_polynomial(text, descending)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_polynomial(text, descending)
            assert str(raised.value) == str(exc)
        else:
            p = parse_polynomial(text, descending)
            assert p.coeffs == expected
            assert p == from_coefficients(expected)

    @pytest.mark.parametrize("token", _ODD_TOKENS)
    def test_odd_token_among_integers(self, token):
        for text in (token, f"{token},2", f"1,{token}", f"1, {token} ,2"):
            self.check(text)

    @given(_texts(), st.booleans())
    @example("0" * 4400 + "1,2", False)
    @example("\x1c1,-2,3", True)
    @settings(max_examples=300, deadline=None)
    def test_same_polynomial_or_same_error(self, text, descending):
        self.check(text, descending)


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

    @given(fraction_lists(4).filter(any), fraction_lists(3).filter(any),
           fraction_lists(3).filter(any))
    # The common factor qx - 1 of the second pair, q = 2^30 - 35, has a root
    # far inside 1 and a 30-bit leading coefficient: its value at 2^s + 1
    # passes the certificate's bound at the first try and at the retry.
    @example([3, 1], [-2, 1], [-1, 2**30 - 35])
    @settings(max_examples=100, deadline=None)
    def test_repeated_part_is_euclid_gcd(self, a, b, h):
        # a * b^2 repeats every root of b, so gcd(p, p') is rarely 1; a * h
        # and b * h share every root of h.
        a, b, h = ref_trim(a), ref_trim(b), ref_trim(h)
        ref = ref_mul(a, ref_mul(b, b))
        for x, y in ((ref, ref_derivative(ref)), (ref_mul(a, h), ref_mul(b, h))):
            got = gcd(from_coefficients(x), from_coefficients(y))
            _assert_canonical(got)
            assert got.coeffs == ref_gcd(x, y)
