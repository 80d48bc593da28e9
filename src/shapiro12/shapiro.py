"""Classifier and verdict logic for Shapiro's positivity conjecture.

For a real polynomial p of even degree n, the conjecture asserts that
delta = (n-1)*(p')^2 - n*p*p'' and p together have at least one real zero.
This module classifies p into one of thirteen mutually exclusive classes by
the real-axis root loci of pp = p''*p / (p')^2, read off the zero p0 of p',
the zeros of p'' and the roots of the breakaway polynomial B, predicts from
the class alone whether the conjecture holds, and independently verifies the
prediction by exact root counting.

``plotdata`` reads the same algebra along the whole axis: the events of pp
from the roots of p, p' and p'' (``pp_events``), its breakaways from the
roots of B/g^3 (``pp_breakaways``) and the gain and sign at rational points
(``pp_gain_and_sign``).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .polycore import (InvariantError, Polynomial, _from_ints, _int_derivative, _lane_bytes, _pack,
                       _read_lanes, _sign, div_exact, gcd, sign_at)
from .realroots import (
    IsolatedRoot,
    RootCount,
    cf_root_count,
    compare_roots,
    isolate_real_roots,
    order_roots,
    sign_at_root,
)


class ClassLabel(Enum):
    """The thirteen leaf classes; exactly one applies to every valid input."""

    LAMBDA_1 = "Lambda1"      # p has real zeros
    LAMBDA_21 = "Lambda21"    # p' has >= 2 distinct real zeros (p without real zeros)
    LAMBDA_22 = "Lambda22"    # p' has one real zero of multiplicity > 1
    GAMMA_11 = "Gamma11"      # p'' definite, no standard breakaway point
    GAMMA_121 = "Gamma121"    # p'' definite, every maximum gain < K0
    GAMMA_122 = "Gamma122"    # p'' definite, some maximum gain >= K0
    GAMMA_211 = "Gamma211"    # p'' zeros right of p0 only, even count
    GAMMA_2121 = "Gamma2121"  # right only, odd count, all minimum gains > K0
    GAMMA_2122 = "Gamma2122"  # right only, odd count, some minimum gain <= K0
    GAMMA_22 = "Gamma22"      # p'' zeros left of p0 only
    GAMMA_231 = "Gamma231"    # p'' zeros on both sides, even right count
    GAMMA_2321 = "Gamma2321"  # both sides, odd right count, all minimum gains > K0
    GAMMA_2322 = "Gamma2322"  # both sides, odd right count, some minimum gain <= K0


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"


_HOLDS_LABELS = frozenset({
    ClassLabel.LAMBDA_1,
    ClassLabel.LAMBDA_21,
    ClassLabel.LAMBDA_22,
    ClassLabel.GAMMA_122,
    ClassLabel.GAMMA_22,
    ClassLabel.GAMMA_2122,
    ClassLabel.GAMMA_211,
    ClassLabel.GAMMA_231,
    ClassLabel.GAMMA_2322,
})


class DeltaIdenticallyZeroError(ValueError):
    """delta vanished identically (p is a perfect n-th power of a linear factor)."""

    def __init__(self, nr_p: RootCount):
        super().__init__("delta is identically zero")
        self.nr_p = nr_p


class EventKind(Enum):
    ZERO = "ZERO"
    POLE = "POLE"


class Comparison(Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"

    @classmethod
    def from_sign(cls, sign: int) -> "Comparison":
        """LT, EQ or GT for the sign -1, 0 or +1 of a difference."""
        return cls.GT if sign > 0 else cls.LT if sign < 0 else cls.EQ


class AxisEvent(NamedTuple):
    """A real zero or pole of pp, with multiplicity."""

    root: IsolatedRoot
    kind: EventKind

    @property
    def multiplicity(self) -> int:
        return self.root.multiplicity


class IntervalKind(Enum):
    RIGHT_INFINITE = "RIGHT_INFINITE"
    LEFT_INFINITE_EVEN = "LEFT_INFINITE_EVEN"
    POLE_TO_ZERO = "POLE_TO_ZERO"


class BreakawayFinding(NamedTuple):
    """A gain maximum and its gain compared with K0."""

    location: IsolatedRoot
    comparison: Comparison


class IntervalFinding(NamedTuple):
    """A segment of the +1 locus between two events; None is an infinity.

    Each root keeps the isolating interval it was found in, so the intervals
    of one report need not be disjoint; the printer canonicalises them.
    """

    kind: IntervalKind
    lo: AxisEvent | None
    hi: AxisEvent | None
    breakaways: tuple[BreakawayFinding, ...]
    decisive: BreakawayFinding | None


class Evidence(NamedTuple):
    p0: IsolatedRoot | None
    p2_roots_left: int
    p2_roots_right: int
    interval_findings: tuple[IntervalFinding, ...]


class ShapiroInstance(NamedTuple):
    """p, its derivatives, delta, K0 = n/(n-1) and the real root counts of p.

    For p = cP with P primitive, ``build`` forms P', P'' and
    Delta = (n-1)(P')^2 - nPP'' as integer vectors, so p1 and p2 have
    content c times an integer and ``delta`` c^2 times one; Delta is one
    integer expression in P, P' and P'' packed at a power of two, read back
    in signed lanes. The breakaway polynomial B is the covariant
    nB = p'delta' - 2p''delta, read off p and delta the same way; the
    double pole of pp is p0 itself with multiplicity 2 and needs no
    polynomial of its own. No field holds pp = p''p/(p')^2: its events,
    breakaways, gain and sign are read from p, p', p'' and B. The Lambda1
    test and ``actual_verdict`` read ``nr_p``, counted by the continued
    fractions that count delta; no field holds g = gcd(p, p'), which only
    B/g^3 needs.
    """

    p: Polynomial
    n: int
    p1: Polynomial
    p2: Polynomial
    delta: Polynomial
    k0: Fraction
    nr_p: RootCount


class ActualVerdict(NamedTuple):
    verdict: Verdict
    nr_delta: RootCount
    nr_p: RootCount


def build(p: Polynomial) -> ShapiroInstance:
    """Derive all exact data the classifier needs from p, in one integer pass.

    Delta = (n-1)(P')^2 - nPP'' is formed by Kronecker substitution: P, P'
    and P'' are packed at X = 2^(8 nb), the one integer
    (n-1)P'(X)^2 - nP(X)P''(X) is formed, and its 2n - 1 lanes are read at
    once. The lane width comes from the bound (n-1)|P'|_1^2 + n|P|_1|P''|_1
    on every coefficient, and the top two lanes must read 0.
    """
    if p.is_zero or p.degree < 2:
        raise ValueError("polynomial degree must be at least 2")
    n = int(p.degree)
    if n % 2 != 0:
        raise ValueError("polynomial degree must be even")
    p1_ints = _int_derivative(p.prim)
    p2_ints = _int_derivative(p1_ints)
    nb = _lane_bytes((n - 1) * sum(map(abs, p1_ints)) ** 2
                     + n * sum(map(abs, p.prim)) * sum(map(abs, p2_ints)))
    s = 8 * nb
    a1 = _pack(p1_ints, s)
    # (P')^2 and PP'' both have degree 2n - 2, but delta is -1/(n-1) times
    # the Hessian of p read as a binary form of degree n, a form of degree
    # 2n - 4: the top two coefficients of Delta cancel exactly.
    delta_ints = _read_lanes((n - 1) * a1 * a1 - n * _pack(p.prim, s) * _pack(p2_ints, s),
                             2 * n - 1, nb)
    if any(delta_ints[2 * n - 3:]):
        raise InvariantError("the x^(2n-2) and x^(2n-3) coefficients of delta must cancel")
    c = p.content
    return ShapiroInstance(p, n, _from_ints(p1_ints, c), _from_ints(p2_ints, c),
                           _from_ints(delta_ints, c * c), Fraction(n, n - 1),
                           cf_root_count(p))


def predict_verdict(label: ClassLabel) -> Verdict:
    """Verdict implied by the class alone: the two classification theorems."""
    return Verdict.HOLDS if label in _HOLDS_LABELS else Verdict.FAILS


def actual_verdict(instance: ShapiroInstance) -> ActualVerdict:
    """Ground truth by exact root counting: p and delta each by the leaves
    of its continued fractions, p's counted once by ``build``.
    """
    nr_p = instance.nr_p
    if instance.delta.is_zero:
        raise DeltaIdenticallyZeroError(nr_p)
    nr_delta = cf_root_count(instance.delta)
    verdict = Verdict.HOLDS if nr_delta.distinct + nr_p.distinct > 0 else Verdict.FAILS
    return ActualVerdict(verdict, nr_delta, nr_p)


def classify(instance: ShapiroInstance) -> tuple[ClassLabel, Evidence]:
    """Assign the unique class of p and record the decisive exact evidence."""
    p1, p2 = instance.p1, instance.p2

    if instance.nr_p.distinct > 0:
        return ClassLabel.LAMBDA_1, Evidence(None, 0, 0, ())

    p1_roots = isolate_real_roots(p1)
    if not p1_roots:
        raise InvariantError("odd-degree derivative must have a real root")
    if len(p1_roots) >= 2:
        return ClassLabel.LAMBDA_21, Evidence(None, 0, 0, ())
    p0 = p1_roots[0]
    if p0.multiplicity > 1:
        return ClassLabel.LAMBDA_22, Evidence(None, 0, 0, ())

    # From here on p has no real zero and p' has the single simple real zero
    # p0, so the real events of pp are known: p0 is a double pole, and the
    # zeros are those of p''.
    p2_roots = isolate_real_roots(p2) if p2.degree >= 1 else ()
    if not p2_roots:
        return _classify_definite_p2(instance, p0)

    left: list[IsolatedRoot] = []
    right: list[IsolatedRoot] = []
    for z in p2_roots:
        side = compare_roots(z, p0)
        if side == 0:
            raise InvariantError("p'' cannot vanish at the simple zero of p'")
        (left if side < 0 else right).append(z)
    n_left = sum(z.multiplicity for z in left)
    n_right = sum(z.multiplicity for z in right)

    # p'' has the sign of the leading coefficient at p0 and at both
    # infinities, so each side's count is even and the four odd-count
    # classes are empty.
    if n_left % 2 or n_right % 2:
        raise InvariantError(f"odd count of p'' zeros beside p0 (left {n_left}, right {n_right})")

    # The segment between the pole p0 and its nearest zero of p'' lies on
    # the +1 locus, and its gain sweeps (0, +inf): on the right when p'' has
    # zeros there, else on the left.
    pole = AxisEvent(_double_pole(p0), EventKind.POLE)
    if right:
        label = ClassLabel.GAMMA_211 if not left else ClassLabel.GAMMA_231
        lo, hi = pole, AxisEvent(right[0], EventKind.ZERO)
    else:
        label = ClassLabel.GAMMA_22
        lo, hi = AxisEvent(left[-1], EventKind.ZERO), pole
    finding = IntervalFinding(IntervalKind.POLE_TO_ZERO, lo, hi, (), None)
    return label, Evidence(p0, n_left, n_right, (finding,))


def _double_pole(p0: IsolatedRoot) -> IsolatedRoot:
    """p0 as the double pole of pp: the same interval and witness, multiplicity 2."""
    return p0._replace(multiplicity=2)


def _breakaway_polynomial(instance: ShapiroInstance) -> Polynomial:
    """B = 2pp''^2 - p'^2p'' - pp'p''', the reduced critical polynomial of pp.

    Since delta' = (n-2)p'p'' - npp''', B is the covariant
    nB = p'delta' - 2p''delta, that is B = p'^3 (delta/p'^2)'/n. For p = cP
    and delta = dD with P and D primitive, B = (cd/n)(P'D' - 2P''D), of
    degree at most 3n - 6: one integer expression in P', P'', D and D'
    packed at 2^(8 nb), read back in lanes wide enough for the bound
    |P'|_1 |D'|_1 + 2|P''|_1 |D|_1 on every coefficient.
    """
    delta = instance.delta
    if delta.is_zero:  # p = c(ax + b)^n, where pp is constant
        return delta
    p1_ints = _int_derivative(instance.p.prim)
    p2_ints = _int_derivative(p1_ints)
    d_ints = delta.prim
    d1_ints = _int_derivative(d_ints)
    nb = _lane_bytes(sum(map(abs, p1_ints)) * sum(map(abs, d1_ints))
                     + 2 * sum(map(abs, p2_ints)) * sum(map(abs, d_ints)))
    s = 8 * nb
    # Both products have n + deg delta - 1 coefficients; when delta is a
    # constant, D' is empty and packs to 0.
    b = _read_lanes(_pack(p1_ints, s) * _pack(d1_ints, s)
                    - 2 * _pack(p2_ints, s) * _pack(d_ints, s), len(p2_ints) + len(d_ints) - 1, nb)
    return _from_ints(b, instance.p.content * delta.content / instance.n)


def _reduced_breakaway_polynomial(instance: ShapiroInstance) -> Polynomial:
    """B/g^3 with g = gcd(p, p'), which gcd's certificate, one integer gcd,
    mostly proves to be 1 without an exact remainder sequence.

    A factor w^m of p with m >= 2 divides each term of B 3m - 4 times. Near
    a root of w, where p = t^m (a + bt + ...), the t^(3m - 4) terms cancel
    and B = -2m a^2 b t^(3m - 3) + ..., so g^3 divides B, since g holds
    w^(m - 1), and B/g^3 keeps no factor of g unless b = 0.
    """
    b = _breakaway_polynomial(instance)
    g = gcd(instance.p, instance.p1)
    return div_exact(b, g * g * g) if g.degree >= 1 else b


def _classify_definite_p2(instance: ShapiroInstance, p0: IsolatedRoot,
                          ) -> tuple[ClassLabel, Evidence]:
    """p'' has no real zeros, so p''p > 0 and the whole axis is the +1 locus.

    The gain K = (p')^2/(p''p) is 0 at p0 and finite and positive elsewhere.
    Its derivative is K' = p'B/(p''p)^2, where B = 2pp''^2 - p'^2p'' - pp'p'''
    is the reduced critical polynomial of pp, so K' changes sign exactly at
    the real roots of odd multiplicity in B: the standard breakaways. Since
    K rises away from p0, the standard breakaways on each side are, outward
    from p0, a maximum, a minimum, a maximum, and so on.

    Since p has no real zero, neither has g = gcd(p, p'), and B/g^3 has the
    real roots of B with the same multiplicities and a lower degree to
    isolate.
    """
    left: list[IsolatedRoot] = []
    right: list[IsolatedRoot] = []
    for r in isolate_real_roots(_reduced_breakaway_polynomial(instance)):
        if r.multiplicity % 2 == 0:
            continue
        side = compare_roots(r, p0)
        if side == 0:
            raise InvariantError("B = 2pp''^2 cannot vanish at p0")
        (left if side < 0 else right).append(r)
    if not left and not right:
        return ClassLabel.GAMMA_11, Evidence(p0, 0, 0, ())

    pole = AxisEvent(_double_pole(p0), EventKind.POLE)
    findings = []
    all_below = True
    # The maxima are every other standard breakaway, starting next to p0, so
    # the outermost breakaway on a side is a maximum when the side has an odd
    # count. Beyond it K falls strictly to its limit K0 at infinity, so its
    # gain exceeds K0 without a sign of delta.
    for kind, outward, maxima, lo, hi in (
            (IntervalKind.RIGHT_INFINITE, right, right[::2], pole, None),
            (IntervalKind.LEFT_INFINITE_EVEN, left[::-1], left[::-2][::-1], None, pole)):
        if not maxima:
            continue
        # On the +1 locus sign(K - K0) = sign(delta).
        here = tuple(BreakawayFinding(m, Comparison.GT if m is outward[-1] else
                                      Comparison.from_sign(sign_at_root(instance.delta, m)))
                     for m in maxima)
        decisive = next((bf for bf in here if bf.comparison is not Comparison.LT), None)
        all_below = all_below and decisive is None
        findings.append(IntervalFinding(kind, lo, hi, here, decisive))
    label = ClassLabel.GAMMA_121 if all_below else ClassLabel.GAMMA_122
    return label, Evidence(p0, 0, 0, tuple(findings))


def pp_events(instance: ShapiroInstance) -> tuple[AxisEvent, ...]:
    """The real zeros and poles of pp with multiplicity, sorted left to right.

    At a real x, pp = p''p/(p')^2 has order e = ord p'' + ord p - 2 ord p',
    where ord q is the multiplicity of x as a root of q (0 off its roots):
    x is a zero of multiplicity e when e > 0 and a pole of multiplicity -e
    when e < 0. A root of p of multiplicity m >= 2 has e = 0, since p' and
    p'' vanish there m - 1 and m - 2 times, so it is no event.
    """
    p, p1, p2 = instance.p, instance.p1, instance.p2
    # Each root is tagged with its weight in e. Pairs, not a dict keyed by
    # root: roots of two polynomials can compare equal as objects.
    tagged = [(r, weight) for q, weight in ((p, 1), (p1, -2), (p2, 1))
              for r in isolate_real_roots(q)]
    picked: list[IsolatedRoot] = []
    kinds: list[EventKind] = []
    for group in order_roots(r for r, _ in tagged):
        e = sum(weight * r.multiplicity for r, weight in tagged
                if any(r is member for member in group.members))
        if e:
            picked.append(group.primary._replace(multiplicity=abs(e)))
            kinds.append(EventKind.ZERO if e > 0 else EventKind.POLE)
    return tuple(AxisEvent(r, kind) for r, kind in zip(picked, kinds))


def pp_breakaways(instance: ShapiroInstance,
                  events: tuple[AxisEvent, ...]) -> tuple[IsolatedRoot, ...]:
    """The breakaways of pp, sorted: the real roots of B/g^3 that are no event.

    pp' = -B/(p')^3 = -(B/g^3)/(p'/g)^3 with g = gcd(p, p'), and p'/g has
    no real root but the poles, so off the events pp' vanishes exactly at
    the real roots of B/g^3. These include every multiple zero and multiple
    pole of pp, so ``events``, from ``pp_events``, are left out.
    """
    b = _reduced_breakaway_polynomial(instance)
    if b.is_zero:  # p = c(ax + b)^n, where pp is constant
        return ()
    return tuple(r for r in isolate_real_roots(b)
                 if all(compare_roots(r, e.root) for e in events))


def pp_gain_and_sign(instance: ShapiroInstance, x: Fraction) -> tuple[Fraction | None, int]:
    """The gain K = 1/|pp| at a rational x and the sign of pp there.

    None is an infinite gain, at a zero of pp. Where p'(x) != 0,
    K = p'(x)^2/|p''(x)p(x)| and the sign is that of p''(x)p(x). Where
    p'(x) = 0 and p(x) != 0, x is a pole: K = 0 and the sign is 0. Where
    both vanish, x is a root of p of some multiplicity m >= 2, where
    p = t^m (a + ...) gives pp -> (m - 1)/m: K = m/(m - 1) and the sign is +1.
    """
    p_x, p1_x = instance.p.eval_at(x), instance.p1.eval_at(x)
    if p1_x:
        product = instance.p2.eval_at(x) * p_x
        return (p1_x * p1_x / abs(product) if product else None), _sign(product)
    if p_x:
        return Fraction(0), 0
    m, derivative = 2, instance.p2
    while not derivative.eval_at(x):
        m, derivative = m + 1, derivative.derivative()
    return Fraction(m, m - 1), 1


def delta_sign_shortcut(instance: ShapiroInstance,
                        point: Fraction | int | IsolatedRoot) -> Comparison:
    """Compare K(x) with K0 on the +1 locus by one exact sign of delta.

    On segments where pp > 0, sign(K(x) - K0) equals sign(delta(x)); points
    on the -1 locus (pp < 0) are rejected because the sign relation flips.
    The sign of pp follows the rule of ``pp_gain_and_sign``, read with
    ``sign_at`` at a rational point and ``sign_at_root`` at an isolated root,
    and so does the gain at a real multiple root of p, where delta vanishes.
    """
    sign = (partial(sign_at_root, root=point) if isinstance(point, IsolatedRoot)
            else partial(sign_at, x=Fraction(point)))
    s_p, s_p1 = sign(instance.p), sign(instance.p1)
    if not s_p and not s_p1:  # K = m/(m - 1) > K0, since m < n unless delta is 0
        return Comparison.EQ if instance.delta.is_zero else Comparison.GT
    s_pp = sign(instance.p2) * s_p if s_p1 else 0
    if s_pp == 0:
        raise ValueError("point is a zero or pole of pp")
    if s_pp < 0:
        raise ValueError("point lies on the -1 locus")
    return Comparison.from_sign(sign(instance.delta))
