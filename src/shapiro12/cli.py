"""Command-line surface: classify, verify, fuzz, plotdata, example.

JSON output carries every mathematical quantity as an exact rational string;
the CSV plot data renders decimals at 12 significant digits from the exact
values.  Exit codes: 0 ok, 1 verdict mismatch (verify), 2 parse error,
3 domain error (odd degree, degree < 2 or > MAX_DEGREE, a coefficient or
plot range endpoint whose numerator or denominator is longer than
MAX_COEFF_BITS bits, more than MAX_SAMPLES plot samples).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count

from .harness import FIXTURES, MAX_COEFF_BITS, MAX_DEGREE, FuzzConfig, Strategy, run_fuzz
from .polycore import Polynomial, format_polynomial, parse_polynomial, parse_rational
from .realroots import IsolatedRoot, bisect_once, isolates, order_roots, rational_value, refine
from .rootlocus import EventKind, InfiniteGainError, axis_segments, breakaway_points, gain_at
from .shapiro import (
    ClassLabel,
    DeltaIdenticallyZeroError,
    Evidence,
    actual_verdict,
    build,
    classify,
    predict_verdict,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

#: Largest ``plotdata --samples``: every sample is held in memory before the
#: first row is printed.
MAX_SAMPLES = 100_000


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_polynomial(text: str, descending: bool) -> Polynomial:
    try:
        return parse_polynomial(text, descending=descending)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, str(exc)) from exc


def _too_long(x: Fraction) -> bool:
    return max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_COEFF_BITS


def _build_instance(poly: Polynomial):
    if poly.degree > MAX_DEGREE:
        raise _CliError(EXIT_DOMAIN, f"polynomial degree must be at most {MAX_DEGREE}")
    if any(_too_long(c) for c in poly.coeffs):
        raise _CliError(EXIT_DOMAIN, f"coefficients must have at most {MAX_COEFF_BITS} bits")
    try:
        return build(poly)
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc)) from exc


def _frac(x: Fraction) -> str:
    return str(x)


#: Least level k of the dyadic cells [m/2^k, (m+1)/2^k] that print roots.
_MIN_CELL_LEVEL = 20


def _cell_index(root: IsolatedRoot, k: int) -> tuple[IsolatedRoot, int]:
    """Refine an irrational root into one level-k cell: (refined root, m)."""
    scale = 2 ** k
    while True:
        iv = root.interval
        m = math.floor(iv.lo * scale)
        if iv.hi * scale <= m + 1:
            return root, m
        root = bisect_once(root)


def _printed_forms(evidence: Evidence) -> dict[IsolatedRoot, tuple[Fraction, Fraction]]:
    """The canonical (lo, hi) of every root in the evidence.

    A rational root prints as the point (r, r). Any other root prints as its
    standard dyadic cell [m/2^k, (m+1)/2^k], with one k per report: the least
    k >= 20 at which distinct numbers get distinct cells, no rational root of
    the report lies in a cell, and each cell isolates its number among the
    real roots of its witness. The forms depend only on the numbers and
    their witnesses, so another isolator or root bound prints the same
    report.
    """
    roots = [evidence.p0] if evidence.p0 else []
    for f in evidence.interval_findings:
        roots += [e.root for e in (f.lo, f.hi) if e]
        roots += [bf.location for bf in f.breakaways]
    forms: dict[IsolatedRoot, tuple[Fraction, Fraction]] = {}
    irrational = []
    for number in order_roots(roots):
        value = rational_value(number.primary)
        if value is None:
            irrational.append(number)
        else:
            forms.update((member, (value, value)) for member in number.members)
    points = [lo for lo, _ in forms.values()]
    refined = [number.primary for number in irrational]
    for k in count(_MIN_CELL_LEVEL):
        width = Fraction(1, 2 ** k)
        cells = []
        for i, root in enumerate(refined):
            refined[i], m = _cell_index(root, k)
            cells.append((m * width, (m + 1) * width))
        if len({lo for lo, _ in cells}) == len(cells) \
                and not any(lo <= x <= hi for lo, hi in cells for x in points) \
                and all(isolates(member.witness, lo, hi)
                        for number, (lo, hi) in zip(irrational, cells)
                        for member in number.members):
            break
    for number, cell in zip(irrational, cells):
        forms.update((member, cell) for member in number.members)
    return forms


def _root_json(root: IsolatedRoot, forms: dict[IsolatedRoot, tuple[Fraction, Fraction]]) -> dict:
    lo, hi = forms[root]
    return {
        "lo": _frac(lo),
        "hi": _frac(hi),
        "multiplicity": root.multiplicity,
    }


def _evidence_json(evidence: Evidence) -> dict:
    # Every finding is a segment of the +1 locus, and its breakaways are its
    # gain maxima, all of them standard.
    forms = _printed_forms(evidence)
    findings = []
    for f in evidence.interval_findings:
        findings.append({
            "kind": f.kind.value,
            "interval": {
                "lo": _root_json(f.lo.root, forms) if f.lo else "-inf",
                "hi": _root_json(f.hi.root, forms) if f.hi else "+inf",
                "parity": "EVEN",
            },
            "breakaways": [
                {
                    "location": _root_json(bf.location, forms),
                    "standard": True,
                    "extremum": "MAX",
                    "gain_vs_k0": bf.comparison.value,
                }
                for bf in f.breakaways
            ],
            "decisive": _root_json(f.decisive.location, forms) if f.decisive else None,
        })
    return {
        "p0": _root_json(evidence.p0, forms) if evidence.p0 else None,
        "p2_real_zeros": {
            "left_of_p0": evidence.p2_roots_left,
            "right_of_p0": evidence.p2_roots_right,
        },
        "interval_findings": findings,
    }


def _analyze(poly: Polynomial) -> dict:
    timings: dict[str, int] = {}
    t0 = time.perf_counter_ns()
    instance = _build_instance(poly)
    timings["build_ms"] = (time.perf_counter_ns() - t0) // 1_000_000
    t1 = time.perf_counter_ns()
    label, evidence = classify(instance)
    timings["classify_ms"] = (time.perf_counter_ns() - t1) // 1_000_000
    predicted = predict_verdict(label)
    t2 = time.perf_counter_ns()
    delta_zero = False
    try:
        actual = actual_verdict(instance)
        actual_value = actual.verdict.value
        nr_delta = {"distinct": actual.nr_delta.distinct,
                    "with_multiplicity": actual.nr_delta.with_multiplicity}
        nr_p = {"distinct": actual.nr_p.distinct,
                "with_multiplicity": actual.nr_p.with_multiplicity}
        agreement = predicted == actual.verdict
    except DeltaIdenticallyZeroError as exc:
        # Only p = c*(ax+b)^n lands here; p then has a real zero, so the
        # conjecture holds and the prediction must say so.
        delta_zero = True
        actual_value = "DELTA_IDENTICALLY_ZERO"
        nr_delta = None
        nr_p = {"distinct": exc.nr_p.distinct,
                "with_multiplicity": exc.nr_p.with_multiplicity}
        agreement = predicted.value == "HOLDS" and exc.nr_p.distinct > 0
    timings["verdict_ms"] = (time.perf_counter_ns() - t2) // 1_000_000
    return {
        "polynomial": format_polynomial(poly),
        "degree": instance.n,
        "k0": _frac(instance.k0),
        "delta": format_polynomial(instance.delta),
        "label": label.value,
        "predicted": predicted.value,
        "actual": actual_value,
        "delta_identically_zero": delta_zero,
        "nr_delta": nr_delta,
        "nr_p": nr_p,
        "agreement": agreement,
        "evidence": _evidence_json(evidence),
        "timings": timings,
    }


def _cmd_classify(args: argparse.Namespace) -> int:
    poly = _load_polynomial(args.polynomial, args.descending)
    report = _analyze(poly)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    poly = _load_polynomial(args.polynomial, args.descending)
    report = _analyze(poly)
    print(json.dumps({
        "polynomial": report["polynomial"],
        "label": report["label"],
        "predicted": report["predicted"],
        "actual": report["actual"],
        "agreement": report["agreement"],
    }, indent=2))
    return EXIT_OK if report["agreement"] else EXIT_MISMATCH


def _parse_degrees(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"malformed degree range: {text!r}") from exc


def _cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        config = FuzzConfig(
            seed=args.seed,
            cases=args.cases,
            degree_range=_parse_degrees(args.degrees),
            coeff_bound=args.bound,
            strategy=Strategy(args.strategy),
        )
    except ValueError as exc:
        raise _CliError(EXIT_DOMAIN, str(exc)) from exc
    summary = run_fuzz(config)
    print(json.dumps(summary.to_json_dict(), indent=2))
    return EXIT_OK


def _decimal12(x: Fraction) -> str:
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _approx_position(root: IsolatedRoot) -> Fraction:
    """The root itself when it is rational, else a point within 10^-24 of it."""
    value = rational_value(root)
    if value is not None:
        return value
    return refine(root, Fraction(1, 10 ** 24)).interval.midpoint


def _cmd_plotdata(args: argparse.Namespace) -> int:
    poly = _load_polynomial(args.polynomial, args.descending)
    # Endpoints follow the coefficient token rule and bit cap; a count other
    # than two fails the unpacking with ValueError as well.
    try:
        lo, hi = (parse_rational(t.strip()) for t in args.range.split(":"))
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"malformed range: {args.range!r}") from exc
    if _too_long(lo) or _too_long(hi):
        raise _CliError(EXIT_DOMAIN, f"range endpoints must have at most {MAX_COEFF_BITS} bits")
    if lo >= hi or args.samples < 2:
        raise _CliError(EXIT_PARSE, "range must be increasing and samples >= 2")
    if args.samples > MAX_SAMPLES:
        raise _CliError(EXIT_DOMAIN, f"samples must be at most {MAX_SAMPLES}")
    instance = _build_instance(poly)
    pp, delta = instance.pp, instance.delta

    # x -> event kind tag; None marks a plain grid sample.
    rows: dict[Fraction, EventKind | str | None] = {}
    step = (hi - lo) / (args.samples - 1)
    for i in range(args.samples):
        rows.setdefault(lo + step * i, None)
    # One axis pass: the events are the ends of the segments.
    segments = axis_segments(pp)
    for event in (s.hi_event for s in segments[:-1]):
        x = _approx_position(event.root)
        if lo <= x <= hi:
            rows[x] = event.kind
    for b in breakaway_points(pp, segments):
        x = _approx_position(b.location)
        if lo <= x <= hi and rows.get(x) is None:
            rows[x] = "BREAKAWAY"

    print("x,K,delta,parity,is_event")
    for x in sorted(rows):
        tag = rows[x]
        if tag is EventKind.ZERO:
            k_text = ""       # gain is +infinity at a zero of pp
        elif tag is EventKind.POLE:
            k_text = "0"
        else:
            try:
                k_text = _decimal12(gain_at(pp, x))
            except InfiniteGainError:
                k_text = ""
        sgn = pp.sign_of_value_at(x)
        is_event = tag is not None or sgn == 0
        parity = "" if is_event else ("EVEN" if sgn > 0 else "ODD")
        delta_text = _decimal12(Fraction(delta.eval_at(x)))
        print(f"{_decimal12(x)},{k_text},{delta_text},{parity},{'true' if is_event else 'false'}")
    return EXIT_OK


def _cmd_example(args: argparse.Namespace) -> int:
    try:
        label = ClassLabel(args.label)
    except ValueError as exc:
        valid = ", ".join(l.value for l in ClassLabel)
        raise _CliError(EXIT_PARSE, f"unknown class label {args.label!r}; one of: {valid}") from exc
    text = FIXTURES.get(label)
    if text is None:
        print("NOT_FOUND")
    else:
        print(text)
    return EXIT_OK


# Accept leading-minus polynomial texts ("-1,0,1") and ranges ("-3:3") as
# argument values rather than option names.
_VALUE_WITH_MINUS = re.compile(r"^-\d[\d,/:. -]*$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _VALUE_WITH_MINUS


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shapiro12",
        description="Classify real even-degree polynomials against Shapiro's "
                    "conjecture on (n-1)(p')^2 - n*p*p'' and verify the verdict "
                    "by exact root counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_poly(p: argparse.ArgumentParser) -> None:
        p.add_argument("polynomial", help="comma-separated ascending coefficients, e.g. 1,0,1")
        p.add_argument("--descending", action="store_true",
                       help="interpret the coefficients in descending order")

    p_classify = sub.add_parser("classify", help="full JSON report for one polynomial")
    add_poly(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="exit 0 iff predicted verdict matches the counted one")
    add_poly(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="randomized agreement run, JSON summary")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--cases", type=int, default=100)
    p_fuzz.add_argument("--degrees", default="2:8", help="even degree range lo:hi")
    p_fuzz.add_argument("--bound", type=int, default=12)
    p_fuzz.add_argument("--strategy", choices=[s.value for s in Strategy], default="uniform")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_plot = sub.add_parser("plotdata", help="CSV samples of gain and delta along the axis")
    add_poly(p_plot)
    p_plot.add_argument("--range", default="-5:5", help="rational endpoints lo:hi")
    p_plot.add_argument("--samples", type=int, default=101)
    p_plot.set_defaults(func=_cmd_plotdata)

    p_example = sub.add_parser("example", help="print the seeded example for a class label")
    p_example.add_argument("label", help="class label, e.g. Gamma11")
    p_example.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
