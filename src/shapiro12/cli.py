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
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

from .harness import FIXTURES, MAX_COEFF_BITS, MAX_DEGREE, FuzzConfig, Strategy, run_fuzz
from .polycore import Polynomial, format_polynomial, parse_polynomial, parse_rational
from .realroots import IsolatedRoot, _levels, isolates, order_roots, rational_value, refine
from .shapiro import (
    ClassLabel,
    DeltaIdenticallyZeroError,
    EventKind,
    Evidence,
    actual_verdict,
    build,
    classify,
    pp_breakaways,
    pp_events,
    pp_gain_and_sign,
    predict_verdict,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

#: More than 20 significant digits make a numerator or denominator at least
#: 10**20 > 2**MAX_COEFF_BITS: a text holding such a run is refused before
#: any digit is converted.
_PAST_BIT_CAP = re.compile(r"[1-9][0-9]{20}")

#: Largest ``plotdata --samples``: every sample is held in memory before the
#: first row is printed.
MAX_SAMPLES = 100_000


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


#: Longest argument that an error message repeats whole.
_ECHO_LIMIT = 60


def _echo(text: str) -> str:
    """The repr of an argument, cut to a prefix and its length when long."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


def _load_polynomial(text: str, descending: bool) -> Polynomial:
    if _PAST_BIT_CAP.search(text):
        raise _CliError(EXIT_DOMAIN, f"coefficients must have at most {MAX_COEFF_BITS} bits")
    try:
        return parse_polynomial(text, descending=descending)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"malformed polynomial text: {_echo(text)}") from exc


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


#: Least level k of the dyadic cells [m/2^k, (m+1)/2^k] that print roots.
_MIN_CELL_LEVEL = 20


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
    for k in _levels(roots, start=_MIN_CELL_LEVEL):
        refined = [refine(root, k) for root in refined]
        width = Fraction(1, 2 ** k)
        cells = [(m * width, (m + 1) * width)
                 for m in (math.floor(root.interval.lo / width) for root in refined)]
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
        "lo": str(lo),
        "hi": str(hi),
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


def _analyze(poly: Polynomial) -> tuple[dict, Evidence, dict[str, int]]:
    """Build, classify and count: the report up to agreement, evidence, timings."""
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
        nr_delta, nr_p = asdict(actual.nr_delta), asdict(actual.nr_p)
        agreement = predicted == actual.verdict
    except DeltaIdenticallyZeroError as exc:
        # Only p = c*(ax+b)^n lands here; p then has a real zero, so the
        # conjecture holds and the prediction must say so.
        delta_zero = True
        actual_value = "DELTA_IDENTICALLY_ZERO"
        nr_delta = None
        nr_p = asdict(exc.nr_p)
        agreement = predicted.value == "HOLDS" and exc.nr_p.distinct > 0
    timings["verdict_ms"] = (time.perf_counter_ns() - t2) // 1_000_000
    return {
        "polynomial": format_polynomial(poly),
        "degree": instance.n,
        "k0": str(instance.k0),
        "delta": format_polynomial(instance.delta),
        "label": label.value,
        "predicted": predicted.value,
        "actual": actual_value,
        "delta_identically_zero": delta_zero,
        "nr_delta": nr_delta,
        "nr_p": nr_p,
        "agreement": agreement,
    }, evidence, timings


def _cmd_classify(args: argparse.Namespace) -> int:
    poly = _load_polynomial(args.polynomial, args.descending)
    report, evidence, timings = _analyze(poly)
    report.update(evidence=_evidence_json(evidence), timings=timings)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    poly = _load_polynomial(args.polynomial, args.descending)
    report, _, _ = _analyze(poly)
    fields = ("polynomial", "label", "predicted", "actual", "agreement")
    print(json.dumps({key: report[key] for key in fields}, indent=2))
    return EXIT_OK if report["agreement"] else EXIT_MISMATCH


def _parse_degrees(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"malformed degree range: {_echo(text)}") from exc


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
    """The root itself when it is rational, else the midpoint of its level-80
    cell, within 2^-81 < 10^-24 of it."""
    value = rational_value(root)
    if value is not None:
        return value
    return Fraction(2 * math.floor(refine(root, 80).interval.lo * 2 ** 80) + 1, 2 ** 81)


def _cmd_plotdata(args: argparse.Namespace) -> int:
    poly = _load_polynomial(args.polynomial, args.descending)
    if _PAST_BIT_CAP.search(args.range):
        raise _CliError(EXIT_DOMAIN, f"range endpoints must have at most {MAX_COEFF_BITS} bits")
    # Endpoints follow the coefficient token rule and bit cap; a count other
    # than two fails the unpacking with ValueError as well.
    try:
        lo, hi = (parse_rational(t.strip()) for t in args.range.split(":"))
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"malformed range: {_echo(args.range)}") from exc
    if _too_long(lo) or _too_long(hi):
        raise _CliError(EXIT_DOMAIN, f"range endpoints must have at most {MAX_COEFF_BITS} bits")
    if lo >= hi or args.samples < 2:
        raise _CliError(EXIT_PARSE, "range must be increasing and samples >= 2")
    if args.samples > MAX_SAMPLES:
        raise _CliError(EXIT_DOMAIN, f"samples must be at most {MAX_SAMPLES}")
    instance = _build_instance(poly)

    # x -> event kind tag; None marks a plain grid sample.
    rows: dict[Fraction, EventKind | str | None] = {}
    step = (hi - lo) / (args.samples - 1)
    for i in range(args.samples):
        rows.setdefault(lo + step * i, None)
    events = pp_events(instance)
    for event in events:
        x = _approx_position(event.root)
        if lo <= x <= hi:
            rows[x] = event.kind
    for b in pp_breakaways(instance, events):
        x = _approx_position(b)
        if lo <= x <= hi and rows.get(x) is None:
            rows[x] = "BREAKAWAY"

    print("x,K,delta,parity,is_event")
    for x in sorted(rows):
        tag = rows[x]
        gain, sgn = pp_gain_and_sign(instance, x)
        if tag is EventKind.ZERO:
            k_text = ""       # gain is +infinity at a zero of pp
        elif tag is EventKind.POLE:
            k_text = "0"
        else:
            k_text = "" if gain is None else _decimal12(gain)
        is_event = tag is not None or sgn == 0
        parity = "" if is_event else ("EVEN" if sgn > 0 else "ODD")
        delta_text = _decimal12(instance.delta.eval_at(x))
        print(f"{_decimal12(x)},{k_text},{delta_text},{parity},{'true' if is_event else 'false'}")
    return EXIT_OK


def _cmd_example(args: argparse.Namespace) -> int:
    try:
        label = ClassLabel(args.label)
    except ValueError as exc:
        valid = ", ".join(l.value for l in ClassLabel)
        raise _CliError(EXIT_PARSE,
                        f"unknown class label {_echo(args.label)}; one of: {valid}") from exc
    print(FIXTURES.get(label, "NOT_FOUND"))
    return EXIT_OK


# Accept leading-minus polynomial texts ("-1,0,1") and ranges ("-3:3") as
# argument values rather than option names.
_VALUE_WITH_MINUS = re.compile(r"^-\d[\d,/:. -]*$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, argv: list[str], **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _VALUE_WITH_MINUS
        self._argv = argv

    def error(self, message: str):
        # argparse repeats a value as its repr or as it is: cut each long one.
        for arg in (a for a in self._argv if len(a) > _ECHO_LIMIT):
            message = message.replace(repr(arg), _echo(arg)).replace(arg, _echo(arg))
        super().error(message)


def _make_parser(argv: list[str]) -> argparse.ArgumentParser:
    make = partial(_Parser, argv=argv)
    parser = make(
        prog="shapiro12",
        description="Classify real even-degree polynomials against Shapiro's "
                    "conjecture on (n-1)(p')^2 - n*p*p'' and verify the verdict "
                    "by exact root counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make)

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
    argv = sys.argv[1:] if argv is None else argv
    args = _make_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
