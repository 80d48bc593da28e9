import json
from dataclasses import replace
from fractions import Fraction

import pytest

from shapiro12 import cli, realroots, shapiro
from shapiro12.harness import FIXTURES, FuzzConfig, Strategy, random_polynomial
from shapiro12.polycore import InvariantError, parse_polynomial, sign_at
from shapiro12.realroots import refine
from shapiro12.shapiro import ClassLabel, Verdict, build, classify
from oracle_rootlocus import gain_at, oracle_pp
from sturm_helper import sturm_count


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_gamma_11_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "1,0,1")
        assert code == 0
        report = json.loads(out)
        assert report["label"] == "Gamma11"
        assert report["predicted"] == "FAILS"
        assert report["actual"] == "FAILS"
        assert report["agreement"] is True
        assert report["delta"] == "-4"
        assert report["nr_delta"] == {"distinct": 0, "with_multiplicity": 0}

    def test_lambda_22_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "1,0,0,0,1")
        assert code == 0
        report = json.loads(out)
        assert report["label"] == "Lambda22"
        assert report["predicted"] == "HOLDS"

    def test_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "2,0,-2,0,1")
        report = json.loads(out)
        assert parse_polynomial(report["polynomial"]) == parse_polynomial("2,0,-2,0,1")

    def test_exact_rational_strings(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "1,0,0,0,1")
        report = json.loads(out)
        assert report["k0"] == "4/3"

    def test_odd_degree_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "classify", "1,1")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("command", ["classify", "verify", "plotdata"])
    def test_degree_past_cap_exit_3(self, capsys, monkeypatch, command):
        def build_called(poly):
            raise AssertionError("build must not run past the degree cap")

        monkeypatch.setattr(cli, "build", build_called)
        text = ",".join(["1"] * (cli.MAX_DEGREE + 3))  # degree MAX_DEGREE + 2
        code, out, err = run_cli(capsys, command, text)
        assert code == 3
        assert out == ""
        assert "at most 32" in err

    @pytest.mark.parametrize("command", ["classify", "verify", "plotdata"])
    @pytest.mark.parametrize("text", [
        "18446744073709551616,0,1", "1/18446744073709551616,0,1",
        pytest.param("1,0," + "1" * 5000, id="5000-digit-numerator"),
        pytest.param("1/" + "7" * 5000 + ",0,1", id="5000-digit-denominator")])
    def test_coefficient_past_bit_cap_exit_3(self, capsys, monkeypatch, command, text):
        # 2**64 has 65 bits, one past MAX_COEFF_BITS. 5000 digits are past
        # the 4300 that int() converts: they must be refused unconverted.
        def build_called(poly):
            raise AssertionError("build must not run past the bit cap")

        monkeypatch.setattr(cli, "build", build_called)
        code, out, err = run_cli(capsys, command, text)
        assert code == 3
        assert out == ""
        assert "at most 64 bits" in err

    def test_coefficient_at_bit_cap_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "18446744073709551615,0,1")  # 2**64 - 1
        assert code == 0
        assert json.loads(out)["label"] == "Gamma11"

    def test_leading_zeros_do_not_count(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "1,0," + "0" * 5000 + "1")  # x^2 + 1
        assert code == 0
        assert json.loads(out)["label"] == "Gamma11"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "1,x,3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", ["1e5,0,1", "1_0,0,1", "1.5,0,1"])
    def test_undocumented_token_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "classify", text)
        assert code == 2
        assert out == ""
        assert "malformed polynomial text" in err

    def test_descending(self, capsys):
        _, out_asc, _ = run_cli(capsys, "classify", "1,0,1")
        _, out_desc, _ = run_cli(capsys, "classify", "1,0,1", "--descending")
        assert json.loads(out_asc)["label"] == json.loads(out_desc)["label"]

    def test_delta_identically_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "0,0,1")
        assert code == 0
        report = json.loads(out)
        assert report["delta_identically_zero"] is True
        assert report["actual"] == "DELTA_IDENTICALLY_ZERO"
        assert report["agreement"] is True  # Lambda1, conjecture holds via p


def _narrowed(evidence, k):
    """The same evidence with every isolating interval refined to level k."""
    def narrow(root):
        return refine(root, k)

    findings = []
    for f in evidence.interval_findings:
        breakaways = tuple(replace(bf, location=narrow(bf.location)) for bf in f.breakaways)
        decisive = next((new for new, old in zip(breakaways, f.breakaways) if old == f.decisive),
                        None)
        findings.append(replace(
            f, lo=f.lo and replace(f.lo, root=narrow(f.lo.root)),
            hi=f.hi and replace(f.hi, root=narrow(f.hi.root)),
            breakaways=breakaways, decisive=decisive))
    return replace(evidence, p0=evidence.p0 and narrow(evidence.p0),
                   interval_findings=tuple(findings))


@pytest.fixture(scope="module")
def gamma_evidence():
    """Evidence of the Gamma fixtures and of seeded positive-only Gamma cases."""
    config = FuzzConfig(seed=3, cases=60, degree_range=(4, 10), coeff_bound=12,
                        strategy=Strategy.POSITIVE_ONLY)
    polys = [parse_polynomial(t) for t in (*FIXTURES.values(), "1/2,-3/7,5/3,0,2/9")]
    polys += [random_polynomial(config, i) for i in range(config.cases)]
    out = [classify(build(p))[1] for p in polys]
    return [e for e in out if e.p0 is not None]


class TestCanonicalRoots:
    def test_points_and_cells_of_one_level(self, gamma_evidence):
        cells = 0
        for evidence in gamma_evidence:
            forms = cli._printed_forms(evidence)
            widths = {hi - lo for lo, hi in forms.values() if lo != hi}
            assert len(widths) <= 1
            for root, (lo, hi) in forms.items():
                if lo == hi:
                    assert sign_at(root.witness, lo) == 0
                    continue
                width = hi - lo
                assert width.numerator == 1 and width.denominator >= 2 ** 20
                assert (lo / width).denominator == 1
                assert sturm_count(root.witness, lo, hi) == 1
                cells += 1
        assert cells >= 50

    def test_report_does_not_depend_on_the_intervals(self, gamma_evidence):
        for evidence in gamma_evidence:
            narrow = _narrowed(evidence, 30)
            assert cli._evidence_json(narrow) == cli._evidence_json(evidence)

    def test_printer_raises_when_no_cell_isolates(self, monkeypatch):
        # With the isolation test broken, no report level would do.
        monkeypatch.setattr(cli, "isolates", lambda p, lo, hi: False)
        with pytest.raises(InvariantError):
            cli.main(["classify", "6,-6,4,-3,1"])


class TestVerify:
    def test_fixture_agreements(self, capsys):
        for text in ["2,0,-2,0,1", "1,0,1", "1,0,0,0,1", "100,0,84,0,-15,0,1"]:
            code, out, _ = run_cli(capsys, "verify", text)
            assert code == 0
            assert json.loads(out)["agreement"] is True

    def test_malformed_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "not-a-poly")
        assert code == 2

    def test_mismatch_exit_1(self, capsys, monkeypatch):
        # No real polynomial disagrees, so force a wrong prediction to pin
        # the exit-code contract.
        monkeypatch.setattr(cli, "predict_verdict", lambda label: Verdict.FAILS)
        code, out, _ = run_cli(capsys, "verify", "-1,0,1")
        assert code == 1
        assert json.loads(out)["agreement"] is False

    def test_prints_no_evidence(self, capsys, monkeypatch):
        # verify reports five fields, none of them a root, so it never runs
        # the printer that canonicalises the evidence roots of classify.
        def printer_called(evidence):
            raise AssertionError("verify must not print evidence")

        monkeypatch.setattr(cli, "_evidence_json", printer_called)
        code, out, _ = run_cli(capsys, "verify", FIXTURES[ClassLabel.GAMMA_121])
        assert code == 0
        assert list(json.loads(out)) == ["polynomial", "label", "predicted", "actual",
                                         "agreement"]


class TestFuzzCommand:
    def test_byte_identical_runs(self, capsys):
        args = ["fuzz", "--seed", "7", "--cases", "60", "--degrees", "2:6", "--bound", "9"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    def test_zero_cases(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--cases", "0")
        assert code == 0
        summary = json.loads(out)
        assert summary["total"] == 0
        assert summary["disagreements"] == []

    def test_no_disagreements(self, capsys):
        _, out, _ = run_cli(capsys, "fuzz", "--seed", "5", "--cases", "80",
                            "--degrees", "2:6", "--strategy", "positive_only")
        summary = json.loads(out)
        assert summary["disagreements"] == []
        assert summary["agreements"] + summary["delta_zero_count"] == summary["total"]

    def test_bound_past_bit_cap_exit_3(self, capsys, monkeypatch):
        # 2**64 has 65 bits, one past MAX_COEFF_BITS.
        def run_called(config):
            raise AssertionError("run_fuzz must not run past the bit cap")

        monkeypatch.setattr(cli, "run_fuzz", run_called)
        code, out, err = run_cli(capsys, "fuzz", "--bound", "18446744073709551616", "--cases", "2")
        assert code == 3
        assert out == ""
        assert "at most 64 bits" in err

    @pytest.mark.parametrize("strategy", ["positive_only", "targeted"])
    def test_factor_bound_past_32_bits_exit_3(self, capsys, monkeypatch, strategy):
        # 2**32 has 33 bits, one past MAX_FACTOR_BOUND_BITS.
        def run_called(config):
            raise AssertionError("run_fuzz must not run past the factor bound cap")

        monkeypatch.setattr(cli, "run_fuzz", run_called)
        code, out, err = run_cli(capsys, "fuzz", "--bound", "4294967296", "--cases", "1",
                                 "--strategy", strategy)
        assert code == 3
        assert out == ""
        assert "at most 32 bits" in err

    def test_bound_at_bit_cap_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--bound", "18446744073709551615", "--cases", "2")
        assert code == 0
        assert json.loads(out)["total"] == 2

    def test_bad_degrees_exit(self, capsys):
        code, _, _ = run_cli(capsys, "fuzz", "--degrees", "nope")
        assert code == 2
        code, _, _ = run_cli(capsys, "fuzz", "--degrees", "3:7")
        assert code == 3


class TestPlotdata:
    def test_header_and_grid(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata", "1,0,1", "--range=-3:3", "--samples", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,K,delta,parity,is_event"
        assert len(lines) == 1 + 7  # grid point 0 coincides with the pole row

    def test_gain_increasing_on_positive_axis(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata", "1,0,1", "--range=-3:3", "--samples", "7")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ks = [float(r[1]) for r in rows if r[1] and float(r[0]) > 0]
        assert ks == sorted(ks)
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_event_row_flagged(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata", "1,0,1", "--range=-1:1", "--samples", "3")
        rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[1:]}
        assert rows["0"][4] == "true"
        assert rows["0"][1] == "0"      # gain vanishes at the pole
        assert rows["0"][3] == ""       # no parity tag on event rows

    def test_minimal_grid(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata", "1,0,1", "--range", "1:2", "--samples", "2")
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + 2 grid rows, no event in range

    def test_decimal_accuracy(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata", "2,0,-2,0,1", "--range", "2:3", "--samples", "5")
        inst = build(parse_polynomial("2,0,-2,0,1"))
        for line in out.strip().splitlines()[1:]:
            x_s, k_s, d_s, _, _ = line.split(",")
            x = Fraction(x_s)
            if k_s:
                exact = gain_at(oracle_pp(inst), x)
                assert abs(Fraction(str(k_s)) - exact) <= abs(exact) * Fraction(1, 10 ** 10)
            exact_d = inst.delta.eval_at(x)
            if exact_d:
                assert abs(Fraction(str(d_s)) - exact_d) <= abs(exact_d) * Fraction(1, 10 ** 10)

    def test_isolates_each_polynomial_once(self, capsys, monkeypatch):
        # The events come from the roots of p, p' and p'', the breakaways
        # from those of B/g^3, and nothing is isolated twice.
        isolated = []
        original = realroots.isolate_real_roots

        def recording(q):
            isolated.append(q)
            return original(q)

        for module in (cli, realroots, shapiro):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, recording)
        text = FIXTURES[ClassLabel.GAMMA_121]
        inst = build(parse_polynomial(text))
        reduced = shapiro._reduced_breakaway_polynomial(inst)
        assert original(reduced)  # B/g^3 has real roots
        code, out, _ = run_cli(capsys, "plotdata", text, "--range", "-3:3", "--samples", "5")
        assert code == 0 and "true" in out
        assert sorted(isolated, key=lambda q: q.prim) \
            == sorted([inst.p, inst.p1, inst.p2, reduced], key=lambda q: q.prim)

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "plotdata", "1,0,1", "--range", "5:1")
        assert code == 2

    @pytest.mark.parametrize("text", ["0:1e5", "0:1_0", "0:1.5", "-1/0:1", "0:1:2", "0"])
    def test_undocumented_range_token_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "plotdata", "1,0,1", "--range", text)
        assert code == 2
        assert out == ""
        assert "malformed range" in err

    @pytest.mark.parametrize("text", [
        "0:18446744073709551616", "-1/18446744073709551616:1",
        pytest.param("0:" + "1" * 5000, id="5000-digit-endpoint")])
    def test_range_endpoint_past_bit_cap_exit_3(self, capsys, monkeypatch, text):
        # 2**64 has 65 bits, one past MAX_COEFF_BITS.
        def build_called(poly):
            raise AssertionError("build must not run past the bit cap")

        monkeypatch.setattr(cli, "build", build_called)
        code, out, err = run_cli(capsys, "plotdata", "1,0,1", "--range", text)
        assert code == 3
        assert out == ""
        assert "at most 64 bits" in err

    def test_range_endpoint_at_bit_cap_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata", "1,0,1", "--range",
                               "-1/18446744073709551615:18446744073709551615", "--samples", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3  # two grid rows and the pole at 0

    def test_samples_at_cap_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata", "1,0,1", "--range", "1:2",
                               "--samples", str(cli.MAX_SAMPLES))
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + cli.MAX_SAMPLES

    def test_samples_past_cap_exit_3(self, capsys, monkeypatch):
        def build_called(poly):
            raise AssertionError("build must not run past the samples cap")

        monkeypatch.setattr(cli, "build", build_called)
        code, out, err = run_cli(capsys, "plotdata", "1,0,1", "--range", "1:2",
                                 "--samples", str(cli.MAX_SAMPLES + 1))
        assert code == 3
        assert out == ""
        assert f"at most {cli.MAX_SAMPLES}" in err


class TestExample:
    def test_seeded(self, capsys):
        code, out, _ = run_cli(capsys, "example", "Gamma11")
        assert code == 0
        assert out.strip() == "1,0,1"

    def test_not_found(self, capsys):
        code, out, _ = run_cli(capsys, "example", "Gamma2321")
        assert code == 0
        assert out.strip() == "NOT_FOUND"

    def test_unknown_label(self, capsys):
        code, _, _ = run_cli(capsys, "example", "Gamma9999")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "1," * 50000 + "x"),
    ("plotdata", "1,0,1", "--range", "x" * 50000),
    ("fuzz", "--degrees", "x" * 50000),
    ("example", "x" * 50000),
    ("fuzz", "--strategy", "x" * 50000),
    ("fuzz", "--seed", "x" * 50000),
    ("fuzz", "--seed", "a'b\"c" * 20),
    ("fuzz", "--cases", "x" * 50000),
    ("fuzz", "--bound", "x" * 50000),
    ("plotdata", "1,0,1", "--samples", "x" * 50000),
    ("x" * 50000,),
], ids=["verify", "plotdata-range", "fuzz-degrees", "example-label", "fuzz-strategy",
        "fuzz-seed", "fuzz-seed-quotes", "fuzz-cases", "fuzz-bound", "plotdata-samples",
        "unknown-command"])
def test_long_malformed_argument_echoed_in_short(capsys, argv):
    # A parse error repeats a prefix of the argument and its length, not
    # the whole argument; the length counts the argument, not its repr.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err) < 400 and f"({len(argv[-1])} characters)" in err
