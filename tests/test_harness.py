import json

import pytest

from shapiro12 import harness
from shapiro12.harness import (
    FIXTURES,
    FuzzConfig,
    Strategy,
    find_class_example,
    random_polynomial,
    run_fuzz,
)
from shapiro12.polycore import InvariantError, from_coefficients, parse_polynomial
from shapiro12.shapiro import ClassLabel, Verdict, build, classify
from sturm_helper import sturm_count

P = parse_polynomial


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, cases=10, degree_range=(3, 8))
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, cases=10, degree_range=(2, 40))
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, cases=-1)
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, cases=1, coeff_bound=0)

    @pytest.mark.parametrize("strategy", [Strategy.POSITIVE_ONLY, Strategy.TARGETED])
    def test_factor_strategies_cap_the_bound_at_32_bits(self, strategy):
        FuzzConfig(seed=1, cases=1, coeff_bound=2 ** 32 - 1, strategy=strategy)
        with pytest.raises(ValueError, match="at most 32 bits"):
            FuzzConfig(seed=1, cases=1, coeff_bound=2 ** 32, strategy=strategy)

    def test_replace_rechecks(self):
        config = FuzzConfig(seed=1, cases=0, coeff_bound=2 ** 40)
        with pytest.raises(ValueError, match="at most 32 bits"):
            config._replace(strategy=Strategy.TARGETED)
        # The targeted search builds its config the same way.
        with pytest.raises(ValueError, match="at most 32 bits"):
            find_class_example(ClassLabel.GAMMA_2122, 5, config)


class TestRandomPolynomial:
    def test_deterministic(self):
        config = FuzzConfig(seed=9, cases=10)
        for i in range(10):
            assert random_polynomial(config, i) == random_polynomial(config, i)

    def test_uniform_degree_two(self):
        config = FuzzConfig(seed=2, cases=10, degree_range=(2, 2), coeff_bound=5)
        for i in range(10):
            p = random_polynomial(config, i)
            assert p.degree == 2

    def test_positive_only_structure(self):
        config = FuzzConfig(seed=3, cases=30, degree_range=(4, 8),
                            coeff_bound=12, strategy=Strategy.POSITIVE_ONLY)
        for i in range(30):
            p = random_polynomial(config, i)
            assert p.degree % 2 == 0
            assert sturm_count(p) == 0
            assert p.coeffs[-1] == 1

    def test_integer_products_match_polynomial_products(self, monkeypatch):
        # The positive-only generator multiplies integer vectors; the
        # Polynomial product it replaced is the reference, on the same draws.
        def reference(rng, degree, bound):
            p = from_coefficients([1])
            for _ in range(degree // 2):
                while True:
                    b = rng.randint(-bound, bound)
                    c_min = b * b // 4 + 1
                    if c_min <= bound:
                        break
                c = rng.randint(c_min, bound)
                p = p * from_coefficients([c, b, 1])
            return p

        configs = [FuzzConfig(seed=seed, cases=300, degree_range=(2, 16), coeff_bound=12,
                              strategy=strategy)
                   for seed in range(5) for strategy in Strategy]
        fast = [[random_polynomial(c, i) for i in range(c.cases)] for c in configs]
        monkeypatch.setattr(harness, "_positive_only_poly", reference)
        assert fast == [[random_polynomial(c, i) for i in range(c.cases)] for c in configs]

    def test_degrees_stay_in_range(self):
        config = FuzzConfig(seed=4, cases=40, degree_range=(4, 6),
                            strategy=Strategy.TARGETED)
        for i in range(40):
            assert 4 <= random_polynomial(config, i).degree <= 6


class TestRunFuzz:
    def test_uniform_degree_two_has_lambda1(self):
        summary = run_fuzz(FuzzConfig(seed=7, cases=100, degree_range=(2, 2), coeff_bound=9))
        assert summary.disagreements == []
        assert summary.class_histogram.get("Lambda1", 0) >= 1
        assert summary.agreements + len(summary.disagreements) + summary.delta_zero_count \
            == summary.total

    def test_positive_only_populates_gamma(self):
        summary = run_fuzz(FuzzConfig(seed=8, cases=60, degree_range=(4, 6),
                                      coeff_bound=10, strategy=Strategy.POSITIVE_ONLY))
        assert summary.disagreements == []
        gamma_total = sum(count for name, count in summary.class_histogram.items()
                          if name.startswith("Gamma"))
        assert gamma_total >= 1

    def test_delta_identically_zero_checks_the_prediction(self, monkeypatch):
        # Degree 2 at bound 2 draws ax^2 and +-(x +- 1)^2, whose delta is 0;
        # p has a real zero there, so a FAILS prediction is a disagreement,
        # as in verify, and only a passing case counts as delta-zero.
        config = FuzzConfig(seed=1, cases=200, degree_range=(2, 2), coeff_bound=2)
        zero = run_fuzz(config).delta_zero_count
        assert zero > 0
        monkeypatch.setattr(harness, "predict_verdict", lambda label: Verdict.FAILS)
        summary = run_fuzz(config)
        assert summary.delta_zero_count == 0
        assert sum(d.actual == "DELTA_IDENTICALLY_ZERO" and d.predicted == "FAILS"
                   for d in summary.disagreements) == zero

    def test_empty_run(self):
        summary = run_fuzz(FuzzConfig(seed=1, cases=0))
        assert summary.total == 0
        assert summary.agreements == 0
        assert summary.disagreements == []
        assert summary.delta_zero_count == 0

    def test_deterministic_serialization(self):
        config = FuzzConfig(seed=13, cases=50, degree_range=(2, 6), coeff_bound=8)
        first = json.dumps(run_fuzz(config).to_json_dict(), indent=2)
        second = json.dumps(run_fuzz(config).to_json_dict(), indent=2)
        assert first == second

    def test_histogram_lists_every_label(self):
        summary = run_fuzz(FuzzConfig(seed=1, cases=5))
        assert set(summary.to_json_dict()["class_histogram"]) == {l.value for l in ClassLabel}


class TestFindClassExample:
    def test_fixture_hits(self):
        config = FuzzConfig(seed=0, cases=0)
        for label in [ClassLabel.LAMBDA_22, ClassLabel.GAMMA_11, ClassLabel.GAMMA_231]:
            poly = find_class_example(label, budget=0, config=config)
            assert poly is not None
            assert classify(build(poly))[0] is label

    def test_search_finds_lambda_1(self):
        config = FuzzConfig(seed=21, cases=0, degree_range=(2, 4), coeff_bound=6)
        fixtures_removed = dict(FIXTURES)
        # find it by search even without the fixture shortcut
        poly = find_class_example(ClassLabel.LAMBDA_1, budget=50, config=config)
        assert poly is not None and classify(build(poly))[0] is ClassLabel.LAMBDA_1
        assert fixtures_removed == FIXTURES  # search must not mutate fixtures

    def test_unreachable_label_returns_none(self):
        # Empty under multiplicity counting: p'' of even degree keeps an even
        # count on each side of p0, so the odd branches cannot be populated.
        config = FuzzConfig(seed=2, cases=0, degree_range=(4, 8), coeff_bound=8)
        assert find_class_example(ClassLabel.GAMMA_2122, budget=40, config=config) is None

    def test_all_fixtures_classify_to_their_key(self):
        for label, text in FIXTURES.items():
            assert classify(build(P(text)))[0] is label


class TestSearchMemo:
    """find_class_example reads every targeted candidate through one memo."""

    CONFIG = FuzzConfig(seed=29, cases=0, degree_range=(4, 8), coeff_bound=10)

    def report(self, budget=100):
        return {label: find_class_example(label, budget, self.CONFIG) for label in ClassLabel}

    def test_each_candidate_is_classified_once(self, monkeypatch):
        calls = []

        def counting(instance):
            calls.append(instance)
            return classify(instance)

        monkeypatch.setattr(harness, "classify", counting)
        harness._targeted_case.cache_clear()
        self.report()
        # 9 fixtures and 100 candidates.  Without the memo each of the four
        # empty labels classifies all 100 again: 409 calls.
        assert len(calls) == 109
        info = harness._targeted_case.cache_info()
        assert (info.misses, info.hits) == (100, 300)
        # Criterion 7 searches with budget 400: one scan must fit for the next.
        assert harness._targeted_case.cache_parameters()["maxsize"] >= 400

    def test_examples_equal_an_uncached_scan(self, monkeypatch):
        # Without fixtures every label is searched, and some are found late.
        monkeypatch.setattr(harness, "FIXTURES", {})
        harness._targeted_case.cache_clear()
        cached = self.report()
        monkeypatch.setattr(harness, "_targeted_case", harness._targeted_case.__wrapped__)
        assert cached == self.report()
        assert sum(poly is not None for poly in cached.values()) >= 5

    def test_other_errors_propagate_on_every_call(self, monkeypatch):
        calls = []

        def failing(instance):
            calls.append(instance)
            raise InvariantError("broken classifier")

        monkeypatch.setattr(harness, "classify", failing)
        harness._targeted_case.cache_clear()
        for _ in range(2):
            with pytest.raises(InvariantError):
                find_class_example(ClassLabel.GAMMA_2122, budget=5, config=self.CONFIG)
        assert len(calls) == 2
        assert harness._targeted_case.cache_info().currsize == 0
