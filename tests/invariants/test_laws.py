"""Tests for conservation-law terms, evaluation, and violation reports."""

import random

import pytest

from repro.invariants import (
    ConservationLaw,
    InvariantViolation,
    Term,
    counter_term,
)
from repro.observability import MetricsRegistry


def law_of(lhs_vals, rhs_vals, **kwargs):
    """A law over fixed labeled values, e.g. ({"a": 3}, {"b": 3})."""
    return ConservationLaw(
        name=kwargs.pop("name", "test.law"),
        lhs=[Term(k, lambda v=v: v) for k, v in lhs_vals.items()],
        rhs=[Term(k, lambda v=v: v) for k, v in rhs_vals.items()],
        **kwargs)


class TestTerm:
    def test_value_coerces_to_float(self):
        assert Term("n", lambda: 3).value() == 3.0
        assert isinstance(Term("n", lambda: 3).value(), float)

    def test_counter_term_reads_registry_total(self):
        registry = MetricsRegistry()
        term = counter_term(registry, "domain.widgets", "widgets")
        assert term.label == "widgets"
        assert term.value() == 0.0          # metric not emitted yet
        registry.incr("domain.widgets", 5)
        assert term.value() == 5.0

    def test_counter_term_default_label_is_metric_name(self):
        assert counter_term(MetricsRegistry(), "a.b").label == "a.b"


class TestConservationLaw:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConservationLaw("empty", lhs=[], rhs=[Term("x", lambda: 0)])
        with pytest.raises(ValueError):
            ConservationLaw("empty", lhs=[Term("x", lambda: 0)], rhs=[])
        with pytest.raises(ValueError):
            law_of({"a": 1}, {"b": 1}, tol=-0.1)

    def test_balanced_law_passes_and_counts(self):
        law = law_of({"a": 3, "b": 4}, {"c": 7})
        law.check(time=1.0)
        law.check(time=2.0)
        assert law.checks == 2
        assert law.violations == 0

    def test_within_tolerance_passes(self):
        law_of({"a": 1.0}, {"b": 1.0 + 1e-9}).check()
        law_of({"a": 1.0}, {"b": 1.05}, tol=0.1).check()

    def test_imbalance_raises_with_labeled_delta(self):
        law = law_of({"a": 3, "b": 4}, {"c": 6}, name="books")
        with pytest.raises(InvariantViolation) as excinfo:
            law.check(time=12.5)
        v = excinfo.value
        assert law.violations == 1
        assert v.law is law
        assert v.time == 12.5
        assert v.lhs_values == [("a", 3.0), ("b", 4.0)]
        assert v.rhs_values == [("c", 6.0)]
        assert v.lhs_total == 7.0 and v.rhs_total == 6.0
        assert v.delta == 1.0
        assert str(v) == ("invariant 'books' violated at t=12.5: "
                          "[a=3 + b=4] = 7 != [c=6] = 6 (delta +1)")

    def test_negative_delta_is_signed(self):
        with pytest.raises(InvariantViolation) as excinfo:
            law_of({"a": 5}, {"b": 8}).check()
        assert excinfo.value.delta == -3.0
        assert "(delta -3)" in str(excinfo.value)

    def test_violation_is_an_assertion_error(self):
        # So plain `pytest.raises(AssertionError)` and unittest-style
        # harnesses treat a conservation failure as a test failure.
        assert issubclass(InvariantViolation, AssertionError)

    def test_guard_skips_inapplicable_law(self):
        gate = {"open": False}
        law = law_of({"a": 1}, {"b": 99}, when=lambda: gate["open"])
        law.check()                  # guarded: no evaluation, no raise
        assert law.checks == 0
        gate["open"] = True
        with pytest.raises(InvariantViolation):
            law.check()

    def test_violation_carries_sim_time_and_seed(self):
        law = law_of({"a": 3}, {"b": 1}, name="books")
        with pytest.raises(InvariantViolation) as excinfo:
            law.check(time=42.5, seed=1337)
        v = excinfo.value
        assert v.time == 42.5
        assert v.seed == 1337
        assert str(v) == ("invariant 'books' violated at t=42.5 "
                          "seed=1337: [a=3] = 3 != [b=1] = 1 (delta +2)")

    def test_violation_without_seed_omits_it(self):
        with pytest.raises(InvariantViolation) as excinfo:
            law_of({"a": 3}, {"b": 1}).check(time=5.0)
        v = excinfo.value
        assert v.seed is None
        assert "seed" not in str(v)
        assert "t=5" in str(v)

    def test_terms_read_live_state(self):
        books = {"in": 0, "out": 0}
        law = ConservationLaw(
            "live", lhs=[Term("in", lambda: books["in"])],
            rhs=[Term("out", lambda: books["out"])])
        law.check()
        books["in"] = 2
        books["out"] = 2
        law.check()
        books["out"] = 1
        with pytest.raises(InvariantViolation):
            law.check()


def reference_check(law, time=0.0, seed=None):
    """The evaluate-then-sum formulation: the violation ``check`` must
    raise, or ``None`` where it must pass."""
    lhs_values, rhs_values = law.evaluate()
    lhs_total = sum(v for _, v in lhs_values)
    rhs_total = sum(v for _, v in rhs_values)
    if abs(lhs_total - rhs_total) > law.tol:
        return InvariantViolation(law, time, lhs_values, rhs_values,
                                  seed=seed)
    return None


def assert_check_matches_reference(law, time=0.0, seed=None):
    expected = reference_check(law, time, seed)
    checks, violations = law.checks, law.violations
    if expected is None:
        law.check(time=time, seed=seed)
        assert law.violations == violations
    else:
        with pytest.raises(InvariantViolation) as excinfo:
            law.check(time=time, seed=seed)
        v = excinfo.value
        assert str(v) == str(expected)
        assert v.delta == expected.delta
        assert v.lhs_total == expected.lhs_total
        assert v.rhs_total == expected.rhs_total
        assert v.lhs_values == expected.lhs_values
        assert v.rhs_values == expected.rhs_values
        assert law.violations == violations + 1
    assert law.checks == checks + 1
    return expected is not None


class TestCheckMatchesEvaluateThenSum:
    @pytest.mark.parametrize("lhs, rhs, raises", [
        ([0.1, 0.2], [0.3], True),            # 0.30000000000000004
        ([0.1, 0.2, 0.3], [0.6], True),       # 0.6000000000000001
        ([0.3, 0.2, 0.1], [0.6], False),      # same terms, other order
        ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1], True),
        ([1e16, 1.0, -1e16], [0.0], False),   # the 1.0 is absorbed
        ([1e16, -1e16, 1.0], [0.0], True),
    ])
    def test_non_associative_float_terms(self, lhs, rhs, raises):
        law = ConservationLaw(
            "float.books", tol=0.0,
            lhs=[Term(f"l{i}", lambda v=v: v) for i, v in enumerate(lhs)],
            rhs=[Term(f"r{i}", lambda v=v: v) for i, v in enumerate(rhs)])
        assert assert_check_matches_reference(law, time=3.5, seed=9) is raises

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_laws(self, seed):
        rng = random.Random(seed)
        pool = [0.1, 0.2, 0.3, 0.7, 1e-9, 1e16, -1e16, 1, 3, True]
        tols = [0.0, 1e-17, 1e-6, 0.5]
        raised = passed = 0
        for i in range(300):
            def terms(side):
                return [Term(f"{side}{j}", lambda v=rng.choice(pool): v)
                        for j in range(rng.randint(1, 4))]
            law = ConservationLaw(f"law{i}", lhs=terms("l"), rhs=terms("r"),
                                  tol=rng.choice(tols))
            if assert_check_matches_reference(law, time=float(i),
                                              seed=rng.choice([None, i])):
                raised += 1
            else:
                passed += 1
        assert raised > 0 and passed > 0
