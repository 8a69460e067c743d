"""Tests for the fault models."""

import pytest

from repro.faults import (
    CrashRestart,
    MessageLossModel,
    StragglerModel,
    TransientErrorModel,
)
from repro.sim import Environment, Monitor, RandomStreams


class FlakyTarget:
    """Minimal crash/restart target for the generic models."""

    def __init__(self, name="t"):
        self.name = name
        self.up = True
        self.crashes = 0

    def fail(self):
        self.up = False
        self.crashes += 1

    def repair(self):
        self.up = True

    @property
    def is_up(self):
        return self.up


@pytest.fixture
def rng():
    return RandomStreams(seed=42).get("faults")


class TestTransientErrorModel:
    def test_rate_respected_statistically(self, rng):
        model = TransientErrorModel(rng, error_rate=0.3)
        hits = sum(model.should_fail() for _ in range(10_000))
        assert 0.27 < hits / 10_000 < 0.33
        assert model.checks == 10_000
        assert model.injected == hits

    def test_zero_rate_never_fails_and_preserves_stream(self, rng):
        model = TransientErrorModel(rng, error_rate=0.0)
        assert not any(model.should_fail() for _ in range(100))
        # The disabled path must not consume random numbers: the stream's
        # next draw equals a fresh stream's first draw.
        fresh = RandomStreams(seed=42).get("faults")
        assert rng.random() == fresh.random()

    def test_disabled_model_is_noop(self, rng):
        model = TransientErrorModel(rng, error_rate=1.0, enabled=False)
        assert not model.should_fail()

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            TransientErrorModel(rng, error_rate=1.5)

    def test_deterministic_under_seed(self):
        a = TransientErrorModel(RandomStreams(7).get("x"), 0.4)
        b = TransientErrorModel(RandomStreams(7).get("x"), 0.4)
        assert [a.should_fail() for _ in range(50)] == \
            [b.should_fail() for _ in range(50)]


class TestStragglerModel:
    def test_factors_are_one_or_multiplier(self, rng):
        model = StragglerModel(rng, probability=0.25, multiplier=6.0)
        factors = {model.runtime_factor() for _ in range(500)}
        assert factors == {1.0, 6.0}
        assert 0 < model.stragglers < 500

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            StragglerModel(rng, probability=2.0)
        with pytest.raises(ValueError):
            StragglerModel(rng, probability=0.5, multiplier=0.5)


class TestMessageLossModel:
    def test_goodput_plus_lost_equals_transferred(self, rng):
        model = MessageLossModel(rng, loss_rate=0.2)
        total = 0.0
        for _ in range(200):
            total += model.transfer(10.0)
        assert total == pytest.approx(model.delivered_mb)
        assert model.lost_mb > 0
        # Statistically ~20% lost.
        lost_frac = model.lost_mb / (model.lost_mb + model.delivered_mb)
        assert 0.15 < lost_frac < 0.25

    def test_lossless_channel(self, rng):
        model = MessageLossModel(rng, loss_rate=0.0)
        assert model.transfer(5.0) == 5.0
        assert model.lost_mb == 0.0


class TestCrashRestart:
    def test_targets_fail_and_repair(self, rng):
        env = Environment()
        targets = [FlakyTarget(f"t{i}") for i in range(10)]
        mon = Monitor(env)
        model = CrashRestart(env, targets, rng, mtbf_s=50.0, mttr_s=10.0,
                             monitor=mon, name="node")
        env.run(until=1000)
        assert model.failures > 0
        assert model.repairs > 0
        assert mon.counters["node_failures"].total == model.failures
        assert sum(t.crashes for t in targets) == model.failures

    def test_empirical_availability_matches_theory(self):
        env = Environment()
        targets = [FlakyTarget(f"t{i}") for i in range(30)]
        rng = RandomStreams(seed=11).get("avail")
        model = CrashRestart(env, targets, rng, mtbf_s=100.0, mttr_s=25.0)
        env.run(until=4000)
        assert model.expected_availability == pytest.approx(0.8)
        assert model.empirical_availability() == pytest.approx(
            model.expected_availability, abs=0.05)

    def test_callbacks_fire(self, rng):
        env = Environment()
        targets = [FlakyTarget()]
        downs, ups = [], []
        CrashRestart(env, targets, rng, mtbf_s=20.0, mttr_s=5.0,
                     on_fail=downs.append, on_repair=ups.append)
        env.run(until=500)
        assert downs and ups

    def test_invalid_params(self, rng):
        env = Environment()
        with pytest.raises(ValueError):
            CrashRestart(env, [FlakyTarget()], rng, mtbf_s=0, mttr_s=1)


class TestCrashRestartAvailabilityConvergence:
    def test_empirical_converges_to_expected_on_long_runs(self):
        env = Environment()
        rng = RandomStreams(seed=3).get("crash")
        targets = [FlakyTarget(f"t{i}") for i in range(5)]
        model = CrashRestart(env, targets, rng, mtbf_s=100.0, mttr_s=25.0)
        env.run(until=200_000)
        assert model.expected_availability == pytest.approx(0.8)
        # Long-run empirical availability converges tightly (LLN): the
        # short-run test above tolerates 5%, here we demand 1%.
        assert model.empirical_availability() == pytest.approx(
            model.expected_availability, abs=0.01)

    def test_convergence_improves_with_horizon(self):
        def gap_at(horizon):
            env = Environment()
            rng = RandomStreams(seed=5).get("crash")
            targets = [FlakyTarget(f"t{i}") for i in range(3)]
            model = CrashRestart(env, targets, rng,
                                 mtbf_s=50.0, mttr_s=50.0)
            env.run(until=horizon)
            return abs(model.empirical_availability()
                       - model.expected_availability)

        # 100x the horizon must shrink the estimation error.
        assert gap_at(500_000.0) < gap_at(5_000.0)
