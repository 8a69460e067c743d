"""Tests for the retry schedule and the hedge combinator."""

import pytest

from repro.faults import Hedge, RetryPolicy
from repro.serverless import FaaSPlatform
from repro.sim import Environment, Interrupt, RandomStreams


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=5.0, jitter=0.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3, 4)] == [1, 2, 4, 5]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay_s=10.0, jitter=0.2)
        rng = RandomStreams(3).get("jitter")
        delays = [policy.backoff_s(1, rng) for _ in range(200)]
        assert all(8.0 <= d <= 12.0 for d in delays)
        assert len(set(delays)) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestHedge:
    def test_hedge_beats_straggling_primary(self):
        env = Environment()
        durations = iter([10.0, 1.0])
        result = {}

        def attempt():
            d = next(durations)
            yield env.timeout(d)
            return d

        def proc(env):
            hedge = Hedge(delay_s=2.0)
            result["value"] = yield from hedge.run(env, attempt)
            result["t"] = env.now
            result["wins"] = hedge.hedge_wins
            result["launched"] = hedge.launched

        env.process(proc(env))
        env.run()
        # Hedge launched at t=2, finishes at t=3, beating the 10s primary.
        assert result == {"value": 1.0, "t": 3.0, "wins": 1, "launched": 2}

    def test_fast_primary_needs_no_hedge(self):
        env = Environment()
        result = {}

        def attempt():
            yield env.timeout(1.0)
            return "primary"

        def proc(env):
            hedge = Hedge(delay_s=5.0)
            result["value"] = yield from hedge.run(env, attempt)
            result["hedges"] = hedge.hedges

        env.process(proc(env))
        env.run()
        assert result == {"value": "primary", "hedges": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            Hedge(delay_s=0.0)


class TestHedgeCancellation:
    def test_losers_are_cancelled_not_leaked(self):
        env = Environment()
        running = {"n": 0}
        interrupted = []

        def attempt():
            durations = [30.0, 20.0, 1.0]
            d = durations[min(running["n"], 2)]
            running["n"] += 1
            tag = running["n"]
            try:
                yield env.timeout(d)
                return tag
            except Interrupt as intr:
                interrupted.append((tag, str(intr.cause), env.now))
                raise

        def proc(env):
            hedge = Hedge(delay_s=2.0, max_hedges=2)
            value = yield from hedge.run(env, attempt)
            assert value == 3  # the third (fastest) attempt wins
            assert hedge.hedge_wins == 1
            assert hedge.launched == 3

        env.process(proc(env))
        env.run(until=10.0)
        # Both stragglers were interrupted the moment the winner finished
        # (t = 2 + 2 + 1 = 5), not left running to completion.
        assert sorted(interrupted) == [(1, "hedge-won", 5.0),
                                       (2, "hedge-won", 5.0)]
        assert env.now == 10.0

    def test_loser_failure_after_loss_does_not_crash_run(self):
        env = Environment()

        def fast_then_fail():
            order = {"n": 0}

            def factory():
                order["n"] += 1
                if order["n"] == 1:
                    return slow_failure()
                return quick_win()
            return factory

        def slow_failure():
            yield env.timeout(5.0)
            raise RuntimeError("too late anyway")

        def quick_win():
            yield env.timeout(0.5)
            return "ok"

        def proc(env):
            hedge = Hedge(delay_s=1.0)
            value = yield from hedge.run(env, fast_then_fail())
            assert value == "ok"

        env.process(proc(env))
        # Run past the loser's failure time: the defused failure of the
        # abandoned primary must not crash the simulation.
        env.run(until=20.0)


class TestJitterRequiresRng:
    """Jittered backoff without an rng is a refused configuration, not a
    silently-unjittered one (it would phase-lock retry storms while
    reporting a jittered setup)."""

    def test_backoff_with_jitter_and_no_rng_raises(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.1)
        with pytest.raises(ValueError, match="rng=None"):
            policy.backoff_s(1)

    def test_default_policy_requires_rng_too(self):
        # The default jitter is nonzero on purpose: opting out must be
        # explicit, never accidental.
        assert RetryPolicy().jitter > 0
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(1)

    def test_explicit_zero_jitter_is_deterministic_without_rng(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=8.0, jitter=0.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3, 4, 5)] \
            == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_jitter_with_named_stream_is_seeded(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.2)

        def draws():
            rng = RandomStreams(9).get("retry-jitter")
            return [policy.backoff_s(1, rng) for _ in range(5)]

        a, b = draws(), draws()
        assert a == b
        assert len(set(a)) > 1

    def test_platform_propagates_the_requirement(self):
        # The FaaS platform runs the retry loop, so it refuses a jittered
        # policy without a stream up front, not at the first retry.
        with pytest.raises(ValueError, match="retry_rng is None"):
            FaaSPlatform(Environment(),
                         retry_policy=RetryPolicy(jitter=0.1))
        FaaSPlatform(Environment(), retry_policy=RetryPolicy(jitter=0.0))
