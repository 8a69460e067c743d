"""Tests for the retry schedule."""

import pytest

from repro.faults import RetryPolicy
from repro.serverless import FaaSPlatform
from repro.sim import Environment, RandomStreams


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
