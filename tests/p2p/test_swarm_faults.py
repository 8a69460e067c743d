"""Tests for churn faults in the swarm simulation."""

import pytest

from repro.p2p import ContentDescriptor, SwarmConfig, Tracker, run_swarm
from repro.sim import RandomStreams
from repro.workload.arrivals import PoissonArrivals


def _config(**kwargs):
    return SwarmConfig(
        content=ContentDescriptor("movie-x", "x264-720p", size_mb=200.0),
        initial_seeds=2, seed_class="university",
        round_s=10.0, horizon_s=2 * 3600.0, **kwargs)


def _run(config, seed=17):
    streams = RandomStreams(seed=seed)
    arrivals = PoissonArrivals(rate=1 / 120.0, rng=streams.get("arrivals"))
    return run_swarm(config, Tracker("t"), streams.get("swarm"), arrivals)


class TestChurn:
    def test_churn_aborts_leechers(self):
        churny = _run(_config(mean_session_s=600.0))
        assert churny.churned_count > 0
        aborted = [p for p in churny.peers if p.aborted]
        assert all(p.departed_at is not None and not p.is_seed
                   for p in aborted)

    def test_churn_lowers_completion_rate(self):
        stable = _run(_config())
        churny = _run(_config(mean_session_s=400.0))
        assert churny.completion_rate < stable.completion_rate

    def test_no_churn_by_default(self):
        stable = _run(_config())
        assert stable.churned_count == 0

    def test_invalid_session_rejected(self):
        with pytest.raises(ValueError):
            _config(mean_session_s=0.0)
