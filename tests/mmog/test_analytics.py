"""Tests for CAMEO-style continuous gaming analytics ([79])."""

import pytest

from repro.mmog.analytics import (
    CameoAnalytics,
    SessionRecord,
    dau,
    generate_sessions,
)
from repro.sim import RandomStreams


@pytest.fixture(scope="module")
def sessions():
    rng = RandomStreams(seed=21).get("cameo")
    return generate_sessions(rng, n_players=400, days=7,
                             churn_per_day=0.05)


class TestSessionGeneration:
    def test_invalid_session_rejected(self):
        with pytest.raises(ValueError):
            SessionRecord("p", start=10.0, end=10.0)

    def test_sessions_sorted_and_spanning_days(self, sessions):
        starts = [s.start for s in sessions]
        assert starts == sorted(starts)
        assert {s.day for s in sessions} == set(range(7))

    def test_power_law_activity(self, sessions):
        counts = {}
        for s in sessions:
            counts[s.player] = counts.get(s.player, 0) + 1
        values = sorted(counts.values(), reverse=True)
        # The most active player far out-plays the median player.
        assert values[0] > 3 * values[len(values) // 2]

    def test_validation(self):
        rng = RandomStreams(seed=1).get("x")
        with pytest.raises(ValueError):
            generate_sessions(rng, n_players=0)


class TestExactKPIs:
    def test_dau_counts_distinct_players(self):
        day = [SessionRecord("a", 10, 20), SessionRecord("a", 30, 40),
               SessionRecord("b", 50, 60)]
        assert dau(day, 0) == 2
        assert dau(day, 1) == 0

    def test_churn_declines_population(self, sessions):
        assert dau(sessions, 6) < dau(sessions, 0)


class TestCameo:
    def test_full_analysis_is_exact(self, sessions):
        report = CameoAnalytics().analyze(sessions, fraction=1.0)
        assert report.mean_relative_error == pytest.approx(0.0)
        assert report.events_processed == len(sessions)

    def test_sampling_cuts_cost(self, sessions):
        cameo = CameoAnalytics()
        full = cameo.analyze(sessions, fraction=1.0)
        sampled = cameo.analyze(sessions, fraction=0.2)
        assert sampled.cloud_cost < 0.35 * full.cloud_cost
        assert sampled.events_processed < full.events_processed

    def test_smaller_samples_larger_errors(self, sessions):
        cameo = CameoAnalytics()
        coarse = cameo.analyze(sessions, fraction=0.05)
        fine = cameo.analyze(sessions, fraction=0.5)
        assert fine.mean_relative_error <= (
            coarse.mean_relative_error + 1e-9)
        assert coarse.mean_relative_error < 1.0  # still in the ballpark

    def test_budget_planning(self, sessions):
        cameo = CameoAnalytics()
        full_cost = len(sessions) * cameo.cost_per_event
        fraction = cameo.max_fraction_for_budget(sessions, full_cost / 4)
        assert fraction == pytest.approx(0.25, rel=0.01)
        report = cameo.analyze_within_budget(sessions, full_cost / 4)
        assert report.cloud_cost <= full_cost / 4 * 1.05

    def test_generous_budget_caps_at_full(self, sessions):
        cameo = CameoAnalytics()
        assert cameo.max_fraction_for_budget(sessions, 10**9) == 1.0

    def test_validation(self, sessions):
        cameo = CameoAnalytics()
        with pytest.raises(ValueError):
            cameo.analyze(sessions, fraction=0.0)
        with pytest.raises(ValueError):
            cameo.max_fraction_for_budget(sessions, 0.0)
        with pytest.raises(ValueError):
            CameoAnalytics(cost_per_event=0)
