"""Tests for the virtual world, player dynamics, and provisioning."""

import numpy as np
import pytest

from repro.mmog import (
    GENRE_PROFILES,
    LastValuePredictor,
    PlayerSession,
    TrendPredictor,
    Zone,
    run_provisioning,
    simulate_population,
)
from repro.mmog.provisioning import static_provisioning
from repro.sim import RandomStreams


@pytest.fixture
def rng():
    return RandomStreams(seed=13).get("mmog")


class TestZone:
    def test_tick_rate_degrades_above_soft_capacity(self):
        zone = Zone("z", soft_capacity=10, hard_capacity=20)
        for i in range(10):
            assert zone.try_join(PlayerSession(f"p{i}", start=0))
        assert zone.tick_hz == zone.base_tick_hz
        for i in range(5):
            zone.try_join(PlayerSession(f"q{i}", start=0))
        assert zone.tick_hz < zone.base_tick_hz

    def test_hard_capacity_refuses_joins(self):
        zone = Zone("z", soft_capacity=2, hard_capacity=3)
        sessions = [PlayerSession(f"p{i}", start=0) for i in range(4)]
        results = [zone.try_join(s) for s in sessions]
        assert results == [True, True, True, False]

    def test_leave_frees_capacity(self):
        zone = Zone("z", soft_capacity=1, hard_capacity=1)
        s = PlayerSession("p", start=0)
        assert zone.try_join(s)
        zone.leave(s)
        assert s.zone is None
        assert zone.try_join(PlayerSession("q", start=0))

    def test_invalid_capacities(self):
        with pytest.raises(ValueError):
            Zone("z", soft_capacity=10, hard_capacity=5)


class TestPopulationDynamics:
    def test_diurnal_peak_to_trough(self, rng):
        trace = simulate_population(rng, genre="mmorpg", days=5,
                                    base_arrivals_per_s=0.05)
        assert trace.peak_to_trough > 1.5

    def test_growth_sign_follows_genre(self):
        streams = RandomStreams(seed=19)
        growing = simulate_population(streams.get("g"), genre="social",
                                      days=28, base_arrivals_per_s=0.05)
        declining = simulate_population(streams.get("d"), genre="declining",
                                        days=28, base_arrivals_per_s=0.05)
        assert growing.long_term_growth() > declining.long_term_growth()

    def test_unknown_genre_rejected(self, rng):
        with pytest.raises(KeyError):
            simulate_population(rng, genre="idle-clicker")

    def test_daily_peaks_length(self, rng):
        trace = simulate_population(rng, days=4,
                                    base_arrivals_per_s=0.02)
        assert len(trace.daily_peaks()) == 4

    def test_all_genres_simulate(self, rng):
        for genre in GENRE_PROFILES:
            trace = simulate_population(rng, genre=genre, days=2,
                                        base_arrivals_per_s=0.02)
            assert trace.peak > 0


class TestPredictors:
    def test_last_value(self):
        assert LastValuePredictor().predict([1, 2, 3]) == 3
        assert LastValuePredictor().predict([]) == 0.0

    def test_trend_extrapolates(self):
        predictor = TrendPredictor(window=4)
        assert predictor.predict([0, 10, 20, 30], horizon=1) == (
            pytest.approx(40.0))
        assert predictor.predict([0, 10, 20, 30], horizon=3) == (
            pytest.approx(60.0))

    def test_trend_never_negative(self):
        predictor = TrendPredictor(window=3)
        assert predictor.predict([30, 20, 10], horizon=5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrendPredictor(window=1)


class TestProvisioning:
    def _ramp_demand(self):
        # A smooth diurnal-like ramp: 0 -> 2000 -> 0 players over 200 steps.
        x = np.linspace(0, np.pi, 200)
        return 2000 * np.sin(x)

    def test_trend_beats_last_value_on_ramps(self):
        demand = self._ramp_demand()
        last = run_provisioning(demand, LastValuePredictor(),
                                provisioning_delay_steps=4)
        trend = run_provisioning(demand, TrendPredictor(window=6),
                                 provisioning_delay_steps=4)
        assert trend.unserved_player_time < last.unserved_player_time

    def test_static_peak_provisioning_never_underprovisions(self):
        demand = self._ramp_demand()
        static = static_provisioning(demand, percentile=100)
        assert static.underprovisioned_fraction == 0.0

    def test_elastic_cheaper_than_static_peak(self):
        demand = self._ramp_demand()
        static = static_provisioning(demand, percentile=100)
        elastic = run_provisioning(demand, TrendPredictor(window=6),
                                   provisioning_delay_steps=2)
        assert elastic.server_hours < static.server_hours

    def test_under_over_provisioning_accounting(self):
        demand = np.array([0.0, 500.0, 500.0, 0.0])
        result = run_provisioning(demand, LastValuePredictor(),
                                  players_per_server=100,
                                  provisioning_delay_steps=1,
                                  headroom=1.0)
        # Step 1: fleet still at min size -> underprovisioned.
        assert result.underprovisioned_fraction > 0
        assert result.unserved_player_time > 0

    def test_headroom_validation(self):
        with pytest.raises(ValueError):
            run_provisioning([1.0], LastValuePredictor(), headroom=0.5)
        with pytest.raises(ValueError):
            run_provisioning([1.0], LastValuePredictor(),
                             players_per_server=0)

    def test_mean_utilization_bounded(self):
        demand = self._ramp_demand()
        result = run_provisioning(demand, LastValuePredictor())
        assert 0 <= result.mean_utilization <= 1
