"""Tests for the Yardstick benchmark ([84])."""

import pytest

from repro.mmog.world import Zone
from repro.mmog.yardstick import capacity_study, run_yardstick


class TestYardstick:
    def test_curve_degrades_past_soft_capacity(self):
        zone = Zone("srv", soft_capacity=50, hard_capacity=100,
                    base_tick_hz=20.0)
        report = run_yardstick(zone, max_bots=120,
                               playability_floor_hz=10.0)
        assert report.degradation_onset == 51
        curve = {s.population: s.tick_hz for s in report.samples if s.joined}
        assert curve[50] == 20.0
        assert curve[100] < 20.0

    def test_max_playable_between_soft_and_hard(self):
        zone = Zone("srv", soft_capacity=50, hard_capacity=100,
                    base_tick_hz=20.0)
        report = run_yardstick(zone, max_bots=120,
                               playability_floor_hz=10.0)
        assert 50 <= report.max_playable_population < 100

    def test_hard_capacity_refusal_recorded(self):
        zone = Zone("srv", soft_capacity=10, hard_capacity=20)
        report = run_yardstick(zone, max_bots=50)
        assert report.hard_capacity_hit
        assert report.samples[-1].joined is False

    def test_no_degradation_below_soft(self):
        zone = Zone("srv", soft_capacity=200, hard_capacity=300)
        report = run_yardstick(zone, max_bots=100)
        assert report.degradation_onset is None
        assert report.max_playable_population == 100

    def test_validation(self):
        zone = Zone("srv", soft_capacity=10, hard_capacity=20)
        with pytest.raises(ValueError):
            run_yardstick(zone, max_bots=0)

    def test_capacity_study_scales(self):
        rows = capacity_study([20, 50, 100])
        playable = [r["max_playable"] for r in rows]
        assert playable == sorted(playable)
        for row in rows:
            # Real playable capacity exceeds nominal but not by the full
            # hard factor — degradation bites first.
            assert row["nominal_capacity"] <= row["max_playable"]
            assert row["max_playable"] < row["nominal_capacity"] * 1.5
