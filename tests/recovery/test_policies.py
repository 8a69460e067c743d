"""Tests for the checkpoint interval policies."""

import math

import pytest

from repro.recovery import (
    DalyOptimalCheckpoint,
    PeriodicCheckpoint,
    daly_interval_s,
)


class TestDalyInterval:
    def test_formula(self):
        assert daly_interval_s(10.0, 500.0) == pytest.approx(
            math.sqrt(2 * 10.0 * 500.0))

    def test_monotone_in_both_arguments(self):
        base = daly_interval_s(1.0, 100.0)
        assert daly_interval_s(4.0, 100.0) == pytest.approx(2 * base)
        assert daly_interval_s(1.0, 400.0) == pytest.approx(2 * base)

    @pytest.mark.parametrize("cost,mtbf", [(0, 100), (-1, 100),
                                           (1, 0), (1, -5)])
    def test_invalid_inputs(self, cost, mtbf):
        with pytest.raises(ValueError):
            daly_interval_s(cost, mtbf)


class TestPeriodicCheckpoint:
    def test_fixed_interval(self):
        policy = PeriodicCheckpoint(30.0)
        assert policy.interval_s() == 30.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PeriodicCheckpoint(0.0)


class TestDalyOptimalCheckpoint:
    def test_from_explicit_mtbf(self):
        policy = DalyOptimalCheckpoint(2.0, mtbf_s=800.0)
        assert policy.interval_s() == pytest.approx(
            daly_interval_s(2.0, 800.0))

    def test_reads_mtbf_from_fault_model(self):
        class FakeModel:
            mtbf_s = 450.0

        policy = DalyOptimalCheckpoint(2.0, fault_model=FakeModel())
        assert policy.mtbf_s == 450.0
        assert policy.interval_s() == pytest.approx(
            daly_interval_s(2.0, 450.0))

    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError):
            DalyOptimalCheckpoint(2.0)
        with pytest.raises(ValueError):
            DalyOptimalCheckpoint(2.0, fault_model=object(), mtbf_s=10.0)

    def test_invalid_cost_fails_at_construction(self):
        with pytest.raises(ValueError):
            DalyOptimalCheckpoint(0.0, mtbf_s=100.0)

