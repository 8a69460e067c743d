"""Acceptance tests for the graceful-degradation layer (PR-3).

The contract from the issue: (1) the phi detector suspects a crashed
machine within a configured window and never falsely suspects a healthy
one across seeds; (2) under overload, admission control buys strictly
higher SLO-goodput and a strictly lower p99 for the requests it serves;
(3) the overload scenario is bit-reproducible, with and without
admission control (rows of the table in ``test_determinism.py``).
"""

import pytest

from repro.faults.chaos import (
    run_detection_scenario,
    run_overload_scenario,
    run_scheduling_scenario,
)

DETECTION_WINDOW_S = 15.0


class TestDetection:
    def test_crashed_machine_suspected_within_window(self):
        result = run_detection_scenario(seed=0, crash=True, crash_at_s=30.0)
        assert "m0" in result["suspects"]
        assert result["detection_latency_s"] is not None
        assert 0.0 < result["detection_latency_s"] <= DETECTION_WINDOW_S

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fault_free_run_has_zero_false_suspicions(self, seed):
        result = run_detection_scenario(seed=seed, crash=False)
        assert result["suspects"] == []
        assert result["suspicions"] == 0
        assert result["false_suspicions"] == 0
        assert result["heartbeats_suppressed"] == 0

    def test_detection_is_deterministic(self):
        a = run_detection_scenario(seed=5)
        b = run_detection_scenario(seed=5)
        assert a == b


class TestOverload:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_admission_buys_goodput_and_tail(self, seed):
        raw = run_overload_scenario(seed=seed, admission=False)
        admitted = run_overload_scenario(seed=seed, admission=True)
        # Strictly higher useful throughput despite serving fewer requests.
        assert admitted["goodput_per_s"] > raw["goodput_per_s"]
        # Strictly lower tail for the requests actually admitted.
        assert admitted["p99_latency_s"] < raw["p99_latency_s"]
        # And the sheds are visible, first-class outcomes.
        assert admitted["shed"] > 0
        assert admitted["shed_fraction"] > 0.0
        assert (admitted["completed"] + admitted["shed"]
                + admitted["rejected"] <= admitted["invocations"])

    def test_raw_overload_overflows_the_bounded_queue(self):
        raw = run_overload_scenario(seed=0, admission=False)
        assert raw["rejected"] > 0  # overflow is explicit, never silent
        assert raw["shed"] == 0


class TestHealthAwareScheduling:
    def test_health_aware_crashes_still_complete(self):
        result = run_scheduling_scenario(seed=1, mtbf_s=400.0,
                                         health_aware=True)
        assert result["slo_attainment"] == 1.0  # requeue loses nothing
        assert result["completed"] == 120
        # De-omnisciencing has a measurable cost: some dispatches raced
        # a crash and were lost for the dispatch timeout.
        assert result["misdispatches"] >= 0
        assert result["suspicions"] > 0

    def test_health_aware_without_faults_matches_clean_run(self):
        plain = run_scheduling_scenario(seed=2, mtbf_s=None)
        aware = run_scheduling_scenario(seed=2, mtbf_s=None,
                                        health_aware=True)
        # No crashes: the detector never interferes with placement.
        assert aware["misdispatches"] == 0
        assert aware["false_suspicions"] == 0
        assert aware["completed"] == plain["completed"]
        assert aware["makespan_s"] == pytest.approx(plain["makespan_s"])

    def test_health_aware_is_deterministic(self):
        a = run_scheduling_scenario(seed=4, mtbf_s=300.0, health_aware=True)
        b = run_scheduling_scenario(seed=4, mtbf_s=300.0, health_aware=True)
        assert a == b
