"""Integration tests for the recovery subsystem: determinism + acceptance.

Pins the PR's acceptance criteria end to end: `run_recovery_scenario`
is bit-deterministic at the event-trace level (2 runs x 3 seeds through
the DeterminismSanitizer), Daly-optimal checkpointing beats both
restart-from-scratch and over-frequent checkpointing, and the scheduler
recovery scenario loses nothing.
"""

import pytest

from repro.analysis.sanitizers import DeterminismSanitizer
from repro.faults.chaos import (
    run_recovery_scenario,
    run_scheduler_recovery_scenario,
)

SEEDS = (7, 19, 42)


class TestRecoveryScenarioDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_identical_across_runs(self, seed):
        sanitizer = DeterminismSanitizer(runs=2)
        digest = sanitizer.check(
            lambda: run_recovery_scenario(seed=seed, policy="daly",
                                          work_s=600.0, mtbf_s=150.0,
                                          corruption_p=0.05),
            label=f"recovery seed={seed}")
        assert len(digest) == 64

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scheduler_recovery_trace_identical(self, seed):
        sanitizer = DeterminismSanitizer(runs=2)
        sanitizer.check(
            lambda: run_scheduler_recovery_scenario(seed=seed, n_tasks=40),
            label=f"sched-recovery seed={seed}")

    def test_digests_distinct_across_seeds(self):
        sanitizer = DeterminismSanitizer(runs=2)
        digests = {
            sanitizer.check(
                lambda s=seed: run_recovery_scenario(
                    seed=s, policy="daly", work_s=600.0, mtbf_s=150.0))
            for seed in SEEDS
        }
        assert len(digests) == len(SEEDS)


class TestRecoveryScenarioOutcomes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_daly_beats_no_checkpoint_under_heavy_faults(self, seed):
        """work >> MTBF: restart-from-scratch barely converges, the
        Young/Daly policy sails through. Same seed => same crash
        schedule (the injector draws independently of job progress)."""
        none = run_recovery_scenario(seed=seed, policy="none",
                                     work_s=1500.0, mtbf_s=200.0)
        daly = run_recovery_scenario(seed=seed, policy="daly",
                                     work_s=1500.0, mtbf_s=200.0)
        assert none["crashes"] > daly["crashes"]
        assert daly["makespan_s"] < none["makespan_s"]
        assert daly["lost_work_s"] < none["lost_work_s"]

    def test_interval_matches_daly_formula(self):
        result = run_recovery_scenario(seed=7, policy="daly",
                                       work_s=300.0, mtbf_s=500.0)
        assert result["interval_s"] == pytest.approx(
            result["daly_interval_s"])

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            run_recovery_scenario(seed=7, policy="adaptive")

    def test_corruption_forces_fallbacks_but_completes(self):
        result = run_recovery_scenario(seed=7, policy="periodic",
                                       interval_s=5.0, work_s=1500.0,
                                       mtbf_s=150.0, corruption_p=0.2)
        assert result["corrupt_fallbacks"] > 0
        assert result["makespan_s"] < 3 * result["work_s"]


class TestSchedulerRecoveryAcceptance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_lost_completions_all_orphans_requeued(self, seed):
        result = run_scheduler_recovery_scenario(seed=seed)
        assert result["completed"] == 80
        assert result["lost"] == 0
        assert result["scheduler_crashes"] == 1
        assert result["recovered_completions"] > 0
        # Machine faults at MTBF 150s during a 60s outage orphan victims
        # on every seed we pin; all of them get requeued.
        assert result["orphans_requeued"] > 0
        assert result["journal_replays"] == 1

    def test_journaled_recovery_matches_uncrashed_completion_count(self):
        crashed = run_scheduler_recovery_scenario(seed=7)
        baseline = run_scheduler_recovery_scenario(seed=7, journaled=False,
                                                   machine_mtbf_s=None)
        assert crashed["completed"] == baseline["completed"] == 80
