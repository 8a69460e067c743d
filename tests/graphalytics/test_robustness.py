"""Tests for superstep recovery in graph analytics."""

import pytest

from repro.sim import RandomStreams


class TestSuperstepRecovery:
    def _env_with_store(self, interval_s=20.0):
        from repro.recovery import CheckpointStore, PeriodicCheckpoint
        from repro.sim import Environment
        env = Environment()
        store = CheckpointStore(env, tier="local")
        return env, PeriodicCheckpoint(interval_s), store

    def test_resumes_at_last_completed_superstep(self):
        from repro.graphalytics.robustness import run_supersteps_with_recovery
        env, policy, store = self._env_with_store(interval_s=20.0)
        rng = RandomStreams(19).get("crash")
        result = run_supersteps_with_recovery(
            30, 10.0, mtbf_s=120.0, mttr_s=10.0, rng=rng,
            policy=policy, store=store, env=env, algorithm="pagerank")
        assert result.crashes > 0
        assert result.restores > 0
        # Lost work is bounded by the checkpoint interval per crash (plus
        # the in-flight checkpoint write), never the whole run.
        assert result.lost_work_s < result.crashes * (20.0 + 1.0)
        assert result.lost_supersteps <= result.crashes * 2
        assert result.makespan_s < 2.0 * result.work_s

    def test_no_checkpointing_restarts_at_superstep_zero(self):
        from repro.graphalytics.robustness import run_supersteps_with_recovery
        from repro.sim import Environment
        rng = RandomStreams(19).get("crash")
        baseline = run_supersteps_with_recovery(
            30, 10.0, mtbf_s=120.0, mttr_s=10.0, rng=rng,
            env=Environment(), algorithm="pagerank")
        env, policy, store = self._env_with_store(interval_s=20.0)
        rng2 = RandomStreams(19).get("crash")  # same crash schedule
        ckpt = run_supersteps_with_recovery(
            30, 10.0, mtbf_s=120.0, mttr_s=10.0, rng=rng2,
            policy=policy, store=store, env=env, algorithm="pagerank")
        # Restart-from-zero loses far more work for the same faults.
        assert baseline.lost_work_s > ckpt.lost_work_s
        assert baseline.makespan_s > ckpt.makespan_s

    def test_validation(self):
        from repro.graphalytics.robustness import run_supersteps_with_recovery
        rng = RandomStreams(0).get("crash")
        with pytest.raises(ValueError):
            run_supersteps_with_recovery(0, 10.0, mtbf_s=100.0,
                                         mttr_s=10.0, rng=rng)
        with pytest.raises(ValueError):
            run_supersteps_with_recovery(5, 0.0, mtbf_s=100.0,
                                         mttr_s=10.0, rng=rng)
