"""The composed worlds build their fault layers from typed episodes.

Each kind of :class:`~repro.faults.episodes.Episode` must reach the
world's fabric or control loop, and an empty plan must inject nothing:
a campaign schedule fully determines a run's fault envelope.
"""

import pytest

from repro.faults.chaos import run_failover_scenario, run_partition_scenario
from repro.faults.episodes import Episode

SMALL = dict(seed=3, n_tasks=20, n_invocations=20, invariant_halt=False,
             sim_budget_s=200.0)


def partition_world(*episodes):
    return run_partition_scenario(episodes=episodes, **SMALL)


@pytest.fixture(scope="module")
def quiet():
    return partition_world()


class TestPartitionWorld:
    def test_empty_plan_injects_no_fault(self, quiet):
        assert quiet["messages_blocked"] == 0
        assert quiet["messages_dropped"] == 0
        assert quiet["scheduler_crashes"] == 0
        assert quiet["suspected_minority"] == []
        assert set(quiet["minority_detection_latency_s"].values()) == {None}

    def test_partition_episode_blocks_messages(self):
        result = partition_world(Episode("partition", 20.0, 60.0))
        assert result["messages_blocked"] > 0
        latencies = result["minority_detection_latency_s"]
        assert all(0 < latency < 40.0 for latency in latencies.values())

    def test_crash_episode_crashes_the_scheduler_once(self):
        result = partition_world(Episode("crash", 30.0, 36.0))
        assert result["scheduler_crashes"] == 1
        assert result["messages_blocked"] == 0

    def test_loss_episode_drops_messages(self, quiet):
        result = partition_world(Episode("loss", 10.0, 80.0,
                                         {"rate": 0.2}))
        assert result["messages_dropped"] > quiet["messages_dropped"] == 0
        assert result["messages_blocked"] == 0

    def test_unnormalized_plan_runs_like_its_normal_form(self):
        overlapping = (Episode("crash", 40.0, 50.0),
                       Episode("crash", 30.0, 45.0))
        clipped = (Episode("crash", 30.0, 45.0),
                   Episode("crash", 45.0, 50.0))
        assert partition_world(*overlapping) == partition_world(*clipped)


class TestFailoverWorld:
    def test_rejects_crash_episodes(self):
        with pytest.raises(ValueError, match="crash"):
            run_failover_scenario(episodes=(Episode("crash", 10.0, 20.0),))

    def test_no_cut_means_no_measured_failover(self):
        result = run_failover_scenario(seed=3, n_tasks=10,
                                       sim_budget_s=120.0, episodes=())
        assert result["failovers"] == 0
        assert result["messages_blocked"] == 0
        assert result["leader_detect_latency_s"] is None
        assert result["failover_mttr_s"] is None
