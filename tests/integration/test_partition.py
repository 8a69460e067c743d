"""Acceptance: the composed partition study keeps its books across seeds.

ISSUE 6's headline claims, each pinned per seed:

- zero invariant violations while a partition, two gray failures, and a
  scheduler crash are all active;
- every partitioned worker is suspected — as *silence* — within the
  detection window, while the gray (heartbeat-alive) worker is never
  declared dead;
- after the heal, scheduler state is fully reconciled: no task lost, no
  task duplicated;
- admission really shed during the squeeze, and the front door's own
  conservation held.
"""

import pytest

from repro.cluster import Cluster
from repro.faults.chaos import run_partition_scenario
from repro.faults.partition import NetworkPartitionModel, PartitionEpisode
from repro.scheduling import ClusterSimulator, FCFSPolicy
from repro.sim import Environment, Network
from repro.workload.task import Task

SEEDS = (7, 19, 42)

#: Heartbeats every ~1s, phi threshold 8, poll every 0.5s: a silent
#: worker should be suspected within a few beats. 15 simulated seconds
#: is generous; the partition itself lasts 100.
DETECTION_WINDOW_S = 15.0


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def result(request):
    return run_partition_scenario(seed=request.param)


def test_zero_invariant_violations(result):
    assert result["invariant_checks"] > 500    # the auditor really looked
    assert result["invariant_violations"] == 0


def test_partitioned_workers_suspected_within_window(result):
    latencies = result["minority_detection_latency_s"]
    assert sorted(latencies) == sorted(result["suspected_minority"])
    for name, latency in latencies.items():
        assert latency is not None, f"{name} never suspected"
        assert 0.0 <= latency <= DETECTION_WINDOW_S, (name, latency)


def test_partition_reads_as_silence_not_variance(result):
    assert result["suspicions_by_reason"]["silence"] >= 3
    assert result["suspicions_by_reason"]["variance"] == 0


def test_gray_worker_never_declared_dead(result):
    # Its heartbeats are protected — slow and lossy is not down.
    assert not result["gray_worker_suspected"]
    assert result["gray_worker"] not in result["suspected_minority"]


def test_scheduler_state_reconciles_after_heal(result):
    # No task lost: everything admitted eventually completed, exactly
    # once (a duplicate would overshoot completed; a loss would strand
    # the run or land in failed).
    assert result["lost"] == 0
    assert result["completed"] == result["admitted"]
    assert result["submitted"] == result["admitted"]
    assert result["messages_in_flight"] == 0


def test_chaos_actually_happened(result):
    # The run earned its acceptance: every fault fired.
    assert result["messages_blocked"] > 0       # partition bit
    assert result["messages_dropped"] > 0       # gray failures bit
    assert result["scheduler_crashes"] == 1     # the outage happened
    assert result["door_shed"] > 0              # admission shed in the squeeze
    assert result["offered"] == result["admitted"] + result["door_shed"]


def test_recovery_survived_the_composition(result):
    assert result["orphans_requeued"] + result["readopted"] \
        + result["recovered_completions"] > 0
    assert result["job_makespan_s"] > 0


class TestOneWayPartitions:
    """The two asymmetric halves of a real switch fault, end to end.

    A lean deterministic world (no RNG anywhere): two machines, the far
    one isolated by a one-way episode during [10, 60). A filler task
    pins the near machine, so the probe work *must* cross the cut — in
    one direction per test — and the scheduler's completion-report /
    dispatch machinery has to absorb exactly the half that is severed.
    """

    def _world(self, direction):
        env = Environment()
        cluster = Cluster.homogeneous("oneway", 2, cores=4)
        far = cluster.machines[1].name
        network = Network(env)
        network.attach(NetworkPartitionModel(
            env, groups={"far": [far]},
            episodes=[PartitionEpisode(10.0, 60.0, "far", direction)]))
        sim = ClusterSimulator(env, cluster, FCFSPolicy(),
                               network=network, node_name="scheduler",
                               report_retry_s=2.0)
        return env, sim, network

    def test_outbound_cut_loses_reports_not_dispatches(self):
        """``outbound``: the far machine shouts into the void — its
        completion report is refused until the heal, while dispatches
        *to* it still flow."""
        env, sim, network = self._world("outbound")
        # Pin the near machine for the whole episode.
        sim.submit_task(Task(work=200.0, cores=4))
        # The probe lands on the far machine at t=0 and finishes at
        # t=30 — mid-episode, so its report home is blocked.
        probe = Task(work=30.0, cores=4)
        sim.submit_task(probe)
        sim.close_submissions()
        env.run(until=40.0)
        # Ground truth moved on; the scheduler's belief lags behind.
        assert probe.state.name == "DONE"
        assert probe.task_id in sim._pending_reports
        assert probe.task_id in sim.running
        assert sim.monitor.counters["lost_reports"].total > 0
        env.run(until=sim._scheduler)
        # Post-heal the retry loop drains the ledger: nothing lost.
        assert not sim._pending_reports
        assert len(sim.finished) == sim.submitted == 2
        assert network.by_kind["report"]["blocked"] > 0
        assert network.by_kind["dispatch"]["blocked"] == 0
        assert sim.misdispatches == 0

    def test_inbound_cut_loses_dispatches_not_reports(self):
        """``inbound``: the far machine hears nothing — dispatches to it
        limbo out as misdispatches — but a task it started *before* the
        cut still reports home through the open half."""
        env, sim, network = self._world("inbound")
        sim.submit_task(Task(work=200.0, cores=4))
        # probe_a starts on the far machine at t=0 and finishes at t=30
        # (mid-episode): inbound lets its report through.
        probe_a = Task(work=30.0, cores=4)
        sim.submit_task(probe_a)

        def late_probe(env):
            yield env.timeout(12.0)
            sim.submit_task(Task(work=30.0, cores=4))
            sim.close_submissions()

        env.process(late_probe(env))
        env.run(until=40.0)
        # probe_a's report crossed the open half immediately.
        assert probe_a.task_id not in sim._pending_reports
        assert any(t.task_id == probe_a.task_id for t in sim.finished)
        assert network.by_kind["report"]["blocked"] == 0
        # probe_b's dispatch hit the severed half: limbo -> misdispatch
        # -> requeue, paced by the dispatch timeout until the heal.
        assert sim.misdispatches >= 1
        assert network.by_kind["dispatch"]["blocked"] >= 1
        env.run(until=sim._scheduler)
        assert len(sim.finished) == sim.submitted == 3
        assert not sim.failed and not sim._limbo
