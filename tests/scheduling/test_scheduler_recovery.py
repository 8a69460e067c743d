"""Tests for scheduler crash-recovery: journal replay and reconciliation."""

import pytest

from repro.cluster import Cluster, FailureInjector
from repro.faults.chaos import (run_partition_scenario,
                                run_scheduler_recovery_scenario)
from repro.recovery import Journal
from repro.scheduling.policies import FCFSPolicy
from repro.scheduling.simulator import ClusterSimulator
from repro.sim import Environment, RandomStreams
from repro.workload.task import BagOfTasks, Task, TaskState, Workflow


def make_sim(env, n_machines=4, cores=4, **kwargs):
    cluster = Cluster.homogeneous("rec", n_machines, cores=cores)
    journal = Journal(env, append_cost_s=0.005,
                      replay_cost_per_record_s=0.002)
    sim = ClusterSimulator(env, cluster, FCFSPolicy(), journal=journal,
                           scheduler_restart_cost_s=1.0, **kwargs)
    return sim, cluster, journal


def outage(env, sim, at_s, down_s):
    def driver():
        yield env.timeout(at_s)
        sim.crash_scheduler()
        yield env.timeout(down_s)
        yield from sim.recover_scheduler()
    env.process(driver())


class TestJournaling:
    def test_transitions_are_journaled(self):
        env = Environment()
        sim, _, journal = make_sim(env)
        tasks = [Task(work=10.0) for _ in range(6)]
        sim.submit_jobs([BagOfTasks(tasks)])
        env.run(until=sim._scheduler)
        kinds = [r.kind for r in journal.records]
        assert kinds.count("submit") == 6
        assert kinds.count("dispatch") == 6
        assert kinds.count("complete") == 6

    def test_crash_without_journal_rejected(self):
        env = Environment()
        cluster = Cluster.homogeneous("rec", 2, cores=4)
        sim = ClusterSimulator(env, cluster, FCFSPolicy())
        with pytest.raises(RuntimeError):
            sim.crash_scheduler()

    def test_recover_without_crash_rejected(self):
        env = Environment()
        sim, _, _ = make_sim(env)
        with pytest.raises(RuntimeError):
            next(sim.recover_scheduler())


class TestOutageReconciliation:
    def test_completions_during_outage_are_never_lost(self):
        env = Environment()
        sim, _, _ = make_sim(env, n_machines=2)
        # 8 single-core 10s tasks on 8 cores: all finish at t=10,
        # squarely inside the outage [5, 25).
        tasks = [Task(work=10.0) for _ in range(8)]
        sim.submit_jobs([BagOfTasks(tasks)])
        outage(env, sim, at_s=5.0, down_s=20.0)
        env.run(until=sim._scheduler)
        assert len(sim.finished) == 8
        assert sim.recovered_completions == 8
        assert all(t.state is TaskState.DONE for t in tasks)
        metrics = sim.metrics()
        assert metrics.completed_fraction == 1.0

    def test_surviving_dispatches_are_readopted_not_redone(self):
        env = Environment()
        sim, _, _ = make_sim(env, n_machines=2)
        # 8 tasks of 100s: still running when the scheduler comes back.
        tasks = [Task(work=100.0) for _ in range(8)]
        sim.submit_jobs([BagOfTasks(tasks)])
        outage(env, sim, at_s=5.0, down_s=20.0)
        env.run(until=sim._scheduler)
        assert sim.readopted == 8
        assert sim.restarts == 0  # no work was redone
        assert len(sim.finished) == 8
        # Re-adoption means original start times survive: one execution.
        assert all(t.finish_time == pytest.approx(100.0) for t in tasks)

    def test_machine_crash_during_outage_orphans_then_requeues(self):
        env = Environment()
        sim, cluster, _ = make_sim(env, n_machines=2)
        tasks = [Task(work=100.0) for _ in range(8)]
        sim.submit_jobs([BagOfTasks(tasks)])

        def machine_killer():
            yield env.timeout(10.0)  # inside the outage
            machine = cluster.machines[0]
            machine.fail()
            sim.handle_machine_failure(machine)
            yield env.timeout(5.0)
            machine.repair()
            sim.handle_machine_repair(machine)
        env.process(machine_killer())
        outage(env, sim, at_s=5.0, down_s=20.0)
        env.run(until=sim._scheduler)
        # The 4 victims had no scheduler to requeue them mid-outage...
        assert sim.orphans_requeued == 4
        # ...but recovery requeued every one: nothing is lost.
        assert len(sim.finished) == 8
        assert len(sim.failed) == 0

    def test_dispatching_pauses_while_down(self):
        env = Environment()
        sim, _, _ = make_sim(env, n_machines=1)
        # 4-core machine, 4-core tasks: strictly sequential.
        tasks = [Task(work=10.0, cores=4) for _ in range(3)]
        sim.submit_jobs([BagOfTasks(tasks)])
        outage(env, sim, at_s=5.0, down_s=20.0)
        env.run(until=sim._scheduler)
        # Task 1 finishes at 10 (unreported until 25); tasks 2 and 3 can
        # only be dispatched after recovery.
        assert len(sim.finished) == 3
        starts = sorted(t.start_time for t in tasks)
        assert starts[0] == pytest.approx(0.0)
        assert starts[1] >= 25.0

    def test_workflow_successors_unlock_at_recovery(self):
        env = Environment()
        sim, _, _ = make_sim(env, n_machines=2)
        a, b = Task(work=10.0), Task(work=10.0)
        wf = Workflow([a, b], edges=[(a.task_id, b.task_id)])
        sim.submit_jobs([wf])
        # a finishes at 10 during the outage; b must still run after.
        outage(env, sim, at_s=5.0, down_s=20.0)
        env.run(until=sim._scheduler)
        assert len(sim.finished) == 2
        assert b.start_time >= 25.0

    def test_orphaned_workflow_successor_starts_once_after_recovery(self):
        env = Environment()
        cluster = Cluster.homogeneous("c", 2, cores=1)
        sim = ClusterSimulator(env, cluster, FCFSPolicy(),
                               journal=Journal(env))
        r, x, y = Task(work=10.0), Task(work=20.0), Task(work=100.0)
        sim.submit_jobs([Workflow([r, x, y], edges=[
            (r.task_id, x.task_id), (r.task_id, y.task_id)])])
        starts = []
        start = sim._start

        def spy(task, machine):
            starts.append((env.now, task))
            start(task, machine)
        sim._start = spy

        def driver():
            yield env.timeout(15.0)
            sim.crash_scheduler()
            yield env.timeout(20.0)
            # x finished at 30, unreported; y's machine dies: y is orphaned.
            machine = next(m for t, m, _ in sim.running.values() if t is y)
            machine.fail()
            sim.handle_machine_failure(machine)
            yield env.timeout(1.0)
            machine.repair()
            yield from sim.recover_scheduler()
        env.process(driver())
        env.run()
        # Reporting x must not unlock the orphan y a second time.
        assert [t for now, t in starts if now > 36.0] == [y]
        assert sorted(t.task_id for t in sim.finished) == sorted(
            t.task_id for t in (r, x, y))
        assert sim.submitted == 3


class TestEndToEndUnderMachineFaults:
    @pytest.mark.parametrize("seed", [0, 7, 19, 42])
    def test_zero_lost_completions_and_all_orphans_requeued(self, seed):
        streams = RandomStreams(seed)
        env = Environment()
        sim, cluster, _ = make_sim(env, n_machines=6)
        work_rng = streams.get("work")
        tasks = [Task(work=float(work_rng.uniform(20.0, 120.0)))
                 for _ in range(60)]
        injector = FailureInjector(
            env, cluster, streams.get("machine-failures"),
            mtbf_s=150.0, mttr_s=30.0,
            on_failure=sim.handle_machine_failure)
        injector.on_repair = sim.handle_machine_repair
        sim.submit_jobs([BagOfTasks(tasks)])
        outage(env, sim, at_s=40.0, down_s=60.0)
        env.run(until=sim._scheduler)
        # The acceptance criterion: zero lost completed tasks, all
        # orphans requeued, every task eventually done.
        assert len(sim.finished) == 60
        assert len(sim.failed) == 0
        assert sim.scheduler_crashes == 1
        assert all(t.state is TaskState.DONE for t in tasks)


class TestBooksUnderFaults:
    def test_release_profile_and_core_ledger_track_every_change(
            self, monkeypatch):
        """Each entry into or out of ``running`` leaves the release
        profile equal to its re-sort and the cluster ledger equal to the
        per-machine sums, through machine crashes, scheduler outages,
        lost completion reports and machines added mid-run."""
        sims = []
        track = ClusterSimulator._track

        def checked(sim, task, machine=None):
            track(sim, task, machine)
            if sim not in sims:
                sims.append(sim)
            assert sim.releases == sorted(
                (start + (t.runtime_estimate or t.work), t.cores, t.task_id)
                for t, _, start in sim.running.values())
            up = [m for m in sim.cluster.machines if m.is_up]
            assert sim.cluster.total_cores == sum(m.cores for m in up)
            assert sim.cluster.used_cores == sum(m.used_cores for m in up)

        monkeypatch.setattr(ClusterSimulator, "_track", checked)
        run_scheduler_recovery_scenario(seed=0)
        run_partition_scenario(seed=0)
        for counter in ("killed_executions", "scheduler_crashes",
                        "lost_reports"):
            assert sum(s.monitor.total(counter) for s in sims) > 0, counter
        assert len(sims[-1].cluster) > 8  # the autoscaler added machines
