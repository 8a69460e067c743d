"""Tests for scheduling policies and the cluster simulator."""

import pytest

from repro.analysis.sanitizers import TraceDigest
from repro.cluster import Cluster
from repro.observability import MetricsRegistry, Tracer
from repro.scheduling import (
    BackfillPolicy,
    ClusterSimulator,
    FCFSPolicy,
    FairSharePolicy,
    LJFPolicy,
    POLICIES,
    PortfolioScheduler,
    SJFPolicy,
    simulate_schedule,
)
from repro.scheduling.policies import make_policy
from repro.sim import Environment, Network, RandomStreams
from repro.workload import BagOfTasks, Task, Workflow


def bag(works, submit=0.0, cores=1, user="u"):
    tasks = []
    for w in works:
        t = Task(work=w, cores=cores)
        t.runtime_estimate = w
        tasks.append(t)
    return BagOfTasks(tasks, submit_time=submit, user=user)


class TestPolicyOrdering:
    def _queue(self):
        tasks = []
        for i, (work, submit) in enumerate([(30, 2), (10, 0), (20, 1)]):
            t = Task(work=work, submit_time=submit)
            t.runtime_estimate = work
            tasks.append(t)
        return tasks

    def test_fcfs_by_submit_time(self):
        order = FCFSPolicy().order(self._queue(), now=10)
        assert [t.submit_time for t in order] == [0, 1, 2]

    def test_sjf_by_estimate(self):
        order = SJFPolicy().order(self._queue(), now=10)
        assert [t.work for t in order] == [10, 20, 30]

    def test_ljf_reverse(self):
        order = LJFPolicy().order(self._queue(), now=10)
        assert [t.work for t in order] == [30, 20, 10]

    def test_fair_share_prefers_unserved_users(self):
        policy = FairSharePolicy()
        t1 = Task(work=10, submit_time=0)
        t1.user = "heavy"
        t2 = Task(work=10, submit_time=5)
        t2.user = "light"
        policy.charge("heavy", 1000.0)
        order = policy.order([t1, t2], now=10)
        assert order[0].user == "light"

    def test_backfill_orders_fcfs_but_allows_backfill(self):
        policy = BackfillPolicy()
        assert policy.allows_backfill()
        assert not FCFSPolicy().allows_backfill()

    def test_make_policy_unknown(self):
        with pytest.raises(KeyError):
            make_policy("galaxy-brain")

    def test_zero_estimate_ranks_by_work(self):
        """A 0.0 estimate falls back to work, as in the predictor and the
        backfill window: it ranks where an estimate equal to work would."""
        zero = Task(work=50)
        zero.runtime_estimate = 0.0
        unknown = Task(work=20)
        mid = Task(work=1)
        mid.runtime_estimate = 30.0
        queue = [zero, unknown, mid]
        assert SJFPolicy().order(queue, now=0) == [unknown, mid, zero]
        assert LJFPolicy().order(queue, now=0) == [zero, mid, unknown]

    def test_registry_complete(self):
        assert set(POLICIES) == {"fcfs", "sjf", "ljf", "fair-share",
                                 "backfill"}


class TestSimulator:
    def test_single_bag_runs_to_completion(self):
        cluster = Cluster.homogeneous("c", 2, cores=2)
        metrics = simulate_schedule([bag([10, 10, 10, 10])], cluster,
                                    FCFSPolicy())
        assert metrics.n_tasks == 4
        assert metrics.mean_wait_s == 0.0  # 4 slots... 4 cores, all fit
        assert metrics.makespan_s == pytest.approx(10.0)

    def test_queueing_when_overloaded(self):
        cluster = Cluster.homogeneous("c", 1, cores=1)
        metrics = simulate_schedule([bag([100, 100])], cluster,
                                    FCFSPolicy())
        assert metrics.mean_wait_s == pytest.approx(50.0)  # (0 + 100) / 2
        assert metrics.makespan_s == pytest.approx(200.0)

    def test_sjf_beats_fcfs_on_mixed_sizes(self):
        def workload():
            return [bag([1000, 10, 10, 10, 10])]

        cluster1 = Cluster.homogeneous("c", 1, cores=1)
        cluster2 = Cluster.homogeneous("c", 1, cores=1)
        fcfs = simulate_schedule(workload(), cluster1, FCFSPolicy())
        sjf = simulate_schedule(workload(), cluster2, SJFPolicy())
        assert sjf.mean_bounded_slowdown < fcfs.mean_bounded_slowdown

    def test_workflow_dependencies_respected(self):
        a, b = Task(work=10), Task(work=10)
        a.runtime_estimate = b.runtime_estimate = 10
        wf = Workflow([a, b], [(a.task_id, b.task_id)], submit_time=0)
        cluster = Cluster.homogeneous("c", 4, cores=4)
        metrics = simulate_schedule([wf], cluster, FCFSPolicy())
        assert b.start_time >= a.finish_time
        assert metrics.makespan_s == pytest.approx(20.0)

    def test_machine_speed_scales_runtime(self):
        cluster = Cluster.homogeneous("c", 1, cores=1, speed=2.0)
        metrics = simulate_schedule([bag([100])], cluster, FCFSPolicy())
        assert metrics.makespan_s == pytest.approx(50.0)

    def test_backfill_fills_holes(self):
        """Head needs 4 cores (busy); a 1-core short task backfills."""
        cluster = Cluster.homogeneous("c", 1, cores=4)
        blocker = Task(work=100, cores=3)
        blocker.runtime_estimate = 100
        head = Task(work=50, cores=4)
        head.runtime_estimate = 50
        small = Task(work=20, cores=1)
        small.runtime_estimate = 20
        b1 = BagOfTasks([blocker], submit_time=0)
        b2 = BagOfTasks([head], submit_time=1)
        b3 = BagOfTasks([small], submit_time=2)
        simulate_schedule([b1, b2, b3], cluster, BackfillPolicy())
        # Small ran before head despite arriving later.
        assert small.start_time < head.start_time
        # And did not delay the head: head starts when blocker ends.
        assert head.start_time == pytest.approx(100.0)

    def test_easy_shadow_is_the_release_that_frees_exactly_enough(self):
        """The head needs exactly the cores the first estimated release
        frees: the shadow is that release, so a candidate whose estimate
        ends after it must wait instead of backfilling."""
        env = Environment()
        sim = ClusterSimulator(env, Cluster.homogeneous("c", 1, cores=4),
                               BackfillPolicy())
        blocker = Task(work=100, cores=3)
        head = Task(work=50, cores=4)
        late = Task(work=150, cores=1)
        for t in (blocker, head, late):
            t.runtime_estimate = t.work
        sim.submit_jobs([BagOfTasks([blocker], submit_time=0),
                         BagOfTasks([head], submit_time=1),
                         BagOfTasks([late], submit_time=2)])
        env.run(until=3)
        assert sim._earliest_head_start(head) == pytest.approx(100.0)
        assert late.start_time is None
        env.run()
        assert head.start_time == pytest.approx(100.0)
        assert late.start_time == pytest.approx(head.finish_time)

    def test_fcfs_does_not_backfill(self):
        cluster = Cluster.homogeneous("c", 1, cores=4)
        blocker = Task(work=100, cores=3)
        head = Task(work=50, cores=4)
        small = Task(work=20, cores=1)
        for t in (blocker, head, small):
            t.runtime_estimate = t.work
        jobs = [BagOfTasks([blocker], submit_time=0),
                BagOfTasks([head], submit_time=1),
                BagOfTasks([small], submit_time=2)]
        simulate_schedule(jobs, cluster, FCFSPolicy())
        assert small.start_time >= head.start_time

    def test_unplaceable_task_raises(self):
        cluster = Cluster.homogeneous("c", 1, cores=2)
        giant = Task(work=10, cores=16)
        giant.runtime_estimate = 10
        with pytest.raises(RuntimeError, match="never be placed"):
            simulate_schedule([BagOfTasks([giant])], cluster, FCFSPolicy())

    def test_metrics_before_completion_rejected(self):
        from repro.scheduling import ClusterSimulator
        from repro.sim import Environment
        env = Environment()
        sim = ClusterSimulator(env, Cluster.homogeneous("c", 1),
                               FCFSPolicy())
        with pytest.raises(RuntimeError):
            sim.metrics()

    def test_utilization_bounded(self):
        cluster = Cluster.homogeneous("c", 2, cores=4)
        metrics = simulate_schedule(
            [bag([50] * 16)], cluster, FCFSPolicy())
        assert 0 < metrics.utilization <= 1.0

    def test_fair_share_interleaves_users(self):
        cluster = Cluster.homogeneous("c", 1, cores=1)
        heavy = bag([50] * 4, submit=0, user="heavy")
        light = bag([50], submit=1, user="light")
        simulate_schedule([heavy, light], cluster, FairSharePolicy())
        # Light user's single task runs before the heavy user's queue
        # drains completely.
        light_task = light.tasks[0]
        heavy_finishes = sorted(t.finish_time for t in heavy.tasks)
        assert light_task.start_time < heavy_finishes[-1]


class _Recording(ClusterSimulator):
    """Logs every dispatch as (time, task ordinal, machine)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatches = []
        self.ordinals = {}

    def _start(self, task, machine):
        ordinal = self.ordinals.setdefault(task.task_id, len(self.ordinals))
        self.dispatches.append((self.env.now, ordinal, machine.name))
        super()._start(task, machine)


class _Resorting(_Recording):
    """The pass as first written: re-sort the whole queue after every
    dispatch. The reference the order-once pass must reproduce."""

    def _try_schedule(self):
        if self._crashed:
            return
        if self.pre_schedule is not None and self.ready:
            self.pre_schedule()
        progress = True
        while progress:
            progress = False
            if not self.ready:
                return
            ordered = self.policy.order(self.ready, self.env.now)
            head = ordered[0]
            machine = self._first_fit(head.cores, head.memory_gb)
            if machine is not None:
                self._start(head, machine)
                progress = True
                continue
            if not self.policy.allows_backfill():
                return
            window = self._earliest_head_start(head) - self.env.now
            for task in ordered[1:]:
                if (task.runtime_estimate or task.work) > window:
                    continue
                machine = self._first_fit(task.cores, task.memory_gb)
                if machine is not None:
                    self._start(task, machine)
                    progress = True
                    break


def _random_jobs(seed):
    rng = RandomStreams(seed=seed).get("order-once")
    jobs = []
    for j in range(4):
        tasks = []
        for _ in range(int(rng.integers(3, 12))):
            work = float(rng.uniform(5, 300))
            task = Task(work=work, cores=int(rng.integers(1, 5)))
            task.runtime_estimate = rng.choice(
                [None, 0.0, work, work * float(rng.uniform(0.3, 3.0))])
            tasks.append(task)
        submit = float(rng.uniform(0, 400))
        if j == 3:
            edges = [(tasks[i].task_id, tasks[i + 1].task_id)
                     for i in range(0, len(tasks) - 1, 2)]
            jobs.append(Workflow(tasks, edges, submit_time=submit))
        else:
            jobs.append(BagOfTasks(tasks, submit_time=submit,
                                   user=f"u{j % 2}"))
    return jobs


def _dispatches(sim_cls, seed, policy_name, portfolio=False):
    env = Environment()
    sim = sim_cls(env, Cluster.homogeneous("c", 3, cores=4),
                  make_policy(policy_name))
    if portfolio:
        PortfolioScheduler(env, sim, [make_policy(n) for n in
                                      ("fcfs", "sjf", "ljf", "backfill")])
    sim.submit_jobs(_random_jobs(seed))
    env.run()
    return sim.dispatches


class TestOrderOncePerPass:
    @pytest.mark.parametrize("policy", ["fcfs", "sjf", "ljf", "fair-share",
                                        "backfill"])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_dispatches_as_resorting_loop(self, policy, seed):
        assert (_dispatches(_Recording, seed, policy)
                == _dispatches(_Resorting, seed, policy))

    @pytest.mark.parametrize("seed", range(4))
    def test_portfolio_same_dispatches_as_resorting_loop(self, seed):
        assert (_dispatches(_Recording, seed, "fcfs", portfolio=True)
                == _dispatches(_Resorting, seed, "fcfs", portfolio=True))

    @pytest.mark.parametrize("base", [FCFSPolicy, BackfillPolicy])
    def test_one_order_call_per_pass(self, base):
        class Counting(base):
            calls = 0

            def order(self, queue, now):
                self.calls += 1
                return super().order(queue, now)

        policy = Counting()
        env = Environment()
        sim = ClusterSimulator(env, Cluster.homogeneous("c", 2, cores=4),
                               policy)
        passes = []
        original = sim._try_schedule

        def counted():
            had_ready, before = bool(sim.ready), policy.calls
            started_before = len(sim.running)
            original()
            passes.append((had_ready, policy.calls - before,
                           len(sim.running) - started_before))

        sim._try_schedule = counted
        sim.submit_jobs(_random_jobs(3))
        env.run()
        assert passes
        assert all(calls == (1 if had_ready else 0)
                   for had_ready, calls, _ in passes)
        # Some passes start several tasks off that single order() call.
        assert max(started for _, _, started in passes) > 1

    def test_fragmented_cluster_head_blocks_backfill(self):
        """Free cores cover the head, yet no machine holds it: the shadow
        is now, the window is empty, and nothing backfills."""
        def run(sim_cls):
            env = Environment()
            sim = sim_cls(env, Cluster.homogeneous("c", 2, cores=4),
                          BackfillPolicy())
            tasks = [Task(work=100, cores=3), Task(work=200, cores=3),
                     Task(work=50, cores=2), Task(work=5, cores=1)]
            for task in tasks:
                task.runtime_estimate = task.work
            sim.submit_jobs([BagOfTasks(tasks[:2], submit_time=0),
                             BagOfTasks([tasks[2]], submit_time=1),
                             BagOfTasks([tasks[3]], submit_time=2)])
            env.run()
            return sim.dispatches, tasks

        dispatches, tasks = run(_Recording)
        assert dispatches == run(_Resorting)[0]
        blocker, _, head, small = tasks
        assert head.start_time == small.start_time == blocker.finish_time


class _DropReportsFrom:
    """Loss model: drops ``report`` messages from one machine before
    ``until``."""

    def __init__(self, env, machine, until):
        self.env, self.machine, self.until = env, machine, until

    def drops(self, src, dst, kind):
        return (kind == "report" and src == self.machine
                and self.env.now < self.until)


class TestWorkflowUnlock:
    def test_successor_waits_for_its_predecessors_booked_completion(self):
        """``a -> c`` plus an independent ``b`` in one workflow. ``a``
        finishes at t=10 but its report is lost until the retry at t=110;
        ``b`` reports at t=15. ``c`` may start only once the scheduler
        has booked ``a``'s completion, not when ``b``'s report arrives."""
        env = Environment()
        cluster = Cluster.homogeneous("c", 2, cores=1)
        network = Network(env)
        network.attach(_DropReportsFrom(env, "c-m0000", until=50.0))
        sim = ClusterSimulator(env, cluster, FCFSPolicy(), network=network,
                               report_retry_s=100.0)
        a, b, c = Task(work=10), Task(work=15), Task(work=10)
        sim.submit_jobs([Workflow([a, b, c], [(a.task_id, c.task_id)])])
        started_while_a_running = []
        start = sim._start

        def probe(task, machine):
            if task is c:
                started_while_a_running.append(a.task_id in sim.running)
            start(task, machine)

        sim._start = probe
        env.run()
        assert started_while_a_running == [False]
        assert c.start_time == pytest.approx(110.0)
        assert [t.task_id for t in sim.finished] == [
            b.task_id, a.task_id, c.task_id]
        assert sim.submitted == len(sim.finished) == 3


class TestAllocationHandoff:
    def test_closing_cut_processes_moves_no_digest_or_book(self):
        """``_execute`` releases its allocation in a ``finally``, which
        also fires when a run cut mid-task has its processes closed (as
        garbage collection does). That release touches the machine only:
        no event, span, metric or scheduler ledger moves."""
        digest = TraceDigest()
        tracer, registry = Tracer(name="cut"), MetricsRegistry()
        with Environment.traced(digest):
            env = Environment()
            cluster = Cluster.homogeneous("c", 2, cores=2)
            sim = ClusterSimulator(env, cluster, FCFSPolicy(),
                                   tracer=tracer, registry=registry)
            sim.submit_jobs([bag([10, 100, 100, 100, 100])])
            env.run(until=50.0)

        def books():
            return (digest.hexdigest(), digest.events, tracer.to_json(),
                    registry.snapshot(), sorted(sim.running),
                    len(sim.finished), sim.goodput_core_s,
                    sim.wasted_core_s)

        before = books()
        assert len(sim.running) == 4
        assert sum(m.used_cores for m in cluster.machines) == 4
        for proc in sim._procs.values():
            proc._generator.close()
        assert books() == before
        assert sum(m.used_cores for m in cluster.machines) == 0
