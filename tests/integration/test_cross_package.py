"""Integration tests: the packages composed the way the paper uses them."""

import pytest

from repro.cluster import Cluster, FailureInjector
from repro.core import (
    BasicDesignCycle,
    DesignProblem,
    DesignSpace,
    Dimension,
    Stage,
    StoppingCriterion,
)
from repro.scheduling import ClusterSimulator, FCFSPolicy, simulate_schedule
from repro.scheduling.policies import make_policy
from repro.sim import Environment, RandomStreams
from repro.workload import BagOfTasks, Task
from repro.workload.generators import generate_domain_workload


class TestFailureAwareScheduling:
    """Failure injection composed with the cluster simulator: tasks on
    failed machines restart and the schedule still completes."""

    def _run(self, mtbf_s):
        env = Environment()
        cluster = Cluster.homogeneous("c", 8, cores=2)
        sim = ClusterSimulator(env, cluster, FCFSPolicy())
        rng = RandomStreams(seed=5).get("failures")
        injector = FailureInjector(env, cluster, rng, mtbf_s=mtbf_s,
                                   mttr_s=30.0,
                                   on_failure=sim.handle_machine_failure)
        jobs = []
        for i in range(6):
            tasks = [Task(work=100.0) for _ in range(4)]
            for t in tasks:
                t.runtime_estimate = 100.0
            jobs.append(BagOfTasks(tasks, submit_time=float(i * 20)))
        sim.submit_jobs(jobs)
        # Run until all tasks complete (injector processes never end).
        horizon = 0.0
        while not sim.all_done:
            horizon += 2000.0
            if horizon > 100_000:
                pytest.fail("schedule did not complete under failures")
            env.run(until=horizon)
        return sim, injector

    def test_all_tasks_complete_despite_failures(self):
        sim, injector = self._run(mtbf_s=400.0)
        assert len(sim.finished) == 24
        assert injector.failures > 0
        assert sim.restarts > 0
        metrics = sim.metrics()
        assert metrics.n_tasks == 24

    def test_no_failures_no_restarts(self):
        sim, injector = self._run(mtbf_s=10**9)
        assert sim.restarts == 0
        assert injector.failures == 0

    def test_failures_extend_makespan(self):
        healthy, _ = self._run(mtbf_s=10**9)
        failing, _ = self._run(mtbf_s=300.0)
        assert failing.metrics().makespan_s > healthy.metrics().makespan_s


class TestDesignFrameworkDrivesExperiments:
    """The paper's own loop: the BDC explores a design space whose
    quality function is a scheduling simulation (Challenge C3)."""

    def test_bdc_finds_satisficing_scheduler_config(self):
        space = DesignSpace([
            Dimension("policy", ("fcfs", "sjf", "ljf")),
            Dimension("machines", ("2", "6")),
        ])
        streams = RandomStreams(seed=9)

        def quality(candidate):
            rng = streams.spawn(str(sorted(candidate.choices))).get("w")
            jobs = generate_domain_workload(rng, "synthetic", n_jobs=6,
                                            horizon_s=30 * 86400)
            cluster = Cluster.homogeneous(
                "dc", int(candidate["machines"]), cores=2)
            policy = make_policy(candidate["policy"])
            metrics = simulate_schedule(jobs, cluster, policy)
            return 1.0 / metrics.mean_bounded_slowdown

        problem = DesignProblem("sched-config", space, quality=quality,
                                satisfice_threshold=0.2)
        rng = streams.get("bdc")

        def design_stage(context):
            candidate = space.random_candidate(rng)
            q = problem.evaluate(candidate)
            return (candidate, q) if q >= problem.satisfice_threshold \
                else None

        cycle = BasicDesignCycle(
            "sched-config", handlers={Stage.DESIGN: design_stage},
            target=StoppingCriterion.SATISFICED, budget=20)
        result = cycle.run()
        assert result.stopped_by is StoppingCriterion.SATISFICED
        candidate, q = result.answers[0]
        assert q >= 0.2
        assert candidate["policy"] in ("fcfs", "sjf", "ljf")
        # Provenance recorded for the whole exploration.
        assert result.document.executed()


class TestMonitoredAutoscaledServerless:
    """The serverless platform under a diurnal MMOG-style load: demand
    comes from one domain package, execution from another."""

    def test_diurnal_invocations_on_faas(self):
        from repro.serverless import FaaSPlatform, FunctionSpec, PlatformConfig
        from repro.workload.arrivals import DiurnalArrivals

        streams = RandomStreams(seed=14)
        env = Environment()
        platform = FaaSPlatform(env, PlatformConfig(cold_start_s=1.0,
                                                    keep_alive_s=1200.0))
        platform.deploy(FunctionSpec("matchmaker", runtime_s=0.5))
        arrivals = list(DiurnalArrivals(
            base_rate=1 / 120.0, rng=streams.get("arr"),
            amplitude=0.9).times(6 * 3600.0))

        def driver(env):
            last = 0.0
            for t in arrivals:
                yield env.timeout(t - last)
                last = t
                platform.invoke("matchmaker")
            # Drain.
            yield env.timeout(30.0)

        env.run(until=env.process(driver(env)))
        completed = platform.completed("matchmaker")
        assert len(completed) == len(arrivals)
        # Bursty diurnal peaks re-use warm instances: cold fraction < 1.
        assert platform.cold_start_fraction("matchmaker") < 0.9
        assert platform.cost() > 0
