"""Tests for the portfolio scheduler and the Table 9 experiments."""

import heapq
import struct

import pytest

from repro.cluster import Cluster
from repro.scheduling import (
    BackfillPolicy,
    ClusterSimulator,
    ENVIRONMENTS,
    FairSharePolicy,
    FCFSPolicy,
    LJFPolicy,
    PortfolioConfig,
    PortfolioScheduler,
    SJFPolicy,
    run_table9_cell,
)
from repro.scheduling import portfolio as portfolio_module
from repro.scheduling.experiments import rescale_to_load, run_portfolio, run_static
from repro.scheduling.portfolio import predict_objective
from repro.scheduling.simulator import SLOWDOWN_BOUND_S
from repro.sim import Environment, RandomStreams
from repro.workload import BagOfTasks, Task, Workflow


def bag(works, submit=0.0):
    tasks = []
    for w in works:
        t = Task(work=w)
        t.runtime_estimate = w
        tasks.append(t)
    return BagOfTasks(tasks, submit_time=submit)


class TestPredictObjective:
    def test_empty_queue_is_zero(self):
        assert predict_objective(FCFSPolicy(), [], [], 8, now=0) == 0.0

    def test_sjf_predicts_lower_objective_on_mixed_queue(self):
        tasks = []
        for w in [1000, 10, 10, 10]:
            t = Task(work=w, submit_time=0)
            t.runtime_estimate = w
            tasks.append(t)
        sjf = predict_objective(SJFPolicy(), tasks, [], 1, now=0)
        ljf = predict_objective(LJFPolicy(), tasks, [], 1, now=0)
        assert sjf < ljf

    def test_running_tasks_delay_start(self):
        t = Task(work=10, submit_time=0)
        t.runtime_estimate = 10
        free_now = predict_objective(FCFSPolicy(), [t], [], 1, now=0)
        busy = predict_objective(FCFSPolicy(), [t], [(100.0, 1)], 1, now=0)
        assert busy > free_now

    def test_unplaceable_penalized(self):
        t = Task(work=10, cores=64, submit_time=0)
        t.runtime_estimate = 10
        score = predict_objective(FCFSPolicy(), [t], [], 8, now=0)
        assert score >= 1000.0


def _oracle_objective(policy, queued, running, total_cores, now):
    """The original formulation of :func:`predict_objective`, kept as the
    reference the optimized one must match bit for bit."""
    heap = [(finish, cores) for finish, cores in running]
    heapq.heapify(heap)
    free = total_cores - sum(c for _, c in running)
    t = now
    total_slowdown = 0.0
    order = policy.order(list(queued), now)
    for task in order:
        estimate = task.runtime_estimate or task.work
        while free < task.cores and heap:
            finish, cores = heapq.heappop(heap)
            t = max(t, finish)
            free += cores
        if free < task.cores:
            total_slowdown += 1000.0
            continue
        start = t
        free -= task.cores
        heapq.heappush(heap, (start + estimate, task.cores))
        response = (start - task.submit_time) + estimate
        total_slowdown += max(
            response / max(estimate, SLOWDOWN_BOUND_S), 1.0)
    return total_slowdown / max(len(order), 1)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _random_state(rng, now):
    """A queue and running set built to hit every tie ``max`` resolves:
    estimates equal to the slowdown bound, responses equal to their
    estimate (submitted now, started now), and releases exactly at now."""
    total_cores = int(rng.integers(4, 33))
    queued = []
    for _ in range(int(rng.integers(0, 40))):
        work = float(rng.choice([SLOWDOWN_BOUND_S, 1.0, 25.0,
                                 float(rng.uniform(0.5, 500.0))]))
        task = Task(work=work, cores=int(rng.integers(1, total_cores + 3)),
                    submit_time=float(rng.choice(
                        [now, now - 10.0, float(rng.uniform(0.0, now))])))
        task.runtime_estimate = rng.choice(
            [None, 0.0, SLOWDOWN_BOUND_S, work, float(rng.uniform(1, 300))])
        queued.append(task)
    running = []
    busy = 0
    while busy < total_cores and rng.random() < 0.8:
        cores = int(rng.integers(1, total_cores - busy + 1))
        finish = float(rng.choice(
            [now, now + SLOWDOWN_BOUND_S, float(rng.uniform(now - 5, now + 400))]))
        running.append((finish, cores))
        busy += cores
    return queued, running, total_cores


class TestPredictObjectiveOracle:
    """The optimized predictor returns the original formulation's float."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_original_formulation(self, seed):
        rng = RandomStreams(seed=seed).get("predict-oracle")
        now = float(rng.choice([0.0, 300.0, float(rng.uniform(10, 5000))]))
        queued, running, total_cores = _random_state(rng, now)
        snapshot = list(queued)
        for make in (FCFSPolicy, SJFPolicy, LJFPolicy, BackfillPolicy,
                     FairSharePolicy):
            got = predict_objective(make(), queued, running, total_cores, now)
            want = _oracle_objective(make(), queued, running, total_cores,
                                     now)
            assert _bits(got) == _bits(want), (make.name, got, want)
            # The caller's own order, as the portfolio passes it.
            policy = make()
            given = predict_objective(policy, queued, running, total_cores,
                                      now, order=policy.order(queued, now))
            assert _bits(given) == _bits(want), (make.name, given, want)
        # order() hands back a new list; the caller's queue is untouched.
        assert all(a is b for a, b in zip(queued, snapshot))
        assert len(queued) == len(snapshot)

    def test_forced_ties(self):
        # One task submitted now with estimate == the bound, on an idle
        # system: response / estimate is exactly 1.0.
        task = Task(work=SLOWDOWN_BOUND_S, submit_time=5.0)
        task.runtime_estimate = SLOWDOWN_BOUND_S
        assert predict_objective(FCFSPolicy(), [task], [], 1, 5.0) == 1.0
        # A release exactly at now: max(t, finish) ties.
        busy = [(5.0, 1)]
        assert _bits(predict_objective(FCFSPolicy(), [task], busy, 1, 5.0)) \
            == _bits(_oracle_objective(FCFSPolicy(), [task], busy, 1, 5.0))

    def test_zero_estimate_predicts_like_work(self):
        def one(estimate):
            task = Task(work=40.0, submit_time=0.0)
            task.runtime_estimate = estimate
            return predict_objective(FCFSPolicy(), [task], [(30.0, 1)], 1,
                                     0.0)

        assert one(0.0) == one(None) == one(40.0)


class TestPortfolioScheduler:
    def _run(self, config=None, works=None):
        env = Environment()
        cluster = Cluster.homogeneous("c", 1, cores=2)
        sim = ClusterSimulator(env, cluster, FCFSPolicy())
        policies = [FCFSPolicy(), SJFPolicy(), LJFPolicy()]
        portfolio = PortfolioScheduler(env, sim, policies, config)
        jobs = [bag(works or [800, 20, 20, 20, 20], submit=0),
                bag([30, 30, 30], submit=100)]
        sim.submit_jobs(jobs)
        env.run()
        return sim, portfolio

    def test_selects_and_records(self):
        sim, portfolio = self._run()
        assert portfolio.stats.epochs >= 1
        assert portfolio.stats.selections
        assert sum(portfolio.stats.policy_use_epochs.values()) == (
            portfolio.stats.epochs)

    def test_picks_sjf_under_mixed_queue(self):
        config = PortfolioConfig(decision_interval_s=50.0)
        sim, portfolio = self._run(config)
        used = portfolio.stats.policy_use_epochs
        assert used.get("sjf", 0) >= used.get("ljf", 0)

    def test_active_set_reduces_simulation_cost(self):
        full_cfg = PortfolioConfig(decision_interval_s=25.0)
        limited_cfg = PortfolioConfig(decision_interval_s=25.0,
                                      active_set_size=1,
                                      full_refresh_epochs=100)
        _, full = self._run(full_cfg)
        _, limited = self._run(limited_cfg)
        assert limited.stats.simulated_policy_epochs < (
            full.stats.simulated_policy_epochs)
        assert limited.stats.total_sim_cost_s < full.stats.total_sim_cost_s

    def test_sim_cost_grows_with_portfolio_size(self):
        """The [114] finding: online simulation cost is proportional to
        the number of policies."""
        env = Environment()
        cluster = Cluster.homogeneous("c", 1, cores=2)

        def run_with(policies):
            env = Environment()
            sim = ClusterSimulator(env, Cluster.homogeneous("c", 1, cores=2),
                                   FCFSPolicy())
            pf = PortfolioScheduler(
                env, sim, policies,
                PortfolioConfig(decision_interval_s=50.0))
            sim.submit_jobs([bag([100] * 10)])
            env.run()
            return pf.stats

        small = run_with([FCFSPolicy()])
        large = run_with([FCFSPolicy(), SJFPolicy(), LJFPolicy()])
        assert large.total_sim_cost_s > 2 * small.total_sim_cost_s

    def test_empty_portfolio_rejected(self):
        env = Environment()
        sim = ClusterSimulator(env, Cluster.homogeneous("c", 1),
                               FCFSPolicy())
        with pytest.raises(ValueError):
            PortfolioScheduler(env, sim, [])

    def test_duplicate_policies_rejected(self):
        env = Environment()
        sim = ClusterSimulator(env, Cluster.homogeneous("c", 1),
                               FCFSPolicy())
        with pytest.raises(ValueError):
            PortfolioScheduler(env, sim, [FCFSPolicy(), FCFSPolicy()])


class TestPortfolioConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"decision_interval_s": 0.0},
        {"decision_interval_s": -1.0},
        {"decision_interval_s": float("nan")},
        {"active_set_size": 0},
        {"full_refresh_epochs": 0},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"ewma_alpha": float("nan")},
        {"sim_cost_per_task_s": -0.001},
        {"sim_cost_per_task_s": float("nan")},
    ])
    def test_rejects_values_that_hang_or_crash_a_run(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PortfolioConfig(**kwargs)

    def test_accepts_the_edges(self):
        PortfolioConfig(decision_interval_s=1e-9, active_set_size=1,
                        full_refresh_epochs=1, ewma_alpha=1.0,
                        sim_cost_per_task_s=0.0)


class _PredictEveryCandidate(PortfolioScheduler):
    """The decision as first written: predict every candidate, even when
    two candidates order the queue alike. The reference the
    one-prediction-per-distinct-order decision must reproduce."""

    def _decide(self):
        queued, running = self._snapshot()
        candidates = self._candidates()
        system_size = len(queued) + len(running)
        best_policy = self.simulator.policy
        best_score = float("inf")
        for policy in candidates:
            score = predict_objective(
                policy, queued, running,
                self.simulator.cluster.total_cores, self.env.now)
            self.stats.simulated_policy_epochs += 1
            self.stats.total_sim_cost_s += (
                self.config.sim_cost_per_task_s * system_size)
            alpha = self.config.ewma_alpha
            self._scores[policy.name] = (
                alpha * score + (1 - alpha) * self._scores[policy.name])
            if score < best_score:
                best_score = score
                best_policy = policy
        return best_policy


def _jobs(seed, users):
    """Bags cycling through ``users``, plus a workflow of user
    ``"default"``. With one user, fcfs, backfill and fair-share order
    alike; with ``u0`` charged up front (see ``_run_portfolio_on``),
    fair-share orders a ``u0``/``u1`` queue unlike fcfs."""
    rng = RandomStreams(seed=seed).get("portfolio-jobs")
    jobs = []
    for j in range(5):
        tasks = []
        for _ in range(int(rng.integers(3, 12))):
            work = float(rng.uniform(5, 300))
            task = Task(work=work, cores=int(rng.integers(1, 5)))
            task.runtime_estimate = rng.choice(
                [None, 0.0, work, work * float(rng.uniform(0.3, 3.0))])
            tasks.append(task)
        submit = float(rng.uniform(0, 400))
        if j == 4:
            edges = [(tasks[i].task_id, tasks[i + 1].task_id)
                     for i in range(0, len(tasks) - 1, 2)]
            jobs.append(Workflow(tasks, edges, submit_time=submit))
        else:
            jobs.append(BagOfTasks(tasks, submit_time=submit,
                                   user=users[j % len(users)]))
    return jobs


SINGLE_USER = ("default",)
MULTI_USER = ("u0", "u1")


def _run_portfolio_on(scheduler_cls, jobs, config):
    env = Environment()
    sim = ClusterSimulator(env, Cluster.homogeneous("c", 2, cores=4),
                           FCFSPolicy())
    fair_share = FairSharePolicy()
    fair_share.charge("u0", 5000.0)
    pf = scheduler_cls(env, sim, [FCFSPolicy(), SJFPolicy(), LJFPolicy(),
                                  BackfillPolicy(), fair_share], config)
    sim.submit_jobs(jobs)
    env.run()
    return sim, pf


def _outcome(sim, pf):
    stats = pf.stats
    return (stats.selections, stats.policy_use_epochs, stats.switches,
            stats.simulated_policy_epochs, _bits(stats.total_sim_cost_s),
            {name: _bits(score) for name, score in pf._scores.items()},
            _bits(sim.metrics().objective()))


class TestOnePredictionPerDistinctOrder:
    """Candidates that order the queue alike share one prediction, and
    every recorded result matches predicting each candidate afresh."""

    @pytest.mark.parametrize("users,config", [
        (SINGLE_USER, PortfolioConfig(decision_interval_s=40.0)),
        (MULTI_USER, PortfolioConfig(decision_interval_s=40.0)),
        (MULTI_USER, PortfolioConfig(decision_interval_s=40.0,
                                     active_set_size=2,
                                     full_refresh_epochs=3)),
    ], ids=["single-user", "multi-user", "active-set-2"])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_decisions_as_predicting_every_candidate(
            self, users, config, seed):
        got = _outcome(*_run_portfolio_on(PortfolioScheduler,
                                          _jobs(seed, users), config))
        want = _outcome(*_run_portfolio_on(_PredictEveryCandidate,
                                           _jobs(seed, users), config))
        assert got == want

    @pytest.mark.parametrize("users", [SINGLE_USER, MULTI_USER],
                             ids=["single-user", "multi-user"])
    def test_one_prediction_per_distinct_order(self, monkeypatch, users):
        calls = []
        predict = portfolio_module.predict_objective

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return predict(*args, **kwargs)

        monkeypatch.setattr(portfolio_module, "predict_objective", counted)
        distinct = []
        candidates_seen = []
        decide = PortfolioScheduler._decide

        def audited(self):
            queued, _ = self._snapshot()
            orders = {tuple(id(t) for t in p.order(queued, self.env.now))
                      for p in self._candidates()}
            distinct.append(len(orders))
            candidates_seen.append(len(self._candidates()))
            return decide(self)

        monkeypatch.setattr(PortfolioScheduler, "_decide", audited)
        _, pf = _run_portfolio_on(PortfolioScheduler, _jobs(0, users),
                                  PortfolioConfig(decision_interval_s=40.0))
        assert len(calls) == sum(distinct)
        assert len(calls) < sum(candidates_seen)
        assert pf.stats.simulated_policy_epochs == sum(candidates_seen)
        # backfill always reuses fcfs's prediction; fair-share does too
        # while all queued tasks belong to one user.
        assert "backfill" not in calls
        assert ("fair-share" in calls) == (users is MULTI_USER)


class TestTable9:
    def test_rescale_hits_target_load(self):
        rng = RandomStreams(seed=2).get("w")
        from repro.workload.generators import generate_domain_workload
        jobs = generate_domain_workload(rng, "synthetic", n_jobs=20,
                                        horizon_s=90 * 86400)
        cluster = Cluster.homogeneous("c", 4, cores=4)
        rescale_to_load(jobs, cluster, target_load=2.0)
        total_work = sum(t.work * t.cores for j in jobs for t in j.tasks)
        window = (max(j.submit_time for j in jobs)
                  - min(j.submit_time for j in jobs))
        load = total_work / (window * 16)
        assert load == pytest.approx(2.0, rel=0.01)

    def test_rescale_validation(self):
        cluster = Cluster.homogeneous("c", 1)
        with pytest.raises(ValueError):
            rescale_to_load([bag([1])], cluster, target_load=0)

    def test_bigdata_cell_ps_useful_and_policies_differ(self):
        """The Table 9 'bigdata' row: policies spread widely (estimates
        are bad), yet the portfolio stays near the best."""
        cell = run_table9_cell("bigdata", "CL", seed=1, n_jobs=25)
        best_name, best = cell.best_static
        _, worst = cell.worst_static
        assert worst > best * 1.3  # static policies genuinely differ
        assert cell.ps_is_useful()

    def test_synthetic_cell(self):
        cell = run_table9_cell("synthetic", "CL", seed=1, n_jobs=25)
        assert cell.ps_is_useful(tolerance=0.3)
        assert cell.portfolio_stats.epochs > 0

    def test_portfolio_beats_worst_static(self):
        cell = run_table9_cell("scientific", "G+CD", seed=2, n_jobs=20)
        _, worst = cell.worst_static
        assert cell.portfolio_result <= worst * 1.05

    def test_environments_registry(self):
        assert set(ENVIRONMENTS) == {"CL", "CD", "G+CD", "MCD", "GDC"}
        for factory in ENVIRONMENTS.values():
            cluster = factory()
            assert cluster.total_cores > 0
