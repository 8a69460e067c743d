"""Canonical small scenarios, one per domain — the golden-trace corpus.

Each scenario is a deterministic function of ``seed`` alone: it runs a
deliberately small configuration of one domain with a
:class:`~repro.observability.Tracer` and a
:class:`~repro.observability.MetricsRegistry` attached, and returns a
short summary dict. The serialized trace + metrics snapshot of each
scenario is committed under ``tests/golden/`` and structurally diffed on
every test run (see :mod:`repro.observability.golden`), so any behavior
change in a domain's event flow shows up as a span diff — reviewable,
blameable, and re-blessed only on purpose.

Keep scenarios SMALL (sub-second each): the corpus runs in every test
session. Changing a scenario's configuration invalidates its golden
trace; re-bless with ``python -m repro.observability.golden --update``.
"""

from __future__ import annotations

import math

from repro.sim.registry import MetricsRegistry
from repro.observability.trace import Tracer

#: Bump together with a scenario change that intentionally rewrites its
#: golden trace, so the corpus files record why they changed.
SCENARIO_REVISION = 1


def scenario_serverless(tracer: Tracer, registry: MetricsRegistry,
                        seed: int) -> dict:
    """Transient faults + retries on a small FaaS platform."""
    from repro.faults.chaos import run_serverless_scenario
    return run_serverless_scenario(
        seed=seed, error_rate=0.2, retry=True, n_invocations=30,
        rate_per_s=4.0, runtime_s=0.4, tracer=tracer, registry=registry)


def scenario_scheduling(tracer: Tracer, registry: MetricsRegistry,
                        seed: int) -> dict:
    """A bag of tasks on a crashing cluster with requeue."""
    from repro.faults.chaos import run_scheduling_scenario
    return run_scheduling_scenario(
        seed=seed, mtbf_s=400.0, mttr_s=40.0, requeue=True,
        n_tasks=24, n_machines=4, tracer=tracer, registry=registry)


def scenario_p2p(tracer: Tracer, registry: MetricsRegistry,
                 seed: int) -> dict:
    """A small swarm with churn under Poisson arrivals."""
    from repro.p2p.peer import ContentDescriptor
    from repro.p2p.swarm import SwarmConfig, run_swarm
    from repro.p2p.tracker import Tracker
    from repro.sim import RandomStreams
    from repro.workload.arrivals import PoissonArrivals

    streams = RandomStreams(seed)
    config = SwarmConfig(
        content=ContentDescriptor("golden", "720p", size_mb=40.0),
        initial_seeds=1, round_s=10.0, horizon_s=1800.0,
        seed_linger_s=300.0, mean_session_s=900.0)
    arrivals = PoissonArrivals(rate=1 / 120.0,
                               rng=streams.get("p2p-arrivals"))
    result = run_swarm(config, Tracker("golden"), streams.get("p2p-swarm"),
                       arrivals=arrivals, tracer=tracer, registry=registry)
    return {
        "peers": len(result.peers),
        "completed": len(result.completed),
        "churned": result.churned_count,
        "peak_swarm_size": result.peak_swarm_size(),
    }


def scenario_graphalytics(tracer: Tracer, registry: MetricsRegistry,
                          seed: int) -> dict:
    """A checkpointed BSP kernel under crash-restart faults."""
    from repro.graphalytics.robustness import run_supersteps_with_recovery
    from repro.recovery import CheckpointStore, PeriodicCheckpoint
    from repro.sim import Environment, RandomStreams

    streams = RandomStreams(seed)
    env = Environment()
    result = run_supersteps_with_recovery(
        n_supersteps=12, superstep_s=5.0,
        mtbf_s=45.0, mttr_s=8.0, rng=streams.get("graphalytics-crash"),
        policy=PeriodicCheckpoint(15.0),
        store=CheckpointStore(env, tier="local"),
        checkpoint_size_mb=50.0, restart_cost_s=1.0,
        algorithm="pagerank", env=env, tracer=tracer, registry=registry)
    return {
        "crashes": result.crashes,
        "lost_supersteps": result.lost_supersteps,
        "checkpoints": result.checkpoints_written,
        "makespan_s": round(result.makespan_s, 6),
    }


def scenario_mmog(tracer: Tracer, registry: MetricsRegistry,
                  seed: int) -> dict:
    """Brownout provisioning against a noisy diurnal demand ramp."""
    from repro.mmog.provisioning import TrendPredictor, \
        run_brownout_provisioning
    from repro.resilience import BrownoutController
    from repro.sim import RandomStreams

    rng = RandomStreams(seed).get("mmog-demand")
    steps = 48
    demand = [max(0.0, 600.0 + 450.0 * math.sin(2 * math.pi * i / steps)
                  + float(rng.normal(0.0, 40.0)))
              for i in range(steps)]
    result = run_brownout_provisioning(
        demand, TrendPredictor(window=4), BrownoutController(),
        players_per_server=100, step_s=300.0,
        provisioning_delay_steps=2, tracer=tracer, registry=registry)
    return {
        "server_hours": round(result.server_hours, 6),
        "degraded_fraction": round(result.degraded_fraction, 6),
        "mean_update_fidelity": round(result.mean_update_fidelity, 6),
    }


def scenario_autoscaling(tracer: Tracer, registry: MetricsRegistry,
                         seed: int) -> dict:
    """Map-reduce workflows under a reactive autoscaler."""
    from repro.autoscaling.autoscalers import make_autoscaler
    from repro.autoscaling.experiment import ExperimentConfig, \
        run_autoscaling_experiment
    from repro.sim import RandomStreams
    from repro.workload.task import MapReduceJob

    rng = RandomStreams(seed).get("autoscaling-work")
    workflows = [
        MapReduceJob(n_maps=3, n_reduces=2,
                     map_work=float(rng.uniform(60.0, 120.0)),
                     reduce_work=float(rng.uniform(90.0, 150.0)),
                     submit_time=i * 180.0, name=f"mr{i}")
        for i in range(3)
    ]
    result = run_autoscaling_experiment(
        workflows, make_autoscaler("react"),
        ExperimentConfig(step_s=30.0, provisioning_delay_steps=1,
                         max_supply=64.0),
        tracer=tracer, registry=registry)
    return {
        "workflows": result.n_workflows,
        "violations": result.deadline_violations,
        "mean_makespan": round(result.mean_makespan, 6),
        "resource_seconds": round(result.resource_seconds, 6),
    }


def scenario_recovery(tracer: Tracer, registry: MetricsRegistry,
                      seed: int) -> dict:
    """One checkpointed job under crash-restart, Daly-optimal interval."""
    from repro.faults.chaos import run_recovery_scenario
    result = run_recovery_scenario(
        seed=seed, policy="daly", work_s=400.0, mtbf_s=150.0,
        mttr_s=10.0, checkpoint_size_mb=50.0, restart_cost_s=1.0,
        tracer=tracer, registry=registry)
    return {k: result[k] for k in
            ("crashes", "checkpoints", "restores", "makespan_s")}


def scenario_partition(tracer: Tracer, registry: MetricsRegistry,
                       seed: int) -> dict:
    """The composed-ecosystem chaos study: partition + gray + invariants."""
    from repro.faults.chaos import run_partition_scenario
    result = run_partition_scenario(
        seed=seed, n_tasks=40, task_rate_per_s=0.8,
        n_invocations=60, invoke_rate_per_s=1.2,
        tracer=tracer, registry=registry)
    return {k: result[k] for k in
            ("offered", "admitted", "door_shed", "submitted", "completed",
             "lost", "misdispatches", "lost_reports", "scheduler_crashes",
             "suspicions", "false_suspicions", "gray_worker_suspected",
             "messages_sent", "messages_blocked", "messages_dropped",
             "invariant_checks", "invariant_violations", "makespan_s")}


def scenario_failover(tracer: Tracer, registry: MetricsRegistry,
                      seed: int) -> dict:
    """Replicated control plane: leader partitioned away, standby fences."""
    from repro.faults.chaos import run_failover_scenario
    result = run_failover_scenario(seed=seed, tracer=tracer,
                                   registry=registry)
    return {k: result[k] for k in
            ("offered", "admitted", "submitted", "completed", "lost",
             "misdispatches", "lost_reports", "scheduler_crashes",
             "failovers", "promotions", "terms_with_leader",
             "leader_timeline", "final_leader", "final_term", "elections",
             "failover_mttr_s", "records_shipped", "ship_resends",
             "unshipped_at_promotion", "stale_dispatches",
             "fenced_writes_rejected", "old_leader_deposed_at_s",
             "messages_blocked", "messages_dropped",
             "invariant_checks", "invariant_violations", "makespan_s")}


#: The corpus: name -> scenario function. Insertion order is the run and
#: report order everywhere (CLI, tests).
SCENARIOS = {
    "serverless": scenario_serverless,
    "scheduling": scenario_scheduling,
    "p2p": scenario_p2p,
    "graphalytics": scenario_graphalytics,
    "mmog": scenario_mmog,
    "autoscaling": scenario_autoscaling,
    "recovery": scenario_recovery,
    "partition": scenario_partition,
    "failover": scenario_failover,
}

#: Scenarios that intentionally compose *several* domains in one world:
#: their metrics carry each participating domain's own namespace
#: (``scheduling.*``, ``serverless.*``, ``network.*``, ...) rather than
#: the scenario's name, and the metric-catalog namespacing test exempts
#: them accordingly.
COMPOSED_SCENARIOS = frozenset({"partition", "failover"})

#: The seed every golden trace is blessed under.
GOLDEN_SEED = 7


def run_scenario(name: str, seed: int = GOLDEN_SEED
                 ) -> tuple[Tracer, MetricsRegistry, dict]:
    """Run one canonical scenario; returns (tracer, registry, summary)."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {sorted(SCENARIOS)}") from None
    tracer = Tracer(name=name)
    tracer.meta.update({"scenario": name, "seed": seed,
                        "revision": SCENARIO_REVISION})
    registry = MetricsRegistry()
    summary = fn(tracer, registry, seed)
    return tracer, registry, summary
