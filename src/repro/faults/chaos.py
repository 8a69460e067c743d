"""The chaos harness: a scenario matrix of fault model × resilience policy.

Each scenario runs one experiment domain under a fault regime, with its
resilience policy on or off, and reports SLO attainment and availability
next to the fault-free baseline of the *same seed* — so the matrix answers
the operational questions directly: how much does this failure mode hurt,
and how much does the mitigation buy back?

Everything is deterministic under a fixed root seed (Challenge C3): run
the matrix twice and the tables are identical.

Run ``python examples/chaos_experiment.py`` for the full demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.cluster import Cluster, FailureInjector
from repro.cluster.machine import Machine
from repro.faults.episodes import EPISODE_KINDS, Episode, normalize_episodes
from repro.faults.models import CrashRestart, TransientErrorModel
from repro.faults.partition import (
    GrayFailureModel,
    NetworkPartitionModel,
    PartitionEpisode,
    ScheduledMessageLoss,
)
from repro.faults.policies import RetryPolicy
from repro.invariants import InvariantEngine, standard_laws
from repro.recovery import (
    CHECKPOINT_TIERS,
    CheckpointStore,
    CheckpointedJob,
    DalyOptimalCheckpoint,
    Journal,
    PeriodicCheckpoint,
    daly_interval_s,
)
from repro.replication import ReplicatedControlPlane
from repro.resilience import (
    BrownoutController,
    CoDelShedder,
    HeartbeatEmitter,
    PhiAccrualDetector,
    ServiceMode,
    TokenBucketAdmitter,
)
from repro.scheduling.policies import FCFSPolicy
from repro.scheduling.simulator import ClusterSimulator
from repro.serverless import FaaSPlatform, FunctionSpec, PlatformConfig
from repro.sim import Environment, Monitor, Network, RandomStreams
from repro.workload.task import BagOfTasks, Task


@dataclass
class ChaosOutcome:
    """One cell of the chaos matrix."""

    domain: str
    fault: str
    policy: str
    slo_attainment: float
    availability: float
    details: dict = field(default_factory=dict)


# -- serverless: transient invocation faults vs. platform retries ----------

def run_serverless_scenario(seed: int = 0, error_rate: float = 0.0,
                            retry: bool = False,
                            n_invocations: int = 300,
                            rate_per_s: float = 2.0,
                            runtime_s: float = 0.5,
                            tracer=None, registry=None) -> dict:
    """Open-loop Poisson traffic against a FaaS platform whose invocations
    fail transiently; the platform may retry with exponential backoff."""
    streams = RandomStreams(seed)
    env = Environment()
    fault_model = (TransientErrorModel(streams.get("serverless-faults"),
                                       error_rate)
                   if error_rate > 0 else None)
    retry_policy = (RetryPolicy(max_attempts=4, base_delay_s=0.05,
                                multiplier=2.0, max_delay_s=1.0, jitter=0.1)
                    if retry else None)
    platform = FaaSPlatform(
        env, PlatformConfig(cold_start_s=0.5, keep_alive_s=600.0),
        fault_model=fault_model, retry_policy=retry_policy,
        retry_rng=streams.get("retry-jitter"),
        tracer=tracer, registry=registry)
    platform.deploy(FunctionSpec("f", runtime_s=runtime_s, memory_gb=0.5))
    env.process(_arrivals(env, streams.get("serverless-arrivals"),
                          n_invocations, rate_per_s, (),
                          lambda: platform.invoke("f")))
    # Enough slack past the last arrival for retries to drain.
    env.run(until=n_invocations / rate_per_s + 120.0)
    monitor = platform.monitor
    return {
        "slo_attainment": platform.slo_attainment(2.5, "f"),
        "availability": 1.0 - platform.failure_fraction("f"),
        "invocations": len(platform.invocations),
        "completed": len(platform.completed("f")),
        "faults": monitor.total("faults"),
        "retries": monitor.total("retries"),
        "billed_gb_s": round(platform.billed_gb_s, 6),
        "mean_attempts": (sum(i.attempts for i in platform.invocations)
                          / max(1, len(platform.invocations))),
    }


# -- serverless: overload vs. admission control + brownout -----------------

def run_overload_scenario(seed: int = 0, admission: bool = False,
                          n_invocations: int = 600,
                          tracer=None, registry=None) -> dict:
    """A flash crowd against a capacity-capped FaaS platform.

    Offered load (50 per second) exceeds capacity (8 concurrent slots of
    0.2 s each, 40 per second). Without admission the 64-slot queue
    fills, every admitted request marinates behind it, and the tail
    collapses; with admission a token bucket (36/s, burst 16) sheds the
    excess at the front door, the CoDel shedder drops requests that
    already waited past the delay target, and the brownout controller
    stops paying for cold starts under pressure — so the requests that
    *are* served finish on time. Goodput here is SLO-goodput: completions
    within the 1 s SLO per second of simulated time.
    """
    streams = RandomStreams(seed)
    env = Environment()
    admitter = shedder = brownout = None
    if admission:
        admitter = TokenBucketAdmitter(env, rate_per_s=36.0, burst=16.0)
        shedder = CoDelShedder(env, target_s=0.15, interval_s=1.0)
        # Pressure scale (see FaaSPlatform.pressure): <1 is utilization,
        # >1 is 1 + head-of-queue delay in seconds.
        brownout = BrownoutController(degraded_enter=1.05,
                                      degraded_exit=0.95,
                                      critical_enter=1.5,
                                      critical_exit=1.1)
    platform = FaaSPlatform(
        env,
        PlatformConfig(cold_start_s=0.25, keep_alive_s=600.0,
                       concurrency_limit=8, prewarmed=8, queue_capacity=64),
        admitter=admitter, shedder=shedder, brownout=brownout,
        tracer=tracer, registry=registry)
    platform.deploy(FunctionSpec("f", runtime_s=0.2, memory_gb=0.5))
    env.process(_arrivals(env, streams.get("overload-arrivals"),
                          n_invocations, 50.0, (),
                          lambda: platform.invoke("f")))
    duration = n_invocations / 50.0 + 30.0
    env.run(until=duration)
    if brownout is not None:
        brownout.finish(env.now)
    completed = platform.completed("f")
    latencies = sorted(i.latency for i in completed)
    in_slo = sum(1 for lat in latencies if lat <= 1.0)
    result = {
        "slo_attainment": platform.slo_attainment(1.0, "f"),
        "availability": 1.0 - platform.failure_fraction("f"),
        "invocations": len(platform.invocations),
        "completed": len(completed),
        "shed": len(platform.shed("f")),
        "rejected": sum(1 for i in platform.invocations if i.rejected),
        "shed_fraction": platform.shed_fraction("f"),
        "goodput_per_s": in_slo / duration,
        "p50_latency_s": (float(np.percentile(latencies, 50))
                          if latencies else float("inf")),
        "p99_latency_s": (float(np.percentile(latencies, 99))
                          if latencies else float("inf")),
    }
    if admission:
        result["admitted"] = admitter.admitted
        result["bucket_shed"] = admitter.shed
        result["codel_shed"] = shedder.shed
        result["brownout_transitions"] = brownout.transitions
        result["degraded_time_s"] = brownout.degraded_time_s()
    return result


# -- detection: heartbeats + phi-accrual vs. a silent crash ----------------

def run_detection_scenario(seed: int = 0, crash: bool = True,
                           crash_at_s: float = 30.0,
                           n_machines: int = 6,
                           duration_s: float = 90.0) -> dict:
    """Heartbeat-monitored machines, one of which may crash silently.

    Measures the two numbers every failure detector trades between: how
    long after the crash the detector suspects the dead machine
    (detection latency), and how often healthy machines get wrongly
    suspected (false suspicions — zero here under bounded jitter, by the
    phi math).
    """
    streams = RandomStreams(seed)
    env = Environment()
    detector = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
    up: dict[str, bool] = {f"m{i}": True for i in range(n_machines)}
    emitters = {}
    for name in sorted(up):
        emitters[name] = HeartbeatEmitter(
            env, detector, name, 1.0, rng=streams.get(f"hb-{name}"),
            is_up=lambda name=name: up[name])

    def crasher(env):
        yield env.timeout(crash_at_s)
        up["m0"] = False

    if crash:
        env.process(crasher(env))
    env.run(until=duration_s)
    latency = (detector.detection_latency_s("m0", crash_at_s)
               if crash else None)
    return {
        "suspects": detector.suspects(),
        "detection_latency_s": latency,
        "suspicions": detector.suspicions,
        "false_suspicions": detector.false_suspicions,
        "heartbeats_sent": sum(e.sent for e in emitters.values()),
        "heartbeats_suppressed": sum(e.suppressed
                                     for e in emitters.values()),
    }


# -- scheduling: machine crashes vs. requeue-and-restart -------------------

def run_scheduling_scenario(seed: int = 0, mtbf_s: Optional[float] = None,
                            mttr_s: float = 60.0,
                            requeue: bool = True,
                            n_tasks: int = 120,
                            n_machines: int = 8,
                            health_aware: bool = False,
                            tracer=None, registry=None) -> dict:
    """A bag of tasks on a crashing cluster. Without requeue, work killed
    by a crash is lost (goodput drops); with requeue it restarts elsewhere.

    With ``health_aware`` the scheduler stops reading the cluster's
    ground-truth machine state: each machine emits heartbeats into a
    phi-accrual detector, placement skips suspected machines and uses the
    scheduler's own capacity books, and a dispatch that races a crash
    before detection is lost for a dispatch timeout (a *misdispatch*).
    """
    streams = RandomStreams(seed)
    env = Environment()
    cluster = Cluster.homogeneous("chaos", n_machines, cores=4)
    work_rng = streams.get("task-sizes")
    tasks = [Task(work=float(work_rng.uniform(20.0, 120.0)))
             for _ in range(n_tasks)]
    detector = None
    if health_aware:
        detector = PhiAccrualDetector(env, threshold=8.0,
                                      poll_interval_s=0.5)
        for machine in cluster.machines:
            HeartbeatEmitter(env, detector, machine.name, 1.0,
                             rng=streams.get(f"hb-{machine.name}"),
                             is_up=lambda m=machine: m.is_up)
    sim = ClusterSimulator(env, cluster, FCFSPolicy(),
                           failure_mode="requeue" if requeue else "drop",
                           health=detector,
                           tracer=tracer, registry=registry)
    injector = None
    if mtbf_s is not None:
        injector = FailureInjector(
            env, cluster, streams.get("machine-failures"),
            mtbf_s=mtbf_s, mttr_s=mttr_s,
            on_failure=sim.handle_machine_failure)
        # A repair frees capacity: wake the scheduler so queued work flows.
        injector.on_repair = sim.handle_machine_repair
    sim.submit_jobs([BagOfTasks(tasks)])
    env.run(until=sim._scheduler)
    metrics = sim.metrics()
    total_core_s = sim.goodput_core_s + sim.wasted_core_s
    extra = {}
    if detector is not None:
        extra = {
            "misdispatches": sim.misdispatches,
            "suspicions": detector.suspicions,
            "false_suspicions": detector.false_suspicions,
        }
    return extra | {
        "slo_attainment": metrics.completed_fraction,
        "availability": (injector.empirical_availability()
                         if injector is not None else 1.0),
        "completed": metrics.n_tasks,
        "lost": len(sim.failed),
        "restarts": sim.restarts,
        "goodput_core_s": round(sim.goodput_core_s, 3),
        "wasted_core_s": round(sim.wasted_core_s, 3),
        "wasted_fraction": (round(sim.wasted_core_s / total_core_s, 6)
                            if total_core_s else 0.0),
        "makespan_s": round(metrics.makespan_s, 3),
    }


# -- recovery: checkpoint/restore vs. restart-from-scratch -----------------

def run_recovery_scenario(seed: int = 0, policy: str = "daly",
                          work_s: float = 1500.0,
                          mtbf_s: float = 500.0, mttr_s: float = 30.0,
                          checkpoint_size_mb: float = 100.0,
                          tier: str = "local",
                          interval_s: Optional[float] = None,
                          corruption_p: float = 0.0,
                          restart_cost_s: float = 2.0,
                          tracer=None, registry=None) -> dict:
    """One long job under ``CrashRestart``, with a checkpoint policy on/off.

    ``policy`` selects the recovery stance: ``"none"`` restarts from
    scratch on every crash (the baseline), ``"periodic"`` checkpoints
    every ``interval_s`` seconds, and ``"daly"`` uses the Young/Daly
    optimum computed *from the active fault model*. The returned dict
    carries the full recovery ledger: makespan inflation, lost work,
    checkpoint overhead, and recovery time.
    """
    if policy not in ("none", "periodic", "daly"):
        raise ValueError(f"unknown recovery policy {policy!r}")
    streams = RandomStreams(seed)
    env = Environment()
    store = ckpt_policy = None
    crash_rng = streams.get("recovery-crash")
    if policy != "none":
        store = CheckpointStore(
            env, tier=tier, keep_last=3,
            corruption_p=corruption_p,
            rng=streams.get("ckpt-corruption") if corruption_p > 0 else None)
        cost_s = store.write_time_s(checkpoint_size_mb)
        if policy == "periodic":
            if interval_s is None:
                raise ValueError("policy='periodic' needs interval_s")
            ckpt_policy = PeriodicCheckpoint(interval_s)
        else:
            ckpt_policy = DalyOptimalCheckpoint(cost_s, mtbf_s=mtbf_s)
    if tracer is not None and tracer.env is None:
        tracer.bind(env)
    job = CheckpointedJob(env, work_s=work_s, policy=ckpt_policy,
                          store=store,
                          checkpoint_size_mb=checkpoint_size_mb,
                          restart_cost_s=restart_cost_s, name="recovery",
                          monitor=Monitor(env, registry=registry,
                                          namespace="recovery"),
                          tracer=tracer)
    crash = CrashRestart(env, [job], crash_rng,
                         mtbf_s=mtbf_s, mttr_s=mttr_s, name="recovery-crash")
    env.run(until=job.done)
    stats = job.stats()
    tier_model = CHECKPOINT_TIERS[tier]
    write_cost_s = (tier_model.latency_s
                    + checkpoint_size_mb / tier_model.write_mb_per_s)
    return {
        "policy": policy,
        "interval_s": (round(ckpt_policy.interval_s(), 3)
                       if ckpt_policy is not None else None),
        "daly_interval_s": round(daly_interval_s(write_cost_s, mtbf_s), 3),
        "work_s": stats.work_s,
        "makespan_s": round(stats.makespan_s, 3),
        "makespan_inflation": round(stats.makespan_inflation, 6),
        "crashes": stats.crashes,
        "lost_work_s": round(stats.lost_work_s, 3),
        "checkpoint_time_s": round(stats.checkpoint_time_s, 3),
        "recovery_time_s": round(stats.recovery_time_s, 3),
        "downtime_s": round(stats.downtime_s, 3),
        "checkpoints": stats.checkpoints_written,
        "restores": stats.restores,
        "corrupt_fallbacks": stats.corrupt_fallbacks,
        "availability": round(crash.empirical_availability(), 6),
    }


def _scheduler_crashes(env: Environment, sim: ClusterSimulator,
                       crashes: Iterable[Episode]):
    """Process body: fail-stop ``sim``'s scheduler for each crash episode,
    then recover it by journal; a crash that finds the work all done or
    the scheduler already down is skipped."""
    for e in crashes:
        if e.start_s > env.now:
            yield env.timeout(e.start_s - env.now)
        if sim.all_done or sim.crashed:
            continue
        sim.crash_scheduler()
        yield env.timeout(e.duration_s)
        yield from sim.recover_scheduler()


def run_scheduler_recovery_scenario(
        seed: int = 0, journaled: bool = True, n_tasks: int = 80,
        n_machines: int = 6,
        machine_mtbf_s: Optional[float] = 150.0) -> dict:
    """The scheduler itself fail-stops mid-schedule and recovers by journal.

    With ``journaled``, the scheduler is down from 40 s to 100 s. During
    the outage, machines keep executing: completions pile up unreported,
    and machine-crash victims are orphaned with nobody to requeue them.
    Recovery replays the journal, reconciles believed vs. actual cluster
    state, re-adopts surviving dispatches, credits every completion, and
    requeues the orphans — zero completed tasks lost.
    """
    streams = RandomStreams(seed)
    env = Environment()
    cluster = Cluster.homogeneous("recovery", n_machines, cores=4)
    work_rng = streams.get("task-sizes")
    tasks = [Task(work=float(work_rng.uniform(20.0, 120.0)))
             for _ in range(n_tasks)]
    journal = Journal(env, append_cost_s=0.005,
                      replay_cost_per_record_s=0.002,
                      name="sched-journal") if journaled else None
    sim = ClusterSimulator(env, cluster, FCFSPolicy(), journal=journal,
                           scheduler_restart_cost_s=1.0)
    injector = None
    if machine_mtbf_s is not None:
        injector = FailureInjector(
            env, cluster, streams.get("machine-failures"),
            mtbf_s=machine_mtbf_s, mttr_s=30.0,
            on_failure=sim.handle_machine_failure)
        injector.on_repair = sim.handle_machine_repair
    sim.submit_jobs([BagOfTasks(tasks)])
    if journaled:
        env.process(_scheduler_crashes(
            env, sim, [Episode("crash", 40.0, 100.0)]))
    env.run(until=sim._scheduler)
    metrics = sim.metrics()
    return {
        "slo_attainment": metrics.completed_fraction,
        "availability": (injector.empirical_availability()
                         if injector is not None else 1.0),
        "completed": metrics.n_tasks,
        "lost": len(sim.failed),
        "scheduler_crashes": sim.scheduler_crashes,
        "recovered_completions": sim.recovered_completions,
        "readopted": sim.readopted,
        "orphans_requeued": sim.orphans_requeued,
        "restarts": sim.restarts,
        "journal_appends": journal.appended if journal is not None else 0,
        "journal_replays": journal.replays if journal is not None else 0,
        "makespan_s": round(metrics.makespan_s, 3),
    }


# -- composed ecosystem: partition + gray failure + invariants -------------

#: The classic partition-world fault plan: the minority is cut off for
#: 100 s, one majority worker and the scheduler node go gray across the
#: cut, and the scheduler fail-stops for 8 s in the middle of it.
PARTITION_PLAN = (
    Episode("partition", 50.0, 150.0),
    Episode("gray", 70.0, 190.0),
    Episode("gray", 90.0, 130.0, {"role": "scheduler"}),
    Episode("crash", 95.0, 103.0),
)

#: The classic failover-world fault plan: the boot leader is cut off
#: while gray-failing, and the heal is one-way (``inbound`` still
#: severed) for 20 s, so only fencing can depose it.
FAILOVER_PLAN = (
    Episode("partition", 60.0, 150.0),
    Episode("partition", 150.0, 170.0, {"direction": "inbound"}),
    Episode("gray", 55.0, 170.0),
)


def _by_kind(episodes: Iterable[Episode]) -> dict:
    """Normalized ``episodes`` bucketed by kind (every kind present)."""
    plan: dict[str, list] = {kind: [] for kind in EPISODE_KINDS}
    for episode in normalize_episodes(episodes):
        plan[episode.kind].append(episode)
    return plan


def _arrivals(env: Environment, rng, n: int, rate_per_s: float,
              overloads, arrive):
    """Process body: ``n`` Poisson arrivals, each calling ``arrive()``;
    the rate is multiplied by the highest active overload factor."""
    for _ in range(n):
        factor = max([1.0] + [float(e.params["factor"]) for e in overloads
                              if e.start_s <= env.now < e.end_s])
        yield env.timeout(float(rng.exponential(
            1.0 / (rate_per_s * factor))))
        arrive()


def _since_cut(t: Optional[float], cuts) -> Optional[float]:
    """Seconds from the latest partition start at or before ``t`` to
    ``t``; ``None`` when ``t`` is ``None`` or no cut had started."""
    starts = [e.start_s for e in cuts if t is not None and e.start_s <= t]
    return round(t - max(starts), 3) if starts else None


def _fabric(env: Environment, streams: RandomStreams, registry, plan: dict,
            group: str, members: list, gray_nodes: dict, machines,
            **gray_knobs) -> tuple:
    """The network and its fault layers, built from ``plan``'s episodes.

    Partitions cut ``group`` off and gray episodes degrade
    ``gray_nodes[role]``. Each burst grays the first
    ``ceil(fraction * fleet)`` of ``machines`` — a fixed prefix, so a
    burst replays with no RNG stream of its own. Returns
    ``(network, gray_model)``.
    """
    gray_episodes: dict[str, list] = {n: [] for n in gray_nodes.values()}
    for e in plan["gray"]:
        gray_episodes[gray_nodes[e.params.get("role", "worker")]].append(
            (e.start_s, e.end_s))
    for e in plan["burst"]:
        k = min(len(machines), max(1, math.ceil(float(e.params["fraction"])
                                                * len(machines))))
        for machine in machines[:k]:
            gray_episodes.setdefault(machine.name, []).append(
                (e.start_s, e.end_s))
    network = Network(env, monitor=Monitor(env, registry=registry,
                                           namespace="network"))
    network.attach(NetworkPartitionModel(
        env, groups={group: members},
        episodes=[PartitionEpisode(e.start_s, e.end_s, group,
                                   e.params.get("direction", "both"))
                  for e in plan["partition"]],
        monitor=Monitor(env, registry=registry, namespace="partition")))
    gray = network.attach(GrayFailureModel(
        env, streams.get("gray-failures"), extra_latency_s=0.2,
        episodes=gray_episodes,
        monitor=Monitor(env, registry=registry, namespace="gray"),
        **gray_knobs))
    if plan["loss"]:
        network.attach(ScheduledMessageLoss(
            env, streams.get("message-loss"),
            [(e.start_s, e.end_s, e.params["rate"]) for e in plan["loss"]],
            monitor=Monitor(env, registry=registry, namespace="loss")))
    return network, gray


def _front_door(env: Environment, sim: ClusterSimulator,
                registry) -> FrontDoor:
    """The worlds' shared front door: token bucket plus brownout."""
    return FrontDoor(
        env, sim, TokenBucketAdmitter(env, rate_per_s=1.0, burst=4.0),
        BrownoutController(degraded_enter=1.2, degraded_exit=0.8,
                           critical_enter=2.5, critical_exit=1.6),
        Monitor(env, registry=registry, namespace="composed"), queue_ref=6.0)


def _drive_tasks(env: Environment, streams: RandomStreams, door: FrontDoor,
                 n_tasks: int, rate_per_s: float, overloads) -> None:
    """Offer ``n_tasks`` arrivals at ``door``, then close submissions."""
    sizes = streams.get("task-sizes")

    def task_driver(env):
        yield from _arrivals(
            env, streams.get("task-arrivals"), n_tasks, rate_per_s,
            overloads,
            lambda: door.offer(Task(work=float(sizes.uniform(20.0, 80.0)))))
        door.sim.close_submissions()

    env.process(task_driver(env))


def _books(env: Environment, door: FrontDoor, sim: ClusterSimulator,
           network: Network, engine: Optional[InvariantEngine]) -> dict:
    """The result keys both composed worlds report: front door,
    scheduler, network ledger, and invariant audit."""
    metrics = sim.metrics() if sim.finished else None
    return {
        # front door / scheduler
        "offered": door.offered,
        "admitted": door.admitted,
        "door_shed": door.shed,
        "submitted": sim.submitted,
        "completed": metrics.n_tasks if metrics is not None else 0,
        "lost": len(sim.failed),
        "misdispatches": sim.misdispatches,
        "lost_reports": sim.monitor.total("lost_reports"),
        "scheduler_crashes": sim.scheduler_crashes,
        "recovered_completions": sim.recovered_completions,
        "readopted": sim.readopted,
        "orphans_requeued": sim.orphans_requeued,
        "all_done": sim.all_done,
        "sim_time_s": round(env.now, 3),
        "makespan_s": (round(metrics.makespan_s, 3)
                       if metrics is not None else None),
        # network ledger
        "messages_sent": network.sent,
        "messages_delivered": network.delivered,
        "messages_blocked": network.blocked,
        "messages_dropped": network.dropped,
        "messages_in_flight": network.in_flight,
        # invariants
        "invariant_checks": engine.checks if engine is not None else 0,
        "invariant_violations": (engine.violations
                                 if engine is not None else 0),
    }


class FrontDoor:
    """Admission-controlled entry point feeding a scheduler incrementally.

    Every offered task meets the brownout controller first (pressure is
    the scheduler's ready-queue depth over ``queue_ref``): CRITICAL mode
    sheds outright, DEGRADED mode doubles the token cost, NORMAL admits
    at bucket rate. The ``offered == admitted + shed`` books are what the
    front-door conservation law audits.
    """

    def __init__(self, env: Environment, sim: ClusterSimulator,
                 admitter: TokenBucketAdmitter,
                 brownout: BrownoutController, monitor: Monitor,
                 queue_ref: float = 10.0):
        if queue_ref <= 0:
            raise ValueError("queue_ref must be positive")
        self.env = env
        self.sim = sim
        self.admitter = admitter
        self.brownout = brownout
        self.monitor = monitor
        self.queue_ref = queue_ref
        self.offered = 0
        self.admitted = 0
        self.shed = 0

    def pressure(self) -> float:
        """Scheduler backlog as a brownout pressure signal."""
        return len(self.sim.ready) / self.queue_ref

    def offer(self, task: Task) -> bool:
        """Admit or shed one task; True means it reached the scheduler."""
        self.offered += 1
        self.monitor.count("offered")
        self.monitor.record("pressure", self.pressure())
        mode = self.brownout.observe(self.pressure(), self.env.now)
        cost = 2.0 if mode is ServiceMode.DEGRADED else 1.0
        if mode is ServiceMode.CRITICAL or not self.admitter.admit(cost):
            self.shed += 1
            self.monitor.count("shed")
            return False
        self.admitted += 1
        self.monitor.count("admitted")
        task.submit_time = self.env.now
        self.sim.submit_task(task)
        return True


def run_partition_scenario(seed: int = 0,
                           n_tasks: int = 80,
                           task_rate_per_s: float = 0.8,
                           n_invocations: int = 120,
                           invoke_rate_per_s: float = 1.2,
                           gray_drop_rate: float = 0.15,
                           invariants: bool = True,
                           invariant_halt: bool = True,
                           episodes: Iterable[Episode] = PARTITION_PLAN,
                           sim_budget_s: Optional[float] = None,
                           report_retry: bool = True,
                           tracer=None, registry=None) -> dict:
    """The composed-ecosystem chaos study: every layer at once.

    A serverless platform and a batch scheduler share one seeded world. A
    network partition isolates a minority of the workers, one majority
    worker and the scheduler node go *gray* (heartbeat-alive but slow,
    lossy, and laggy), the scheduler itself fail-stops briefly and
    recovers by journal, a reactive autoscaler adds workers as the
    backlog grows, admission control and brownout shed at the front door,
    and a checkpointed side job rides out independent crashes — while an
    :class:`~repro.invariants.InvariantEngine` audits every layer's
    conservation law once per simulated second. The scenario's claim is
    not that the run goes well; it is that every unit of work is
    accounted for at every instant, no matter how badly it goes.

    Phi-accrual heartbeats route through the same network as dispatches,
    so partitioned workers are suspected (reason ``"silence"``) while
    gray workers — whose heartbeats are protected, per the definition of
    a gray failure — are never declared dead.

    ``episodes`` is the fault plan (default :data:`PARTITION_PLAN`):
    partitions cut off the three-worker ``"minority"`` group, gray
    episodes degrade the last majority worker or (``role="scheduler"``)
    the scheduler node, and crashes fail-stop the scheduler.
    ``sim_budget_s`` bounds the run in sim-time so no random plan can
    wedge it. ``report_retry=False`` plants the known
    lost-completion-report liveness bug for oracle validation.
    """
    plan = _by_kind(episodes)
    streams = RandomStreams(seed)
    env = Environment()
    if tracer is not None and tracer.env is None:
        tracer.bind(env)
    cluster = Cluster.homogeneous("composed", 8, cores=4)
    minority_names = [m.name for m in cluster.machines[-3:]]
    gray_worker = cluster.machines[-4].name

    network, gray = _fabric(
        env, streams, registry, plan, "minority", minority_names,
        {"worker": gray_worker, "scheduler": "scheduler"}, cluster.machines,
        slowdown=2.5, drop_rate=gray_drop_rate)

    detector = PhiAccrualDetector(
        env, threshold=8.0, poll_interval_s=0.5,
        monitor=Monitor(env, registry=registry, namespace="detection"))

    journal = Journal(env, append_cost_s=0.002,
                      replay_cost_per_record_s=0.001, name="composed-journal")
    sim = ClusterSimulator(env, cluster, FCFSPolicy(), health=detector,
                           journal=journal, scheduler_restart_cost_s=1.0,
                           network=network, node_name="scheduler",
                           service_time_factor=lambda m:
                               gray.service_factor(m.name),
                           report_retry=report_retry,
                           tracer=tracer, registry=registry)

    def add_heartbeat(machine: Machine) -> None:
        HeartbeatEmitter(env, detector, machine.name, 1.0,
                         rng=streams.get(f"hb-{machine.name}"),
                         is_up=lambda m=machine: m.is_up,
                         network=network, src=machine.name, dst="scheduler")

    for machine in cluster.machines:
        add_heartbeat(machine)

    door = _front_door(env, sim, registry)

    platform = FaaSPlatform(
        env,
        PlatformConfig(cold_start_s=0.25, keep_alive_s=600.0,
                       concurrency_limit=6, prewarmed=4, queue_capacity=32),
        fault_model=TransientErrorModel(streams.get("serverless-faults"),
                                        0.1),
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.1,
                                 multiplier=2.0, max_delay_s=2.0, jitter=0.1),
        retry_rng=streams.get("retry-jitter"),
        admitter=TokenBucketAdmitter(env, rate_per_s=4.0, burst=8.0),
        brownout=BrownoutController(degraded_enter=1.05, degraded_exit=0.95,
                                    critical_enter=1.5, critical_exit=1.1),
        tracer=tracer, registry=registry)
    platform.deploy(FunctionSpec("f", runtime_s=0.4, memory_gb=0.5))

    store = CheckpointStore(env, tier="local", keep_last=3)
    job = CheckpointedJob(
        env, work_s=240.0,
        policy=DalyOptimalCheckpoint(store.write_time_s(100.0),
                                     mtbf_s=150.0),
        store=store, checkpoint_size_mb=100.0, restart_cost_s=2.0,
        name="composed-job",
        monitor=Monitor(env, registry=registry, namespace="recovery"),
        tracer=tracer)
    crash = CrashRestart(env, [job], streams.get("job-crashes"),
                         mtbf_s=150.0, mttr_s=10.0,
                         name="composed-job-crash")

    engine = None
    if invariants:
        engine = InvariantEngine(
            env,
            standard_laws(network=network, scheduler=sim, platform=platform,
                          front_door=door, jobs=[job]),
            check_interval_s=1.0,
            halt=invariant_halt, seed=seed,
            monitor=Monitor(env, registry=registry, namespace="invariants"))

    scaled: list[Machine] = []

    def autoscaler(env):
        while not sim.all_done:
            yield env.timeout(5.0)
            if len(sim.ready) >= 12 and len(scaled) < 2:
                machine = Machine(f"composed-x{len(scaled):04d}", cores=4,
                                  memory_gb=32.0)
                cluster.add_machine(machine)
                network.add_node(machine.name)
                add_heartbeat(machine)
                scaled.append(machine)
                door.monitor.count("scaled_up")
                sim.handle_machine_repair(machine)

    _drive_tasks(env, streams, door, n_tasks, task_rate_per_s,
                 plan["overload"])
    env.process(_arrivals(env, streams.get("invoke-arrivals"),
                          n_invocations, invoke_rate_per_s, plan["overload"],
                          lambda: platform.invoke("f")))
    env.process(_scheduler_crashes(env, sim, plan["crash"]))
    env.process(autoscaler(env))

    if sim_budget_s is None:
        env.run(until=sim._scheduler)
        if job.finished_at is None:
            env.run(until=job.done)
        # Drain in-flight serverless retries, network deliveries, and a
        # last few invariant audit rounds past the final interesting event.
        env.run(until=env.now + 30.0)
    else:
        # Campaign mode: a hard sim-time ceiling, so no random schedule
        # can wedge the run waiting for a scheduler that never finishes.
        env.run(until=sim_budget_s)
    if engine is not None:
        engine.check_now()
    door.brownout.finish(env.now)
    platform.brownout.finish(env.now)

    job_stats = job.stats() if job.finished_at is not None else None
    first_onset: dict = {}
    for key, onset, _ in detector.suspicion_log:
        first_onset.setdefault(key, onset)
    return {
        **_books(env, door, sim, network, engine),
        "restarts": sim.restarts,
        "scaled_up": len(scaled),
        # detection
        "suspicions": detector.suspicions,
        "suspicions_by_reason": dict(detector.suspicions_by_reason),
        "false_suspicions": detector.false_suspicions,
        "suspected_minority": [name for name in minority_names
                               if name in first_onset],
        "minority_detection_latency_s": {
            name: _since_cut(first_onset.get(name), plan["partition"])
            for name in minority_names},
        "gray_worker": gray_worker,
        "gray_worker_suspected": gray_worker in first_onset,
        # serverless
        "invocations": len(platform.invocations),
        "invocations_completed": len(platform.completed("f")),
        "slo_attainment": platform.slo_attainment(1.5, "f"),
        # recovery side job
        "job_makespan_s": (round(job_stats.makespan_s, 3)
                           if job_stats is not None else None),
        "job_crashes": (job_stats.crashes
                        if job_stats is not None else job.crashes),
        "job_finished": job.finished_at is not None,
        "job_availability": round(crash.empirical_availability(), 6),
    }


# -- replicated control plane: fenced failover -----------------------------

def run_failover_scenario(seed: int = 0,
                          n_tasks: int = 36,
                          invariant_halt: bool = True,
                          episodes: Iterable[Episode] = FAILOVER_PLAN,
                          sim_budget_s: Optional[float] = None,
                          fence_on_failover: bool = True,
                          report_retry: bool = True,
                          tracer=None, registry=None) -> dict:
    """The failover study: a partitioned, gray-failing leader is replaced.

    Three control nodes (``cp-0`` leads at boot) run lease election and
    journal shipping over the same network the dispatches use. In the
    default :data:`FAILOVER_PLAN` the leader is cut off at 60 s *while
    gray-failing* (its data-plane traffic was already lossy and laggy;
    its lease renewals were protected — slow is not down). The standbys'
    phi detectors read the renewal silence, one wins the next term within
    the lease TTL, fences every machine, and takes the brain over warm:
    its shipped journal prefix is the believed-state map, so promotion
    pays the takeover cost plus reconciliation — no replay.

    The heal is deliberately one-way (an ``inbound`` episode from 150 s
    to 170 s): the deposed leader's *outbound* writes reach the majority
    again while it still cannot hear the new term. Its term-stamped
    dispatches bounce off the fence — counted, one-for-one, by the
    ``fenced_writes_rejected`` law — and the rejections teach it to step
    down. Split-brain is an observable non-event: zero tasks lost, zero
    duplicated, exactly one leader per term, audited every simulated
    second.

    ``episodes`` reads as in :func:`run_partition_scenario`, but
    partitions cut off ``cp-0``, every gray episode degrades it, and
    ``crash`` episodes are rejected: this world's scheduler crashes are
    failed over, not forced. ``fence_on_failover=False`` plants the known
    split-brain safety bug (promotion never fences nor advances the
    epoch), ``report_retry=False`` the lost-report liveness bug — both
    are what a campaign's oracles exist to catch.
    """
    plan = _by_kind(episodes)
    if plan["crash"]:
        raise ValueError("the failover world takes no crash episodes: its "
                         "scheduler crashes are failed over, not forced")
    streams = RandomStreams(seed)
    env = Environment()
    if tracer is not None and tracer.env is None:
        tracer.bind(env)
    cluster = Cluster.homogeneous("failover", 6, cores=4)

    network, _ = _fabric(
        env, streams, registry, plan, "old-leader", ["cp-0"],
        {"worker": "cp-0", "scheduler": "cp-0"}, cluster.machines,
        slowdown=2.0, drop_rate=0.15,
        protected_kinds=("heartbeat", "lease", "lease_ack"))

    journal = Journal(env, append_cost_s=0.002,
                      replay_cost_per_record_s=0.01,
                      name="failover-journal")
    sim = ClusterSimulator(env, cluster, FCFSPolicy(), journal=journal,
                           scheduler_restart_cost_s=5.0,
                           network=network, node_name="cp-0",
                           report_retry=report_retry,
                           tracer=tracer, registry=registry)

    replication_monitor = Monitor(env, registry=registry,
                                  namespace="replication")
    lease_detector = PhiAccrualDetector(
        env, threshold=4.0, poll_interval_s=0.25,
        monitor=replication_monitor, name="lease")
    control = ReplicatedControlPlane(
        env, sim, network, ("cp-0", "cp-1", "cp-2"), streams,
        lease_ttl_s=4.0, renew_interval_s=1.0, takeover_cost_s=0.5,
        detector=lease_detector, monitor=replication_monitor,
        tracer=tracer,
        # The pathological leader: gray-failed, it never audits its own
        # ack window — exactly the brain fencing exists to stop.
        self_demote={"cp-0": False},
        fence_on_failover=fence_on_failover)

    door = _front_door(env, sim, registry)

    engine = InvariantEngine(
        env,
        standard_laws(network=network, scheduler=sim, front_door=door,
                      control_plane=control),
        check_interval_s=1.0,
        halt=invariant_halt, seed=seed,
        monitor=Monitor(env, registry=registry, namespace="invariants"))

    _drive_tasks(env, streams, door, n_tasks, 0.6, plan["overload"])

    if sim_budget_s is None:
        env.run(until=sim._scheduler)
        # The books usually close before the heal; play the epilogue out
        # so the deposed leader is fenced, deposed, and re-adopted as a
        # standby.
        last_heal_s = max((e.end_s for e in plan["partition"]), default=0.0)
        env.run(until=max(env.now, last_heal_s + 10.0))
        env.run(until=env.now + 10.0)
    else:
        # Campaign mode: a hard sim-time ceiling — random schedules must
        # never wedge the run.
        env.run(until=sim_budget_s)
    engine.check_now()
    door.brownout.finish(env.now)

    first_onset = next((onset for _, onset, _ in lease_detector.suspicion_log
                        if _since_cut(onset, plan["partition"]) is not None),
                       None)
    first_promotion = (min(control.promoted_at.values())
                       if control.promoted_at else None)
    return {
        **_books(env, door, sim, network, engine),
        # election
        "failovers": control.failovers,
        "promotions": control.election.promotions,
        "terms_with_leader": len(control.election.leaders_by_term),
        "leader_timeline": sorted(
            [term, node]
            for term, node in control.election.leaders_by_term.items()),
        "final_leader": sim.node_name,
        "final_term": control.gate.term,
        "elections": control.election.elections,
        "votes_granted": control.election.votes_granted,
        "votes_denied": control.election.votes_denied,
        "stand_downs": control.election.stand_downs,
        "demotions": control.election.demotions,
        "leader_detect_latency_s": _since_cut(first_onset,
                                              plan["partition"]),
        "failover_mttr_s": _since_cut(first_promotion, plan["partition"]),
        "lease_suspicions": lease_detector.suspicions,
        "lease_false_suspicions": lease_detector.false_suspicions,
        # journal shipping
        "journal_appends": journal.appended,
        "journal_records_at_failover": control.journal_records_at_failover,
        "unshipped_at_promotion": control.unshipped_at_promotion,
        "records_shipped": control.replicator.shipped_records,
        "ship_resends": control.replicator.resends,
        "ship_acks": control.replicator.acks_received,
        "ship_duplicates": control.replicator.duplicates,
        # fencing
        "stale_dispatches": control.stale_dispatches,
        "split_brain_writes": control.split_brain_writes,
        "fenced_writes_rejected": control.gate.rejected,
        "fenced_reports": control.gate.fenced_reports,
        "fence_raises": control.gate.fence_raises,
        "old_leader_deposed_at_s": (
            round(control.deposed_at["cp-0"], 3)
            if "cp-0" in control.deposed_at else None),
    }


# -- the matrix ------------------------------------------------------------

@dataclass
class ChaosReport:
    """All cells of one chaos run, with a renderable summary table."""

    seed: int
    outcomes: list[ChaosOutcome] = field(default_factory=list)

    def rows(self) -> list[list]:
        return [[o.domain, o.fault, o.policy,
                 f"{o.slo_attainment:.3f}", f"{o.availability:.3f}"]
                for o in self.outcomes]

    def format(self) -> str:
        headers = ["domain", "fault", "policy", "SLO attainment",
                   "availability"]
        rows = [headers] + self.rows()
        widths = [max(len(str(r[i])) for r in rows)
                  for i in range(len(headers))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(str(c).ljust(w)
                                   for c, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def cell(self, domain: str, fault: str, policy: str) -> ChaosOutcome:
        for o in self.outcomes:
            if (o.domain, o.fault, o.policy) == (domain, fault, policy):
                return o
        raise KeyError((domain, fault, policy))


def run_chaos_matrix(seed: int = 0,
                     serverless_error_rates: tuple = (0.0, 0.15, 0.3),
                     scheduling_mtbfs: tuple = (None, 500.0)) -> ChaosReport:
    """The full matrix: every fault level × policy off/on, both domains."""
    report = ChaosReport(seed=seed)
    for rate in serverless_error_rates:
        policies = [False] if rate == 0.0 else [False, True]
        for retry in policies:
            result = run_serverless_scenario(seed=seed, error_rate=rate,
                                             retry=retry)
            report.outcomes.append(ChaosOutcome(
                domain="serverless",
                fault="none" if rate == 0.0 else f"transient p={rate}",
                policy="retry+backoff" if retry else "none",
                slo_attainment=result["slo_attainment"],
                availability=result["availability"],
                details=result))
    for mtbf in scheduling_mtbfs:
        policies = [True] if mtbf is None else [False, True]
        for requeue in policies:
            result = run_scheduling_scenario(seed=seed, mtbf_s=mtbf,
                                             requeue=requeue)
            report.outcomes.append(ChaosOutcome(
                domain="scheduling",
                fault="none" if mtbf is None else f"crash mtbf={mtbf:g}s",
                policy="requeue" if requeue else "none",
                slo_attainment=result["slo_attainment"],
                availability=result["availability"],
                details=result))
    return report
