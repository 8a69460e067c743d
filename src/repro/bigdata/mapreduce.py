"""A phase-level MapReduce execution engine with resource contention.

Jobs traverse MAP → SHUFFLE → REDUCE. Each phase demands one dominant
resource class (the paper's big data pipelines: map is CPU- and
disk-read-heavy, shuffle is network-heavy, reduce is CPU- and
disk-write-heavy). The cluster exposes finite capacity per resource
class; concurrent phases share each class proportionally, so a job's
progress rate depends on who else is running — the contention that gives
rise to vicissitude.

The simulator is time-stepped (the natural granularity for utilization
signals); task-level stragglers are folded into per-phase work drawn
from a lognormal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

#: Resource classes of the engine.
RESOURCE_CLASSES = ("cpu", "disk", "network")


class MRPhase(enum.Enum):
    PENDING = "pending"
    MAP = "map"
    SHUFFLE = "shuffle"
    REDUCE = "reduce"
    DONE = "done"

    def next_phase(self) -> "MRPhase":
        order = [MRPhase.PENDING, MRPhase.MAP, MRPhase.SHUFFLE,
                 MRPhase.REDUCE, MRPhase.DONE]
        return order[order.index(self) + 1]


@dataclass(frozen=True)
class PhaseDemand:
    """Per-resource demand rates of one phase (units/second requested)."""

    cpu: float = 0.0
    disk: float = 0.0
    network: float = 0.0

    def of(self, resource: str) -> float:
        return getattr(self, resource)

    @property
    def dominant(self) -> str:
        return max(RESOURCE_CLASSES, key=lambda r: (self.of(r), r))


#: Demand profiles per phase, per unit of parallelism (one task slot).
PHASE_PROFILES: dict[MRPhase, PhaseDemand] = {
    MRPhase.MAP: PhaseDemand(cpu=1.0, disk=0.8, network=0.05),
    MRPhase.SHUFFLE: PhaseDemand(cpu=0.1, disk=0.2, network=1.0),
    MRPhase.REDUCE: PhaseDemand(cpu=0.9, disk=0.7, network=0.05),
}


@dataclass
class MRJob:
    """One MapReduce job: per-phase work volumes (in work units)."""

    name: str
    map_work: float
    shuffle_work: float
    reduce_work: float
    submit_time: float = 0.0
    parallelism: int = 8
    phase: MRPhase = MRPhase.PENDING
    remaining: float = 0.0
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    phase_times: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for work in (self.map_work, self.shuffle_work, self.reduce_work):
            if work <= 0:
                raise ValueError(f"job {self.name}: phase work must be "
                                 "positive")

    def work_of(self, phase: MRPhase) -> float:
        return {MRPhase.MAP: self.map_work,
                MRPhase.SHUFFLE: self.shuffle_work,
                MRPhase.REDUCE: self.reduce_work}[phase]

    @property
    def done(self) -> bool:
        return self.phase is MRPhase.DONE

    @property
    def makespan(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


@dataclass
class MRCluster:
    """Resource capacities of one (logical) MapReduce cluster."""

    name: str
    cpu: float = 64.0
    disk: float = 48.0
    network: float = 32.0

    def capacity(self, resource: str) -> float:
        return getattr(self, resource)

    def scaled(self, factor: float) -> "MRCluster":
        return MRCluster(self.name, cpu=self.cpu * factor,
                         disk=self.disk * factor,
                         network=self.network * factor)


def generate_mr_jobs(rng: np.random.Generator, n_jobs: int,
                     mean_work: float = 2000.0,
                     straggler_sigma: float = 0.6,
                     arrival_rate: float = 1 / 120.0,
                     shuffle_ratio: float = 0.8) -> list[MRJob]:
    """Jobs with lognormal phase volumes (stragglers in the tail)."""
    mu = math.log(mean_work) - straggler_sigma**2 / 2
    jobs = []
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(1.0 / arrival_rate))
        map_work = float(rng.lognormal(mu, straggler_sigma))
        jobs.append(MRJob(
            name=f"job-{i:03d}",
            map_work=map_work,
            shuffle_work=max(map_work * shuffle_ratio
                             * float(rng.uniform(0.5, 1.5)), 1.0),
            reduce_work=max(map_work * 0.5
                            * float(rng.uniform(0.5, 1.5)), 1.0),
            submit_time=t,
            parallelism=int(rng.integers(4, 17)),
        ))
    return jobs


class MRSimulator:
    """Time-stepped proportional-share execution of MapReduce jobs."""

    def __init__(self, cluster: MRCluster, jobs: Sequence[MRJob],
                 step_s: float = 5.0, max_steps: int = 500_000):
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        self.cluster = cluster
        self.jobs = sorted(jobs, key=lambda j: j.submit_time)
        self.step_s = step_s
        self.max_steps = max_steps
        self.times: list[float] = []
        #: Utilization per resource class per step, in [0, 1].
        self.utilization: dict[str, list[float]] = {
            r: [] for r in RESOURCE_CLASSES}

    def _active(self, now: float) -> list[MRJob]:
        active = []
        for job in self.jobs:
            if job.done or job.submit_time > now:
                continue
            if job.phase is MRPhase.PENDING:
                job.phase = MRPhase.MAP
                job.remaining = job.work_of(MRPhase.MAP)
                job.start_time = now
            active.append(job)
        return active

    def step(self, now: float) -> None:
        active = self._active(now)
        # Aggregate demand per resource.
        demand = {r: 0.0 for r in RESOURCE_CLASSES}
        for job in active:
            profile = PHASE_PROFILES[job.phase]
            for r in RESOURCE_CLASSES:
                demand[r] += profile.of(r) * job.parallelism
        # Proportional share: each resource grants min(1, cap/demand).
        grant = {
            r: min(1.0, self.cluster.capacity(r) / demand[r])
            if demand[r] > 0 else 1.0
            for r in RESOURCE_CLASSES
        }
        for r in RESOURCE_CLASSES:
            cap = self.cluster.capacity(r)
            used = min(demand[r], cap)
            self.utilization[r].append(used / cap if cap > 0 else 0.0)
        self.times.append(now)
        # A job progresses at the rate of its most-constrained resource.
        for job in active:
            profile = PHASE_PROFILES[job.phase]
            rate_factor = min(
                grant[r] for r in RESOURCE_CLASSES if profile.of(r) > 0)
            progress = (profile.of(profile.dominant) * job.parallelism
                        * rate_factor * self.step_s)
            job.remaining -= progress
            if job.remaining <= 1e-9:
                job.phase_times[job.phase.value] = now + self.step_s
                job.phase = job.phase.next_phase()
                if job.phase is MRPhase.DONE:
                    job.finish_time = now + self.step_s
                else:
                    job.remaining = job.work_of(job.phase)

    def run(self) -> None:
        if not self.jobs:
            raise ValueError("no jobs to run")
        now = self.jobs[0].submit_time
        for _ in range(self.max_steps):
            if all(j.done for j in self.jobs):
                return
            self.step(now)
            now += self.step_s
        raise RuntimeError(
            f"simulation did not finish in {self.max_steps} steps")

    # -- derived signals -----------------------------------------------------
    def bottleneck_series(self, busy_threshold: float = 0.6
                          ) -> list[Optional[str]]:
        """Per step: the saturated resource with the highest utilization,
        or None when nothing is meaningfully busy."""
        series = []
        for idx in range(len(self.times)):
            best = max(RESOURCE_CLASSES,
                       key=lambda r: (self.utilization[r][idx], r))
            series.append(best if self.utilization[best][idx]
                          >= busy_threshold else None)
        return series

    def mean_slowdown(self, solo_makespans: dict[str, float]) -> float:
        """Mean makespan ratio vs uncontended (solo) runs."""
        ratios = [j.makespan / solo_makespans[j.name]
                  for j in self.jobs
                  if j.makespan is not None and j.name in solo_makespans]
        return float(np.mean(ratios)) if ratios else float("nan")


def solo_makespans(cluster: MRCluster, jobs: Sequence[MRJob],
                   step_s: float = 5.0) -> dict[str, float]:
    """Each job's makespan alone on the cluster (the slowdown baseline)."""
    result = {}
    for job in jobs:
        clone = MRJob(name=job.name, map_work=job.map_work,
                      shuffle_work=job.shuffle_work,
                      reduce_work=job.reduce_work, submit_time=0.0,
                      parallelism=job.parallelism)
        sim = MRSimulator(cluster, [clone], step_s=step_s)
        sim.run()
        result[job.name] = clone.makespan
    return result
