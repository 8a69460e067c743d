"""Elasticity in graph analytics ([111], the Table 8 elasticity row).

The [111] benchmark asks how graph-processing platforms behave when
resources change *during* execution. Graph jobs have phases of very
different useful parallelism (loading is nearly serial; the superstep
core scales; the tail of a traversal does not), so:

- a **static-small** deployment is cheap but slow;
- a **static-large** deployment is fast but *wastes* capacity during the
  low-parallelism phases (provisioned ≫ usable);
- an **elastic** deployment tracks each phase's useful parallelism,
  paying a reconfiguration pause per capacity change.

The model: a job is a sequence of :class:`WorkPhase` (work volume, max
useful scale); capacity is a timeline of :class:`CapacityPhase`;
progress rate is ``base_rate × min(capacity, useful)``; the *footprint*
charges provisioned capacity × time, used or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class WorkPhase:
    """One phase of the job: ``work`` units, useful up to ``max_scale``."""

    name: str
    work: float
    max_scale: float

    def __post_init__(self):
        if self.work <= 0 or self.max_scale <= 0:
            raise ValueError(f"phase {self.name}: work and max_scale must "
                             "be positive")


@dataclass(frozen=True)
class CapacityPhase:
    """Provisioned capacity ``scale`` from ``start`` onward."""

    start: float
    scale: float


#: A stylized graph-analytics job: serial load, scalable supersteps,
#: poorly-scaling convergence tail.
DEFAULT_JOB: tuple[WorkPhase, ...] = (
    WorkPhase("load", work=600_000.0, max_scale=1.0),
    WorkPhase("supersteps", work=3_000_000.0, max_scale=8.0),
    WorkPhase("tail", work=400_000.0, max_scale=1.5),
)

#: Work units processed per second per unit of capacity scale.
BASE_RATE = 1000.0


@dataclass
class ElasticRun:
    """Outcome of one elastic (or static) execution."""

    label: str
    makespan_s: float
    #: Provisioned capacity × time — what you pay for.
    resource_seconds: float
    #: Capacity × time actually used by the job.
    used_resource_seconds: float
    reconfigurations: int
    reconfiguration_time_s: float

    @property
    def efficiency(self) -> float:
        if self.resource_seconds == 0:
            return 0.0
        return self.used_resource_seconds / self.resource_seconds


def run_elastic(job: Sequence[WorkPhase],
                capacity: Sequence[CapacityPhase],
                base_rate: float = BASE_RATE,
                reconfig_penalty_s: float = 20.0,
                label: str = "elastic") -> ElasticRun:
    """Process the job's phases through the capacity timeline; a run
    past 10**9 simulated seconds raises."""
    if not job:
        raise ValueError("job needs at least one phase")
    capacity = sorted(capacity, key=lambda p: p.start)
    if not capacity or capacity[0].start != 0.0:
        raise ValueError("capacity must start at t=0")
    if any(c.scale < 0 for c in capacity):
        raise ValueError("capacity scales must be >= 0")

    t = 0.0
    provisioned = 0.0
    used = 0.0
    reconfigs = 0
    reconfig_time = 0.0
    cap_idx = 0
    work_idx = 0
    remaining = job[0].work
    paused_until = 0.0
    while work_idx < len(job):
        if t >= 10**9:
            raise RuntimeError(f"{label}: did not finish in {10**9}s")
        scale = capacity[cap_idx].scale
        # Next capacity boundary (if any).
        next_change = (capacity[cap_idx + 1].start
                       if cap_idx + 1 < len(capacity) else float("inf"))
        if t >= next_change - 1e-12:
            cap_idx += 1
            reconfigs += 1
            reconfig_time += reconfig_penalty_s
            provisioned += capacity[cap_idx].scale * reconfig_penalty_s
            t += reconfig_penalty_s
            paused_until = t
            continue
        useful = min(scale, job[work_idx].max_scale)
        rate = base_rate * useful
        if rate <= 0:
            # Idle until the next capacity change.
            if next_change == float("inf"):
                raise RuntimeError(
                    f"{label}: zero capacity with work remaining")
            provisioned += scale * (next_change - t)
            t = next_change
            continue
        finish_in = remaining / rate
        segment = min(finish_in, next_change - t)
        provisioned += scale * segment
        used += useful * segment
        remaining -= rate * segment
        t += segment
        if remaining <= 1e-9:
            work_idx += 1
            if work_idx < len(job):
                remaining = job[work_idx].work
    return ElasticRun(label=label, makespan_s=t,
                      resource_seconds=provisioned,
                      used_resource_seconds=used,
                      reconfigurations=reconfigs,
                      reconfiguration_time_s=reconfig_time)


def elasticity_study(reconfig_penalty_s: float = 20.0
                     ) -> dict[str, ElasticRun]:
    """The [111] comparison on :data:`DEFAULT_JOB`: static-small (scale 1)
    vs static-large (scale 8) vs elastic.

    The elastic capacity timeline tracks each phase's useful parallelism
    (computed from the job's own structure, as a workflow-aware
    autoscaler would).
    """
    job = DEFAULT_JOB
    static_small = run_elastic(job, [CapacityPhase(0.0, 1.0)],
                               BASE_RATE, reconfig_penalty_s,
                               label="static-small")
    static_large = run_elastic(job, [CapacityPhase(0.0, 8.0)],
                               BASE_RATE, reconfig_penalty_s,
                               label="static-large")
    # Elastic: provision each phase's useful parallelism (capped by the
    # large scale), transitioning at the phase boundaries it would hit.
    phases = []
    t = 0.0
    for idx, wp in enumerate(job):
        scale = min(wp.max_scale, 8.0)
        phases.append(CapacityPhase(t, scale))
        t += wp.work / (BASE_RATE * scale) + (
            reconfig_penalty_s if idx + 1 < len(job) else 0.0)
    elastic = run_elastic(job, phases, BASE_RATE, reconfig_penalty_s,
                          label="elastic")
    return {run.label: run for run in (static_small, static_large,
                                       elastic)}
