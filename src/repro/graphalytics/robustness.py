"""Robustness for graph-analytics jobs: superstep recovery.

Graphalytics-style platform runs are long, and a crashed executor loses
the job's in-memory state entirely. *Superstep checkpointing* mitigates
that: iterative kernels (pagerank, cdlp, sssp) are BSP computations
whose state is consistent exactly at superstep barriers, so checkpoints
land on those boundaries and a crash resumes at the last checkpointed
superstep instead of iteration zero.

:func:`run_supersteps_with_recovery` replays an iterative kernel's
superstep profile under
:class:`~repro.faults.models.CrashRestart` with per-superstep
checkpointing, accounting lost supersteps, checkpoint overhead, and
recovery time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faults.models import CrashRestart
from repro.recovery import CheckpointedJob, CheckpointPolicy, CheckpointStore
from repro.sim import Environment


@dataclass
class SuperstepRecoveryResult:
    """Completion accounting of one checkpointed iterative kernel run."""

    algorithm: str
    n_supersteps: int
    superstep_s: float
    work_s: float
    makespan_s: float
    crashes: int
    #: Supersteps re-executed because a crash rolled them back.
    lost_supersteps: int
    lost_work_s: float
    checkpoint_time_s: float
    recovery_time_s: float
    downtime_s: float
    checkpoints_written: int
    restores: int
    corrupt_fallbacks: int


def run_supersteps_with_recovery(
        n_supersteps: int,
        superstep_s: float,
        *,
        mtbf_s: float,
        mttr_s: float,
        rng: np.random.Generator,
        policy: Optional[CheckpointPolicy] = None,
        store: Optional[CheckpointStore] = None,
        checkpoint_size_mb: float = 200.0,
        restart_cost_s: float = 1.0,
        algorithm: str = "pagerank",
        env: Optional[Environment] = None,
        tracer=None, registry=None) -> SuperstepRecoveryResult:
    """Run an iterative kernel under crashes with superstep checkpointing.

    The kernel is BSP: state is only consistent at superstep barriers, so
    the job quantizes checkpoint placement to ``superstep_s`` boundaries
    (``quantum_s``). Without a policy/store pair the kernel restarts from
    superstep zero on every crash — the baseline the lost-work accounting
    is judged against.
    """
    if n_supersteps < 1:
        raise ValueError("n_supersteps must be >= 1")
    if superstep_s <= 0:
        raise ValueError("superstep_s must be positive")
    env = env or Environment()
    span = None
    if tracer is not None:
        if tracer.env is None:
            tracer.bind(env)
        span = tracer.start_span("graphalytics.supersteps",
                                 algorithm=algorithm,
                                 n_supersteps=n_supersteps)
    monitor = None
    if registry is not None:
        from repro.sim import Monitor
        monitor = Monitor(env, registry=registry, namespace="graphalytics")
    job = CheckpointedJob(
        env, work_s=n_supersteps * superstep_s,
        policy=policy, store=store, quantum_s=superstep_s,
        checkpoint_size_mb=checkpoint_size_mb,
        restart_cost_s=restart_cost_s, name=algorithm,
        monitor=monitor, tracer=tracer, span_parent=span)
    CrashRestart(env, [job], rng, mtbf_s=mtbf_s, mttr_s=mttr_s,
                 name=f"{algorithm}-crash")
    env.run(until=job.done)
    stats = job.stats()
    if span is not None:
        tracer.end_span(span, crashes=stats.crashes,
                        lost_supersteps=int(round(stats.lost_work_s
                                                  / superstep_s)))
    return SuperstepRecoveryResult(
        algorithm=algorithm,
        n_supersteps=n_supersteps,
        superstep_s=superstep_s,
        work_s=stats.work_s,
        makespan_s=stats.makespan_s,
        crashes=stats.crashes,
        lost_supersteps=int(round(stats.lost_work_s / superstep_s)),
        lost_work_s=stats.lost_work_s,
        checkpoint_time_s=stats.checkpoint_time_s,
        recovery_time_s=stats.recovery_time_s,
        downtime_s=stats.downtime_s,
        checkpoints_written=stats.checkpoints_written,
        restores=stats.restores,
        corrupt_fallbacks=stats.corrupt_fallbacks,
    )
