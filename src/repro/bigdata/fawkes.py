"""Fawkes: balanced resource allocation across dynamic MapReduce clusters.

The paper's [94]: several logical MapReduce clusters share one physical
pool; a balancer periodically re-weights the clusters by their *demand*
(queued + running work) and migrates capacity accordingly, so bursty
tenants borrow from idle ones. The experiment contrasts a static equal
split against the dynamic balancer on imbalanced workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.bigdata.mapreduce import (
    MRCluster,
    MRJob,
    MRPhase,
    MRSimulator,
    generate_mr_jobs,
    solo_makespans,
)

#: The experiment's rebalancing interval, simulation step and horizon.
REBALANCE_INTERVAL_S = 60.0
STEP_S = 5.0
HORIZON_S = 40_000.0


class StaticAllocator:
    """Equal fixed split of the pool across tenants."""

    name = "static"

    def weights(self, demands: dict[str, float]) -> dict[str, float]:
        n = len(demands)
        return {tenant: 1.0 / n for tenant in demands}


class FawkesAllocator:
    """Demand-proportional weights with a minimum share per tenant."""

    name = "fawkes"

    def __init__(self, min_share: float = 0.1):
        if not 0 <= min_share < 1:
            raise ValueError("min_share must be in [0, 1)")
        self.min_share = min_share

    def weights(self, demands: dict[str, float]) -> dict[str, float]:
        n = len(demands)
        total = sum(demands.values())
        if total <= 0:
            return {tenant: 1.0 / n for tenant in demands}
        reserved = self.min_share
        available = 1.0 - reserved * n
        if available < 0:
            return {tenant: 1.0 / n for tenant in demands}
        return {
            tenant: reserved + available * demand / total
            for tenant, demand in demands.items()
        }


@dataclass
class TenantState:
    name: str
    jobs: list[MRJob]
    simulator: Optional[MRSimulator] = None


def _remaining_demand(jobs: Sequence[MRJob], now: float) -> float:
    demand = 0.0
    for job in jobs:
        if job.done or job.submit_time > now:
            continue
        demand += job.remaining if job.phase is not MRPhase.PENDING else (
            job.map_work + job.shuffle_work + job.reduce_work)
    return demand


@dataclass
class FawkesResult:
    allocator: str
    per_tenant_slowdown: dict[str, float]

    @property
    def mean_slowdown(self) -> float:
        return float(np.mean(list(self.per_tenant_slowdown.values())))

    @property
    def max_slowdown(self) -> float:
        return float(max(self.per_tenant_slowdown.values()))


def run_fawkes_experiment(allocator, seed: int = 0) -> FawkesResult:
    """Two imbalanced tenants on one pool, with periodic rebalancing.

    Tenant A is bursty-heavy, tenant B sparse-light; a static equal split
    starves A while B idles. The simulation interleaves per-tenant
    :class:`MRSimulator` steps, re-scaling each tenant's cluster to its
    current weight at every rebalancing interval.
    """
    rng = np.random.default_rng(seed)
    pool = MRCluster("pool", cpu=64.0, disk=48.0, network=32.0)
    tenants = {
        "heavy": TenantState("heavy", generate_mr_jobs(
            rng, n_jobs=10, mean_work=3000.0, arrival_rate=1 / 50.0)),
        "light": TenantState("light", generate_mr_jobs(
            rng, n_jobs=3, mean_work=800.0, arrival_rate=1 / 2000.0)),
    }
    baselines = {
        name: solo_makespans(pool, state.jobs, step_s=STEP_S)
        for name, state in tenants.items()
    }
    # Fresh simulators share the clock; cluster objects are re-scaled at
    # each rebalance.
    weights = {name: 1.0 / len(tenants) for name in tenants}
    for name, state in tenants.items():
        state.simulator = MRSimulator(pool.scaled(weights[name]),
                                      state.jobs, step_s=STEP_S)
    now = 0.0
    next_rebalance = 0.0
    while now < HORIZON_S:
        if all(j.done for state in tenants.values() for j in state.jobs):
            break
        if now >= next_rebalance:
            demands = {
                name: _remaining_demand(state.jobs, now)
                for name, state in tenants.items()
            }
            weights = allocator.weights(demands)
            for name, state in tenants.items():
                state.simulator.cluster = pool.scaled(weights[name])
            next_rebalance = now + REBALANCE_INTERVAL_S
        for state in tenants.values():
            state.simulator.step(now)
        now += STEP_S
    else:
        raise RuntimeError("fawkes experiment did not finish in horizon")

    per_tenant = {}
    for name, state in tenants.items():
        ratios = [job.makespan / baselines[name][job.name]
                  for job in state.jobs if job.makespan is not None]
        per_tenant[name] = float(np.mean(ratios)) if ratios else float("inf")
    return FawkesResult(allocator=allocator.name,
                        per_tenant_slowdown=per_tenant)
