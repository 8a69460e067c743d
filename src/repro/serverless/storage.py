"""Ephemeral storage for serverless analytics (the paper's [104], [96]).

Serverless analytics jobs exchange intermediate data through a shared
ephemeral store that lives only for the job. [104] analyzed the
requirements (capacity *and* throughput, for seconds at a time); Pocket
[96] built the system: per-job *right-sizing* across storage tiers —
DRAM for throughput-hungry small data, NVMe/flash for the bulk, disk for
the cheap cold cases — at a fraction of a DRAM-only deployment's cost.

This module models the tiers, the per-job allocation policies, and the
cost/performance comparison that is the papers' headline result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class StorageTier:
    """One storage media tier of the ephemeral store."""

    name: str
    #: Throughput per provisioned GB (MB/s per GB) — DRAM's is huge.
    throughput_per_gb: float
    #: Price per GB-hour of provisioned capacity.
    cost_per_gb_hour: float
    #: Minimum allocation granularity, GB.
    min_alloc_gb: float = 1.0


#: Stylized tiers (relative numbers follow the Pocket paper's hierarchy).
TIERS: dict[str, StorageTier] = {
    "dram": StorageTier("dram", throughput_per_gb=500.0,
                        cost_per_gb_hour=0.05),
    "nvme": StorageTier("nvme", throughput_per_gb=50.0,
                        cost_per_gb_hour=0.004),
    "hdd": StorageTier("hdd", throughput_per_gb=2.0,
                       cost_per_gb_hour=0.0005),
}


@dataclass(frozen=True)
class AnalyticsJob:
    """A serverless analytics job's ephemeral-storage requirements.

    ``data_gb`` of intermediate data must be written and read back within
    ``lifetime_s``; the job's fan-out demands ``throughput_mbps``
    aggregate bandwidth to avoid stalling its lambdas.
    """

    name: str
    data_gb: float
    throughput_mbps: float
    lifetime_s: float

    def __post_init__(self):
        if min(self.data_gb, self.throughput_mbps, self.lifetime_s) <= 0:
            raise ValueError(f"job {self.name}: all requirements must be "
                             "positive")


@dataclass
class Allocation:
    """Capacity provisioned per tier for one job."""

    job: AnalyticsJob
    per_tier_gb: dict[str, float] = field(default_factory=dict)

    @property
    def capacity_gb(self) -> float:
        return sum(self.per_tier_gb.values())

    @property
    def throughput_mbps(self) -> float:
        return sum(TIERS[tier].throughput_per_gb * gb
                   for tier, gb in self.per_tier_gb.items())

    @property
    def cost(self) -> float:
        hours = self.job.lifetime_s / 3600.0
        return sum(TIERS[tier].cost_per_gb_hour * gb * hours
                   for tier, gb in self.per_tier_gb.items())

    @property
    def meets_requirements(self) -> bool:
        return (self.capacity_gb >= self.job.data_gb - 1e-9
                and self.throughput_mbps >= self.job.throughput_mbps
                - 1e-9)

    @property
    def stall_factor(self) -> float:
        """How much slower the job runs than requested (1.0 = no stall)."""
        if self.throughput_mbps <= 0:
            return float("inf")
        return max(1.0, self.job.throughput_mbps / self.throughput_mbps)


def allocate_single_tier(job: AnalyticsJob, tier_name: str) -> Allocation:
    """The baseline policies: everything on one tier, sized for both the
    capacity and the throughput requirement."""
    tier = TIERS[tier_name]
    needed_for_throughput = job.throughput_mbps / tier.throughput_per_gb
    gb = max(job.data_gb, needed_for_throughput, tier.min_alloc_gb)
    return Allocation(job=job, per_tier_gb={tier_name: gb})


def allocate_pocket(job: AnalyticsJob) -> Allocation:
    """Pocket's right-sizing: fill capacity on the cheapest tier, then
    top up *throughput* with the smallest possible slice of faster tiers.

    Greedy over tiers from cheap to fast (hdd, nvme, dram): put all
    capacity on the
    cheapest tier whose throughput contribution helps; if aggregate
    throughput still falls short, shift capacity to the next-faster tier
    just enough to close the gap.
    """
    # Start with everything on the cheapest tier.
    tiers = [TIERS[name] for name in ("hdd", "nvme", "dram")]
    per_tier = {tiers[0].name: max(job.data_gb, tiers[0].min_alloc_gb)}

    def throughput():
        return sum(TIERS[t].throughput_per_gb * gb
                   for t, gb in per_tier.items())

    for faster in tiers[1:]:
        gap = job.throughput_mbps - throughput()
        if gap <= 1e-9:
            break
        # Moving x GB from the current slowest-used tier to `faster`
        # gains (faster.tp - slow.tp) per GB; adding fresh capacity to
        # `faster` gains faster.tp per GB. Prefer moving (keeps total
        # capacity at data_gb).
        donor_name = max(per_tier, key=lambda t: per_tier[t])
        donor = TIERS[donor_name]
        gain = faster.throughput_per_gb - donor.throughput_per_gb
        if gain <= 0:
            continue
        move = min(per_tier[donor_name], gap / gain)
        move = max(move, 0.0)
        if move < faster.min_alloc_gb and gap > 0:
            move = min(faster.min_alloc_gb, per_tier[donor_name])
        per_tier[donor_name] -= move
        if per_tier[donor_name] <= 1e-9:
            del per_tier[donor_name]
        per_tier[faster.name] = per_tier.get(faster.name, 0.0) + move
    allocation = Allocation(job=job, per_tier_gb=per_tier)
    if not allocation.meets_requirements:
        # Last resort: size the fastest tier for the full requirement.
        return allocate_single_tier(job, tiers[-1].name)
    return allocation


def storage_study(jobs: Sequence[AnalyticsJob]
                  ) -> dict[str, dict[str, float]]:
    """The [96] comparison: DRAM-only vs NVMe-only vs Pocket.

    Returns per-policy total cost, mean stall factor, and the fraction
    of jobs whose requirements are met.
    """
    if not jobs:
        raise ValueError("no jobs")
    policies = {
        "dram-only": lambda job: allocate_single_tier(job, "dram"),
        "nvme-only": lambda job: allocate_single_tier(job, "nvme"),
        "pocket": allocate_pocket,
    }
    result = {}
    for name, policy in policies.items():
        allocations = [policy(job) for job in jobs]
        result[name] = {
            "total_cost": sum(a.cost for a in allocations),
            "mean_stall": sum(a.stall_factor for a in allocations)
            / len(allocations),
            "met_fraction": sum(a.meets_requirements
                                for a in allocations) / len(allocations),
        }
    return result
