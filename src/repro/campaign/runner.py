"""The parallel shard runner: N workers, one deterministic verdict set.

The determinism contract is the whole point: the campaign's output is a
pure function of ``(root_seed, n_schedules, envelopes, oracle config)``
and **not** of the worker count. That is earned by construction:

- every schedule (and its world seed) is generated *up front* in the
  parent from named :class:`~repro.sim.RandomStreams`, so schedule ``i``
  is fixed before any shard exists;
- shards only execute — shard ``w`` takes schedules ``i`` with
  ``i % workers == w`` and never draws randomness of its own;
- the merge step sorts verdicts by schedule index and folds metrics
  with commutative addition, so arrival order cannot matter.

Run the same campaign with 1 worker and with 8: the verdict list and
merged metrics are equal, element for element. The shard-invariance
test in ``tests/campaign/`` holds the runner to exactly that.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign.oracles import (
    OracleStack,
    RunVerdict,
    merge_metrics,
)
from repro.campaign.schedule import (
    FaultSchedule,
    ScheduleEnvelope,
    derive_seed,
    generate_schedule,
)
from repro.sim import RandomStreams

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "generate_schedules",
    "run_campaign",
]


@dataclass
class CampaignConfig:
    """Everything that determines a campaign's outcome (plus workers,
    which by contract does not)."""

    root_seed: int = 0
    n_schedules: int = 200
    workers: int = 1
    worlds: tuple = ("partition", "failover")
    envelopes: Optional[tuple] = None
    double_run: bool = True
    extra_world_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n_schedules", "workers"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def resolved_envelopes(self) -> tuple:
        if self.envelopes is not None:
            return tuple(self.envelopes)
        return tuple(ScheduleEnvelope.for_world(world)
                     for world in self.worlds)


def generate_schedules(config: CampaignConfig) -> list:
    """All ``n_schedules`` schedules, in index order, shard-independent.

    Schedule ``i`` samples from envelope ``i % len(envelopes)`` (the
    campaign round-robins its worlds) with world seed
    ``derive_seed(root_seed, i)``.
    """
    streams = RandomStreams(config.root_seed)
    envelopes = config.resolved_envelopes()
    if not envelopes:
        raise ValueError("campaign needs at least one envelope")
    return [generate_schedule(streams, envelopes[i % len(envelopes)],
                              index=i,
                              seed=derive_seed(config.root_seed, i))
            for i in range(config.n_schedules)]


def _execute_shard(payload: dict) -> list:
    """Run one shard's schedules; returns JSON-able verdict+metrics rows.

    Module-level (not a closure) so it pickles across the
    ``multiprocessing`` boundary; the payload is plain data for the
    same reason.
    """
    stack = OracleStack(double_run=payload["double_run"],
                        extra_world_kwargs=payload["extra_world_kwargs"])
    rows = []
    for index, schedule_dict in payload["schedules"]:
        schedule = FaultSchedule.from_dict(schedule_dict)
        verdict, metrics = stack.evaluate_run(schedule, index=index)
        rows.append({"verdict": verdict.as_dict(), "metrics": metrics})
    return rows


@dataclass
class CampaignReport:
    """The merged campaign outcome: verdicts, metrics, and provenance."""

    root_seed: int
    n_schedules: int
    workers: int
    worlds: tuple
    verdicts: list
    merged_metrics: dict
    wall_time_s: float = 0.0

    @property
    def n_passed(self) -> int:
        return sum(1 for v in self.verdicts if v.passed)

    @property
    def n_failed(self) -> int:
        return len(self.verdicts) - self.n_passed

    def failures(self) -> list:
        return [v for v in self.verdicts if not v.passed]

    def as_dict(self) -> dict:
        return {
            "format": "repro.campaign/report/1",
            "root_seed": self.root_seed,
            "n_schedules": self.n_schedules,
            "workers": self.workers,
            "worlds": list(self.worlds),
            "n_passed": self.n_passed,
            "n_failed": self.n_failed,
            "wall_time_s": round(self.wall_time_s, 3),
            "merged_metrics": self.merged_metrics,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def format(self) -> str:
        """A terminal-friendly campaign summary."""
        lines = [
            f"campaign: {len(self.verdicts)} schedule(s), "
            f"{self.n_passed} passed, {self.n_failed} failed "
            f"({self.workers} worker(s), {self.wall_time_s:.1f}s wall)",
        ]
        by_world: dict[str, list] = {}
        for verdict in self.verdicts:
            by_world.setdefault(verdict.world, []).append(verdict)
        for world in sorted(by_world):
            group = by_world[world]
            passed = sum(1 for v in group if v.passed)
            lines.append(f"  {world}: {passed}/{len(group)} passed")
        for verdict in self.failures():
            detail = "; ".join(
                f"{name}: {verdict.failure_details.get(name, '?')}"
                for name in verdict.failures)
            lines.append(f"  FAIL #{verdict.index} "
                         f"[{verdict.world} seed={verdict.seed} "
                         f"digest={verdict.schedule_digest[:12]}] {detail}")
        return "\n".join(lines)


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Generate, shard, execute, and merge one campaign."""
    # Campaign wall time is harness telemetry, not simulated time: it
    # measures this process, never feeds back into any world.
    started = time.monotonic()  # simlint: disable=SL002
    schedules = generate_schedules(config)
    indexed = list(enumerate(schedules))
    workers = config.workers
    payloads = []
    for shard in range(workers):
        mine = [(i, s.as_dict()) for i, s in indexed
                if i % workers == shard]
        if mine:
            payloads.append({
                "schedules": mine,
                "double_run": config.double_run,
                "extra_world_kwargs": dict(config.extra_world_kwargs),
            })
    if workers == 1 or len(payloads) <= 1:
        shard_rows = [_execute_shard(p) for p in payloads]
    else:
        # Shards are dealt by schedule index whatever the worker count;
        # more processes than cores would only contend for them.
        processes = min(len(payloads), os.cpu_count() or 1)
        with multiprocessing.Pool(processes=processes) as pool:
            shard_rows = pool.map(_execute_shard, payloads)
    rows = [row for shard in shard_rows for row in shard]
    rows.sort(key=lambda row: row["verdict"]["index"])
    verdicts = [RunVerdict.from_dict(row["verdict"]) for row in rows]
    merged = merge_metrics(row["metrics"] for row in rows
                           if row["metrics"] is not None)
    return CampaignReport(
        root_seed=config.root_seed,
        n_schedules=config.n_schedules,
        workers=config.workers,
        worlds=tuple(config.worlds),
        verdicts=verdicts,
        merged_metrics=merged,
        wall_time_s=time.monotonic() - started)  # simlint: disable=SL002
