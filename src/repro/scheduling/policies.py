"""Scheduling policies.

A policy orders the ready queue; the simulator then places tasks
first-fit in that order. :class:`BackfillPolicy` additionally allows
jumping the queue when doing so cannot delay the head task (EASY
backfilling with runtime estimates).

The Table 9 finding these implement: "no individual technique or policy
was consistently better than all others" — each policy's ordering is
optimal for a different workload shape.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sim.rng import RandomStreams
from repro.workload.task import Task


class Policy:
    """Base: order the ready queue (most-urgent first).

    ``order`` returns a *new* list and leaves ``queue`` untouched: the
    simulator orders the queue once per scheduling pass and deletes each
    task it starts from that list. Policies that rank by runtime use the
    same estimate as the simulator and the portfolio predictor,
    ``runtime_estimate or work`` (a missing or zero estimate falls back
    to the task's work).
    """

    name = "abstract"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        raise NotImplementedError

    def allows_backfill(self) -> bool:
        return False


class FCFSPolicy(Policy):
    """First-come first-served: by submit time."""

    name = "fcfs"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        return sorted(queue, key=lambda t: (t.submit_time, t.task_id))


class SJFPolicy(Policy):
    """Shortest job first, by runtime *estimate* (which may be wrong —
    the [120] failure mode for big data workloads)."""

    name = "sjf"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        return sorted(queue, key=lambda t: (
            t.runtime_estimate or t.work, t.task_id))


class LJFPolicy(Policy):
    """Longest job first: good for utilization of big free blocks."""

    name = "ljf"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        return sorted(queue, key=lambda t: (
            -(t.runtime_estimate or t.work), t.task_id))


class RandomPolicy(Policy):
    """Uniformly random order — Altshuller's 'random design' baseline.

    The simulator calls ``order`` once per scheduling pass, so one pass
    draws one permutation of the ready queue and dispatches in that
    order; the next pass draws afresh. A seeded generator replays the
    same schedule run to run.
    """

    name = "random"

    def __init__(self, rng: Optional[np.random.Generator] = None):
        if rng is None:
            # Determinism contract: default onto a *named* stream rather
            # than an anonymous generator, so the fallback is reproducible
            # and isolated from every other stream (simlint SL001).
            rng = RandomStreams(0).get("scheduling.random-policy")
        self.rng = rng

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        queue = list(queue)
        idx = self.rng.permutation(len(queue))
        return [queue[int(i)] for i in idx]


class FairSharePolicy(Policy):
    """Least-served user first (by accumulated core-seconds)."""

    name = "fair-share"

    def __init__(self):
        self.usage: dict[str, float] = {}

    def charge(self, user: str, core_seconds: float) -> None:
        self.usage[user] = self.usage.get(user, 0.0) + core_seconds

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        return sorted(queue, key=lambda t: (
            self.usage.get(t.user, 0.0), t.submit_time, t.task_id))


class BackfillPolicy(Policy):
    """FCFS with EASY backfilling.

    Ordering is FCFS; ``allows_backfill`` tells the simulator it may run
    later tasks out of order when they fit now and their *estimated*
    runtime ends before the head task's earliest possible start.
    """

    name = "backfill"

    def order(self, queue: Sequence[Task], now: float) -> list[Task]:
        return sorted(queue, key=lambda t: (t.submit_time, t.task_id))

    def allows_backfill(self) -> bool:
        return True


#: Factory functions so every simulation gets fresh policy state.
POLICIES: dict[str, type] = {
    "fcfs": FCFSPolicy,
    "sjf": SJFPolicy,
    "ljf": LJFPolicy,
    "random": RandomPolicy,
    "fair-share": FairSharePolicy,
    "backfill": BackfillPolicy,
}


def make_policy(name: str,
                rng: Optional[np.random.Generator] = None) -> Policy:
    if name not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(POLICIES)}")
    if name == "random":
        return RandomPolicy(rng)
    return POLICIES[name]()
