"""The oracle stack: what "this schedule passed" actually means.

A campaign run is only as strong as its oracles. Each
:class:`FaultSchedule` executes against its composed world with the
:class:`~repro.invariants.InvariantEngine` in survey mode over the full
``standard_laws`` catalog, and the :class:`OracleStack` then judges the
run on these axes:

- **safety** — zero conservation-law violations in the survey log, and
  (failover world) zero split-brain writes and at most one leader per
  term;
- **liveness** — the run closes its books (``all_done``) within the
  schedule's sim-time budget and loses zero tasks;
- **progress** — the run keeps making progress: a run that dispatches
  :data:`~repro.analysis.sanitizers.LIVELOCK_DISPATCHES` events at one
  sim time, or whose one dispatch never returns, stops with a
  ``progress`` failure instead of hanging, and the other oracles have
  no result to judge;
- **determinism** — an optional :class:`DeterminismSanitizer`-style
  double run: the same schedule executed twice must produce the same
  event-trace digest and the same result dict.

Verdicts are plain data (:class:`RunVerdict`), picklable across shard
workers and byte-identical however many shards executed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.sanitizers import Livelock, TraceDigest
from repro.campaign.schedule import FaultSchedule
from repro.faults.chaos import run_failover_scenario, run_partition_scenario
from repro.sim import Environment, MetricsRegistry

__all__ = [
    "CampaignRun",
    "Oracle",
    "OracleStack",
    "RunVerdict",
    "WORLD_RUNNERS",
    "execute_schedule",
    "merge_metrics",
    "standard_oracles",
]

WORLD_RUNNERS = {
    "partition": run_partition_scenario,
    "failover": run_failover_scenario,
}


@dataclass(frozen=True)
class Oracle:
    """One named pass/fail judgment over a world run's result dict.

    ``check`` returns ``None`` on pass, or a human-readable failure
    detail. ``worlds`` restricts applicability (empty = all worlds).
    """

    name: str
    check: Callable[[dict], Optional[str]]
    worlds: tuple = ()

    def applies_to(self, world: str) -> bool:
        return not self.worlds or world in self.worlds


def _invariants_hold(result: dict) -> Optional[str]:
    violations = result.get("invariant_violations", 0)
    if violations:
        return (f"{violations} conservation-law violation(s) in the "
                "survey log")
    return None


def _run_completes(result: dict) -> Optional[str]:
    if not result.get("all_done", False):
        return (f"books still open at sim-time budget: "
                f"{result.get('completed', 0)} completed of "
                f"{result.get('submitted', 0)} submitted")
    return None


def _no_lost_tasks(result: dict) -> Optional[str]:
    lost = result.get("lost", 0)
    if lost:
        return f"{lost} task(s) lost"
    return None


def _at_most_one_leader(result: dict) -> Optional[str]:
    promotions = result.get("promotions", 0)
    terms = result.get("terms_with_leader", 0)
    if promotions != terms:
        return (f"{promotions} promotion(s) across {terms} term(s) with "
                "a leader — some term elected twice")
    return None


def _no_split_brain(result: dict) -> Optional[str]:
    writes = result.get("split_brain_writes", 0)
    if writes:
        return f"{writes} stale write(s) accepted by unfenced machines"
    return None


_ORACLES = (
    Oracle("invariants_hold", _invariants_hold),
    Oracle("run_completes", _run_completes),
    Oracle("no_lost_tasks", _no_lost_tasks),
    Oracle("at_most_one_leader", _at_most_one_leader,
           worlds=("failover",)),
    Oracle("no_split_brain", _no_split_brain, worlds=("failover",)),
)


def standard_oracles(world: Optional[str] = None) -> tuple:
    """The oracle catalog, optionally filtered to one world."""
    if world is None:
        return _ORACLES
    return tuple(o for o in _ORACLES if o.applies_to(world))


# -- execution ---------------------------------------------------------------

@dataclass
class CampaignRun:
    """One traced execution of a schedule: result + digests + metrics.

    ``livelock`` is the :class:`~repro.analysis.sanitizers.Livelock`
    message of a run whose clock stopped advancing (its ``result`` is
    then empty), else ``None``.
    """

    result: dict
    trace_digest: str
    trace_events: int
    metrics: dict
    livelock: Optional[str] = None


def execute_schedule(schedule: FaultSchedule,
                     extra_world_kwargs: Optional[dict] = None
                     ) -> CampaignRun:
    """Run ``schedule`` against its world, traced and metered.

    Episodes, seed, and sim-time budget all come from the schedule.
    ``extra_world_kwargs`` passes additional scenario knobs through —
    the campaign's way of planting a known bug (``fence_on_failover=
    False``, ``report_retry=False``) under the oracles' noses.
    """
    registry = MetricsRegistry()
    digest = TraceDigest()
    result: dict = {}
    livelock = None
    with Environment.traced(digest):
        try:
            with digest.stall_guard():
                result = WORLD_RUNNERS[schedule.world](
                    seed=schedule.seed, episodes=schedule.episodes,
                    sim_budget_s=schedule.sim_budget_s,
                    invariant_halt=False, registry=registry,
                    **(extra_world_kwargs or {}))
        except Livelock as err:
            livelock = str(err)
    return CampaignRun(result=result, trace_digest=digest.hexdigest(),
                       trace_events=digest.events,
                       metrics=registry.snapshot(), livelock=livelock)


def merge_metrics(snapshots) -> dict:
    """Merge per-run registry snapshots into one campaign-wide ledger.

    Counters sum their totals (and ``by_key`` maps); series sum their
    sample counts. The merge is order-insensitive by construction —
    addition commutes — so shard count cannot change the merged view.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            slot = merged.setdefault(
                name, {"type": entry["type"],
                       "total": 0} if entry["type"] == "counter"
                else {"type": "series", "count": 0})
            if entry["type"] == "counter":
                slot["total"] += entry["total"]
                for key, value in entry.get("by_key", {}).items():
                    by_key = slot.setdefault("by_key", {})
                    by_key[key] = by_key.get(key, 0) + value
            else:
                slot["count"] += entry["count"]
    return {name: ({**entry,
                    "by_key": dict(sorted(entry["by_key"].items()))}
                   if "by_key" in entry else entry)
            for name, entry in sorted(merged.items())}


# -- verdicts ----------------------------------------------------------------

@dataclass
class RunVerdict:
    """The oracle stack's judgment of one schedule — shard-invariant."""

    index: int
    world: str
    seed: int
    schedule_digest: str
    trace_digest: str
    passed: bool
    failures: tuple = ()
    failure_details: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "world": self.world,
            "seed": self.seed,
            "schedule_digest": self.schedule_digest,
            "trace_digest": self.trace_digest,
            "passed": self.passed,
            "failures": list(self.failures),
            "failure_details": dict(self.failure_details),
            "summary": dict(self.summary),
            "schedule": dict(self.schedule),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunVerdict":
        return cls(index=data["index"], world=data["world"],
                   seed=data["seed"],
                   schedule_digest=data["schedule_digest"],
                   trace_digest=data["trace_digest"],
                   passed=data["passed"],
                   failures=tuple(data["failures"]),
                   failure_details=dict(data["failure_details"]),
                   summary=dict(data["summary"]),
                   schedule=dict(data["schedule"]))


_SUMMARY_KEYS = ("completed", "submitted", "lost", "all_done",
                 "sim_time_s", "invariant_violations",
                 "scheduler_crashes", "split_brain_writes", "failovers")


class OracleStack:
    """Evaluates schedules: execute, judge, optionally double-run.

    ``double_run=True`` re-executes every schedule and requires an
    identical trace digest *and* result dict — the campaign-integrated
    form of the :class:`~repro.analysis.sanitizers.DeterminismSanitizer`
    check. A mismatch fails the ``determinism`` oracle. A run that
    failed ``progress`` is not re-executed: it has no result to compare,
    and a second run would only spend the livelock budget again.
    """

    def __init__(self, oracles=None, *, double_run: bool = True,
                 extra_world_kwargs: Optional[dict] = None):
        owned = sorted({"seed", "episodes", "sim_budget_s", "invariant_halt",
                        "registry"}.intersection(extra_world_kwargs or ()))
        if owned:  # a verdict must describe the run that was executed
            raise ValueError(f"extra_world_kwargs may not set {owned}: "
                             "execute_schedule sets them from the schedule")
        self.oracles = oracles
        self.double_run = double_run
        self.extra_world_kwargs = dict(extra_world_kwargs or {})

    def evaluate(self, schedule: FaultSchedule,
                 index: int = 0) -> RunVerdict:
        verdict, _ = self.evaluate_run(schedule, index=index)
        return verdict

    def evaluate_run(self, schedule: FaultSchedule,
                     index: int = 0) -> tuple:
        """Like :meth:`evaluate`, also returning the run's metrics
        snapshot (for the campaign-wide merge)."""
        run = execute_schedule(schedule, self.extra_world_kwargs)
        oracles = (self.oracles if self.oracles is not None
                   else standard_oracles(schedule.world))
        failures: list[str] = []
        details: dict[str, str] = {}
        if run.livelock is not None:
            failures.append("progress")
            details["progress"] = run.livelock
            oracles = ()
        for oracle in oracles:
            if not oracle.applies_to(schedule.world):
                continue
            detail = oracle.check(run.result)
            if detail is not None:
                failures.append(oracle.name)
                details[oracle.name] = detail
        if self.double_run and run.livelock is None:
            rerun = execute_schedule(schedule, self.extra_world_kwargs)
            if rerun.trace_digest != run.trace_digest:
                failures.append("determinism")
                details["determinism"] = (
                    f"trace digests diverged across same-seed runs "
                    f"({run.trace_events} vs {rerun.trace_events} events)")
            elif rerun.result != run.result:
                failures.append("determinism")
                details["determinism"] = (
                    "result dicts diverged across same-seed runs with "
                    "identical traces")
        summary = {key: run.result[key] for key in _SUMMARY_KEYS
                   if key in run.result}
        verdict = RunVerdict(
            index=index, world=schedule.world, seed=schedule.seed,
            schedule_digest=schedule.digest(),
            trace_digest=run.trace_digest,
            passed=not failures,
            failures=tuple(sorted(failures)),
            failure_details=details,
            summary=summary,
            schedule=schedule.as_dict())
        return verdict, run.metrics
