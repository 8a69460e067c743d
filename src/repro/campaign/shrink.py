"""Counterexample shrinking: from a failing schedule to a minimal repro.

A fuzzing campaign that hands you a six-episode schedule has found a
bug; a shrinker that hands you the one episode that matters has
*explained* it. :func:`shrink_schedule` minimizes a failing
:class:`FaultSchedule` in three passes, re-executing the oracle stack
after every candidate mutation to confirm the failure is preserved:

1. **ddmin over episodes** — classic delta debugging: drop complement
   chunks at doubling granularity until no subset of episodes can be
   removed;
2. **duration halving** — each surviving episode's window is repeatedly
   halved while the schedule still fails;
3. **boundary snapping** — starts and ends are rounded to whole seconds
   where the failure allows, so the minimal repro reads like a test
   case, not like noise.

The result serializes to a repro file that
``python -m repro.campaign repro <file>`` replays exactly: same oracle
failures, same event-trace digest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.campaign.oracles import OracleStack
from repro.campaign.schedule import FaultSchedule

__all__ = [
    "REPRO_FORMAT",
    "ReproOutcome",
    "ShrinkResult",
    "load_repro",
    "replay_repro",
    "repro_dict",
    "shrink_schedule",
]

REPRO_FORMAT = "repro.campaign/repro/1"

#: Windows shorter than this are not worth halving further — they are
#: already one detector/audit tick wide.
_MIN_DURATION_S = 1.0


@dataclass
class ShrinkResult:
    """What the shrinker did and what it kept."""

    original: FaultSchedule
    minimal: FaultSchedule
    failures: tuple
    steps: int = 0
    executions: int = 0
    trace_digest: str = ""


class _Shrinker:
    def __init__(self, stack: OracleStack, target_failures: frozenset,
                 max_executions: int):
        self.stack = stack
        self.target = target_failures
        self.max_executions = max_executions
        self.executions = 0
        self.steps = 0
        self.last_digest = ""

    def exhausted(self) -> bool:
        return self.executions >= self.max_executions

    def still_fails(self, schedule: FaultSchedule) -> bool:
        """True iff the candidate reproduces every targeted oracle
        failure (it may fail *more* — shrinking can only demand the bug
        it is chasing stays visible)."""
        if self.exhausted():
            return False
        self.executions += 1
        verdict = self.stack.evaluate(schedule)
        if self.target <= set(verdict.failures):
            self.last_digest = verdict.trace_digest
            return True
        return False

    def _with_episodes(self, schedule: FaultSchedule,
                       episodes) -> FaultSchedule:
        return replace(schedule, episodes=tuple(episodes))

    # -- pass 1: ddmin ----------------------------------------------------
    def ddmin_episodes(self, schedule: FaultSchedule) -> FaultSchedule:
        episodes = list(schedule.episodes)
        granularity = 2
        while len(episodes) >= 2 and not self.exhausted():
            chunk = max(1, (len(episodes) + granularity - 1) // granularity)
            reduced = False
            for lo in range(0, len(episodes), chunk):
                complement = episodes[:lo] + episodes[lo + chunk:]
                if not complement:
                    continue
                candidate = self._with_episodes(schedule, complement)
                if self.still_fails(candidate):
                    episodes = complement
                    schedule = candidate
                    granularity = max(granularity - 1, 2)
                    self.steps += 1
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(episodes):
                    break
                granularity = min(len(episodes), 2 * granularity)
        # Try the single-episode tails ddmin's chunking can miss.
        if len(episodes) > 1 and not self.exhausted():
            for episode in list(episodes):
                if len(episodes) == 1:
                    break
                complement = [e for e in episodes if e is not episode]
                candidate = self._with_episodes(schedule, complement)
                if self.still_fails(candidate):
                    episodes = complement
                    schedule = candidate
                    self.steps += 1
        return schedule

    # -- pass 2: halve durations ------------------------------------------
    def halve_durations(self, schedule: FaultSchedule) -> FaultSchedule:
        for position in range(len(schedule.episodes)):
            while not self.exhausted():
                episodes = list(schedule.episodes)
                episode = episodes[position]
                if episode.duration_s <= 2 * _MIN_DURATION_S:
                    break
                shorter = replace(
                    episode,
                    end_s=round(episode.start_s
                                + episode.duration_s / 2.0, 3))
                episodes[position] = shorter
                candidate = self._with_episodes(schedule, episodes)
                # Normalization may reorder/clip; keep only if the
                # episode count survived (halving must not silently
                # merge windows) and the failure is preserved.
                if (len(candidate.episodes) == len(schedule.episodes)
                        and self.still_fails(candidate)):
                    schedule = candidate
                    self.steps += 1
                else:
                    break
        return schedule

    # -- pass 3: snap boundaries ------------------------------------------
    def snap_boundaries(self, schedule: FaultSchedule) -> FaultSchedule:
        for position in range(len(schedule.episodes)):
            if self.exhausted():
                break
            episodes = list(schedule.episodes)
            episode = episodes[position]
            snapped = replace(episode,
                              start_s=float(math.floor(episode.start_s)),
                              end_s=float(math.ceil(episode.end_s)))
            if snapped == episode:
                continue
            episodes[position] = snapped
            candidate = self._with_episodes(schedule, episodes)
            if (len(candidate.episodes) == len(schedule.episodes)
                    and self.still_fails(candidate)):
                schedule = candidate
                self.steps += 1
        return schedule


def shrink_schedule(schedule: FaultSchedule, *,
                    oracles=None,
                    extra_world_kwargs: Optional[dict] = None,
                    target_failures=None,
                    max_executions: int = 150) -> ShrinkResult:
    """Minimize a failing schedule; raises if it does not fail at all.

    ``target_failures`` (default: whatever the original run fails)
    names the oracle failures every accepted shrink step must preserve.
    Every candidate is confirmed by re-execution — the shrinker never
    guesses. ``max_executions`` bounds total re-runs; the result is the
    best schedule found within that budget.
    """
    stack = OracleStack(oracles, double_run=False,
                        extra_world_kwargs=extra_world_kwargs)
    baseline = stack.evaluate(schedule)
    if baseline.passed:
        raise ValueError(
            f"schedule {schedule.digest()[:12]} does not fail any oracle; "
            "nothing to shrink")
    target = frozenset(target_failures if target_failures is not None
                       else baseline.failures)
    if not target <= set(baseline.failures):
        raise ValueError(
            f"target failures {sorted(target)} not among the schedule's "
            f"actual failures {sorted(baseline.failures)}")
    shrinker = _Shrinker(stack, target, max_executions)
    shrinker.executions = 1  # the baseline run above
    shrinker.last_digest = baseline.trace_digest
    minimal = shrinker.ddmin_episodes(schedule)
    minimal = shrinker.halve_durations(minimal)
    minimal = shrinker.snap_boundaries(minimal)
    return ShrinkResult(original=schedule, minimal=minimal,
                        failures=tuple(sorted(target)),
                        steps=shrinker.steps,
                        executions=shrinker.executions,
                        trace_digest=shrinker.last_digest)


# -- repro files -------------------------------------------------------------

def repro_dict(schedule: FaultSchedule, failures,
               extra_world_kwargs: Optional[dict] = None,
               trace_digest: str = "") -> dict:
    """The serialized minimal repro: schedule + knobs + expectations."""
    return {
        "format": REPRO_FORMAT,
        "schedule": schedule.as_dict(),
        "schedule_digest": schedule.digest(),
        "extra_world_kwargs": dict(extra_world_kwargs or {}),
        "expect_failures": sorted(failures),
        "trace_digest": trace_digest,
    }


def load_repro(text: str) -> dict:
    data = json.loads(text)
    if data.get("format") != REPRO_FORMAT:
        raise ValueError(f"not a campaign repro file "
                         f"(format {data.get('format')!r})")
    return data


@dataclass
class ReproOutcome:
    """One replay of a repro file, judged against its expectations."""

    reproduced: bool
    expected_failures: tuple
    actual_failures: tuple
    trace_digest_matches: Optional[bool]
    verdict_summary: dict

    def describe(self) -> str:
        if self.reproduced:
            extra = ("" if self.trace_digest_matches is None else
                     " (trace digest matches)" if self.trace_digest_matches
                     else " (WARNING: trace digest differs)")
            return ("reproduced: oracle failures "
                    f"{list(self.expected_failures)}{extra}")
        return (f"NOT reproduced: expected {list(self.expected_failures)}, "
                f"got {list(self.actual_failures)}")


def replay_repro(data: dict) -> ReproOutcome:
    """Re-execute a repro file and judge it against its expectations.

    Reproduction means the replay fails *exactly* the expected oracle
    set. When the file pinned a trace digest, a digest mismatch is
    reported (a schema- or model-version drift signal) without voiding
    the reproduction itself.
    """
    schedule = FaultSchedule.from_dict(data["schedule"])
    recorded = data.get("schedule_digest")
    if recorded and recorded != schedule.digest():
        raise ValueError(
            "repro file is corrupt: schedule digest mismatch "
            f"({recorded[:12]} recorded, {schedule.digest()[:12]} actual)")
    stack = OracleStack(double_run=False,
                        extra_world_kwargs=data.get("extra_world_kwargs"))
    verdict = stack.evaluate(schedule)
    expected = tuple(sorted(data.get("expect_failures", [])))
    actual = tuple(sorted(verdict.failures))
    digest_matches: Optional[bool] = None
    if data.get("trace_digest"):
        digest_matches = data["trace_digest"] == verdict.trace_digest
    return ReproOutcome(
        reproduced=actual == expected,
        expected_failures=expected,
        actual_failures=actual,
        trace_digest_matches=digest_matches,
        verdict_summary=verdict.summary)
