"""Typed fault episodes: the one fault input the composed worlds read.

An :class:`Episode` is one fault of a known kind over a half-open
sim-time window. The chaos worlds (:mod:`repro.faults.chaos`) build their
fault layers straight from a list of them, and a campaign's
:class:`~repro.campaign.FaultSchedule` carries one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

__all__ = ["EPISODE_KINDS", "Episode", "normalize_episodes"]

#: Every typed fault an episode can inject.
EPISODE_KINDS = ("partition", "gray", "crash", "burst", "loss", "overload")

_DIRECTIONS = ("both", "outbound", "inbound")
_GRAY_ROLES = ("worker", "scheduler")

#: Kinds whose episodes must not overlap each other: partitions within a
#: group (the network model's half-open-interval contract) and scheduler
#: crash windows (the scheduler cannot crash while already down).
_EXCLUSIVE_KINDS = frozenset(("partition", "crash"))


@dataclass(frozen=True)
class Episode:
    """One typed fault over the half-open sim-time window [start, end).

    ``params`` carries the kind-specific knobs: ``direction`` for
    partitions, ``role`` for gray failures, ``rate`` for loss,
    ``fraction`` for bursts, ``factor`` for overload ramps. Crash
    episodes need none — the outage is ``end_s - start_s``.
    """

    kind: str
    start_s: float
    end_s: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EPISODE_KINDS:
            raise ValueError(f"unknown episode kind {self.kind!r}; "
                             f"known: {EPISODE_KINDS}")
        if not 0 <= self.start_s < self.end_s:
            raise ValueError(
                f"{self.kind} episode [{self.start_s}, {self.end_s}) "
                "needs 0 <= start < end")
        if self.kind == "partition":
            direction = self.params.get("direction", "both")
            if direction not in _DIRECTIONS:
                raise ValueError(f"partition direction {direction!r} not "
                                 f"in {_DIRECTIONS}")
        elif self.kind == "gray":
            role = self.params.get("role", "worker")
            if role not in _GRAY_ROLES:
                raise ValueError(f"gray role {role!r} not in {_GRAY_ROLES}")
        elif self.kind == "loss":
            rate = self.params.get("rate")
            if rate is None or not 0.0 < rate < 1.0:
                raise ValueError(f"loss rate {rate!r} not in (0, 1)")
        elif self.kind == "burst":
            fraction = self.params.get("fraction")
            if fraction is None or not 0.0 < fraction <= 1.0:
                raise ValueError(
                    f"burst fraction {fraction!r} not in (0, 1]")
        elif self.kind == "overload":
            factor = self.params.get("factor")
            if factor is None or factor < 1.0:
                raise ValueError(f"overload factor {factor!r} must be >= 1")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> dict:
        return {"kind": self.kind, "start_s": self.start_s,
                "end_s": self.end_s, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "Episode":
        return cls(kind=data["kind"], start_s=float(data["start_s"]),
                   end_s=float(data["end_s"]),
                   params=dict(data.get("params", {})))


def normalize_episodes(episodes: Iterable[Episode]) -> tuple:
    """Sort episodes and clip same-kind overlaps for exclusive kinds.

    Episodes are ordered by ``(start_s, end_s, kind)``. For partitions
    and crashes, a later episode starting inside an earlier one of the
    same kind is clipped to start at the earlier one's end; episodes
    swallowed whole are dropped. Gray/burst/loss/overload episodes may
    overlap freely — their models take the max over active windows.
    """
    ordered = sorted(episodes,
                     key=lambda e: (e.start_s, e.end_s, e.kind))
    out: list[Episode] = []
    last_end: dict[str, float] = {}
    for episode in ordered:
        if episode.kind in _EXCLUSIVE_KINDS:
            floor = last_end.get(episode.kind, 0.0)
            start = max(episode.start_s, floor)
            if start >= episode.end_s:
                continue  # swallowed whole by the previous window
            if start != episode.start_s:
                episode = replace(episode, start_s=start)
            last_end[episode.kind] = episode.end_s
        out.append(episode)
    return tuple(out)
