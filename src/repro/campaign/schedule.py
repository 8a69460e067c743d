"""Serializable randomized fault schedules for deterministic fuzzing.

A :class:`FaultSchedule` is the campaign's unit of work: a typed list of
fault :class:`Episode` objects — network partitions, gray failures,
scheduler crashes, correlated bursts, scheduled message loss, and
overload ramps — plus the world it runs against, the world's root seed,
and a sim-time budget. Schedules serialize to canonical JSON and carry a
SHA-256 digest, so a failing schedule found on one machine (or one
shard) replays bit-for-bit anywhere: the digest *is* the identity.

:func:`generate_schedule` samples schedules from a configurable
:class:`ScheduleEnvelope` using named
:class:`~repro.sim.RandomStreams` only — no global RNG, no wall clock —
so schedule ``i`` of root seed ``s`` is the same schedule forever,
independent of how many shards the campaign runs on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.faults.episodes import (
    _DIRECTIONS,
    _GRAY_ROLES,
    EPISODE_KINDS,
    Episode,
    normalize_episodes,
)
from repro.sim import RandomStreams

__all__ = [
    "EPISODE_KINDS",
    "Episode",
    "FaultSchedule",
    "KINDS_BY_WORLD",
    "SCHEDULE_FORMAT",
    "ScheduleEnvelope",
    "WORLDS",
    "derive_seed",
    "generate_schedule",
    "normalize_episodes",
]

SCHEDULE_FORMAT = "repro.campaign/schedule/1"

#: The worlds a schedule can target — the two composed chaos scenarios.
WORLDS = ("partition", "failover")

#: Which kinds each world understands. The failover world's scheduler
#: crashes are organic (the control plane fails it over), so forced
#: ``crash`` episodes only exist in the partition world.
KINDS_BY_WORLD = {
    "partition": frozenset(EPISODE_KINDS),
    "failover": frozenset(("partition", "gray", "burst", "loss",
                           "overload")),
}


@dataclass(frozen=True)
class FaultSchedule:
    """A complete, replayable fault plan for one world run."""

    world: str
    seed: int
    sim_budget_s: float
    episodes: tuple = ()

    def __post_init__(self):
        if self.world not in WORLDS:
            raise ValueError(f"unknown world {self.world!r}; "
                             f"known: {WORLDS}")
        if not self.sim_budget_s > 0:  # NaN included
            raise ValueError(
                f"sim_budget_s must be positive, got {self.sim_budget_s}")
        allowed = KINDS_BY_WORLD[self.world]
        for episode in self.episodes:
            if episode.kind not in allowed:
                raise ValueError(
                    f"episode kind {episode.kind!r} is not supported by "
                    f"the {self.world!r} world (allowed: {sorted(allowed)})")
        object.__setattr__(self, "episodes",
                           normalize_episodes(self.episodes))

    # -- identity ----------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "format": SCHEDULE_FORMAT,
            "world": self.world,
            "seed": self.seed,
            "sim_budget_s": self.sim_budget_s,
            "episodes": [e.as_dict() for e in self.episodes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        fmt = data.get("format", SCHEDULE_FORMAT)
        if fmt != SCHEDULE_FORMAT:
            raise ValueError(f"unknown schedule format {fmt!r}")
        return cls(world=data["world"], seed=int(data["seed"]),
                   sim_budget_s=float(data["sim_budget_s"]),
                   episodes=tuple(Episode.from_dict(e)
                                  for e in data["episodes"]))

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON — the digest's input."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON: the schedule's identity."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))


# -- generation -------------------------------------------------------------

def derive_seed(root_seed: int, index: int) -> int:
    """The per-schedule world seed: sha256-derived, shard-invariant."""
    digest = hashlib.sha256(f"{root_seed}:world:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 31)


@dataclass(frozen=True)
class ScheduleEnvelope:
    """The sampling envelope :func:`generate_schedule` draws from.

    ``kind_weights`` is a tuple of ``(kind, weight)`` pairs; kinds the
    target world does not support are rejected at construction.
    """

    world: str = "partition"
    max_episodes: int = 6
    horizon_s: float = 240.0
    min_duration_s: float = 10.0
    max_duration_s: float = 90.0
    sim_budget_s: float = 600.0
    min_crash_outage_s: float = 2.0
    max_crash_outage_s: float = 12.0
    min_loss_rate: float = 0.05
    max_loss_rate: float = 0.25
    min_overload_factor: float = 1.2
    max_overload_factor: float = 2.5
    min_burst_fraction: float = 0.1
    max_burst_fraction: float = 0.4
    kind_weights: tuple = (("partition", 2.0), ("gray", 2.0),
                           ("crash", 1.0), ("burst", 1.0),
                           ("loss", 1.0), ("overload", 1.0))

    def __post_init__(self):
        if self.world not in WORLDS:
            raise ValueError(f"unknown world {self.world!r}")
        if self.max_episodes < 1:
            raise ValueError("max_episodes must be >= 1")
        for name in ("horizon_s", "sim_budget_s"):
            value = getattr(self, name)
            if not value > 0:  # NaN included
                raise ValueError(f"{name} must be positive, got {value}")
        for lo, hi in (("min_duration_s", "max_duration_s"),
                       ("min_crash_outage_s", "max_crash_outage_s"),
                       ("min_loss_rate", "max_loss_rate"),
                       ("min_overload_factor", "max_overload_factor"),
                       ("min_burst_fraction", "max_burst_fraction")):
            low, high = getattr(self, lo), getattr(self, hi)
            if not 0 <= low <= high:  # NaN included
                raise ValueError(
                    f"need 0 <= {lo} <= {hi}, got {low} and {high}")
        for name in ("min_duration_s", "min_crash_outage_s"):
            # Episode bounds are rounded to 1 ms: a shorter episode could
            # round to an empty [start, start) window.
            value = getattr(self, name)
            if value < 0.001:
                raise ValueError(f"{name} must be >= 0.001 s, the grain "
                                 f"episode bounds are rounded to; got {value}")
        allowed = KINDS_BY_WORLD[self.world]
        for kind, weight in self.kind_weights:
            if kind not in allowed:
                raise ValueError(
                    f"kind {kind!r} (weight {weight}) is not supported "
                    f"by the {self.world!r} world")
            if weight < 0:
                raise ValueError(f"negative weight for kind {kind!r}")

    @classmethod
    def for_world(cls, world: str, **overrides) -> "ScheduleEnvelope":
        """The default envelope for ``world``, minus unsupported kinds."""
        allowed = KINDS_BY_WORLD[world]
        weights = tuple((kind, weight) for kind, weight
                        in cls.kind_weights
                        if kind in allowed)
        overrides.setdefault("kind_weights", weights)
        return cls(world=world, **overrides)


def generate_schedule(streams: RandomStreams, envelope: ScheduleEnvelope,
                      *, index: int,
                      seed: Optional[int] = None) -> FaultSchedule:
    """Sample one schedule from ``envelope`` — named streams only.

    The draw order is fixed per episode (kind, start, duration, then the
    kind's parameter), so the schedule at ``(root_seed, index)`` is
    stable across shard counts, platforms, and runs. ``seed`` defaults
    to nothing sensible — campaigns pass :func:`derive_seed` explicitly
    so the world seed, too, is a pure function of ``(root_seed, index)``.
    """
    rng = streams.get(f"schedule-{index:06d}")
    if seed is None:
        seed = int(rng.integers(0, 2 ** 31))
    kinds = [kind for kind, _ in envelope.kind_weights]
    weights = [weight for _, weight in envelope.kind_weights]
    total = sum(weights)
    if total <= 0:
        raise ValueError("kind_weights must have positive total weight")
    probabilities = [w / total for w in weights]
    n_episodes = int(rng.integers(1, envelope.max_episodes + 1))
    episodes: list[Episode] = []
    for _ in range(n_episodes):
        kind = kinds[int(rng.choice(len(kinds), p=probabilities))]
        start = round(float(rng.uniform(0.0, envelope.horizon_s)), 3)
        if kind == "crash":
            duration = float(rng.uniform(envelope.min_crash_outage_s,
                                         envelope.max_crash_outage_s))
        else:
            duration = float(rng.uniform(envelope.min_duration_s,
                                         envelope.max_duration_s))
        end = round(start + duration, 3)
        params: dict = {}
        if kind == "partition":
            params["direction"] = _DIRECTIONS[int(rng.integers(0, 3))]
        elif kind == "gray":
            if envelope.world == "partition":
                params["role"] = _GRAY_ROLES[int(rng.integers(0, 2))]
            else:
                params["role"] = "worker"
        elif kind == "loss":
            params["rate"] = round(float(rng.uniform(
                envelope.min_loss_rate, envelope.max_loss_rate)), 4)
        elif kind == "burst":
            params["fraction"] = round(float(rng.uniform(
                envelope.min_burst_fraction,
                envelope.max_burst_fraction)), 4)
        elif kind == "overload":
            params["factor"] = round(float(rng.uniform(
                envelope.min_overload_factor,
                envelope.max_overload_factor)), 4)
        episodes.append(Episode(kind=kind, start_s=start, end_s=end,
                                params=params))
    return FaultSchedule(world=envelope.world, seed=seed,
                         sim_budget_s=envelope.sim_budget_s,
                         episodes=tuple(episodes))
