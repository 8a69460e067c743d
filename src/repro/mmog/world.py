"""The virtual world: zones, sessions, and capacity (Function 1).

Yardstick (:mod:`repro.mmog.yardstick`) places players into these zones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

_session_ids = count()


@dataclass
class PlayerSession:
    """One player's connected session."""

    player: str
    start: float
    session_id: int = field(default_factory=lambda: next(_session_ids))
    zone: Optional[str] = None
    end: Optional[float] = None


@dataclass
class Zone:
    """A shard/region of the world with a player capacity.

    MMOGs raise "some of the strictest NFRs": above ``soft_capacity`` the
    tick rate degrades linearly until ``hard_capacity``, beyond which
    joins are refused — both effects the provisioning experiments measure.
    """

    name: str
    soft_capacity: int = 100
    hard_capacity: int = 150
    base_tick_hz: float = 10.0
    players: set[int] = field(default_factory=set)

    def __post_init__(self):
        if self.hard_capacity < self.soft_capacity:
            raise ValueError("hard_capacity must be >= soft_capacity")

    @property
    def population(self) -> int:
        return len(self.players)

    @property
    def tick_hz(self) -> float:
        """Current update frequency; degrades above the soft capacity."""
        if self.population <= self.soft_capacity:
            return self.base_tick_hz
        over = self.population - self.soft_capacity
        span = max(self.hard_capacity - self.soft_capacity, 1)
        degradation = min(over / span, 1.0)
        return self.base_tick_hz * (1.0 - 0.7 * degradation)

    def try_join(self, session: PlayerSession) -> bool:
        if self.population >= self.hard_capacity:
            return False
        self.players.add(session.session_id)
        session.zone = self.name
        return True

    def leave(self, session: PlayerSession) -> None:
        self.players.discard(session.session_id)
        session.zone = None
