"""Yardstick: a benchmark for Minecraft-like services ([84]).

Yardstick drives bot players into a Minecraft-like server and measures
how the tick rate degrades with population — locating the service's
real capacity (the population where ticks drop below the playability
floor), which the paper's group found to be far below vendor claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.mmog.world import PlayerSession, Zone


@dataclass
class YardstickSample:
    population: int
    tick_hz: float
    joined: bool


@dataclass
class YardstickReport:
    """The benchmark's output: tick-vs-population curve and capacity."""

    samples: list[YardstickSample]
    playability_floor_hz: float

    @property
    def max_playable_population(self) -> int:
        """Largest population with tick rate at or above the floor."""
        playable = [s.population for s in self.samples
                    if s.joined and s.tick_hz >= self.playability_floor_hz]
        return max(playable) if playable else 0

    @property
    def hard_capacity_hit(self) -> bool:
        return any(not s.joined for s in self.samples)

    @property
    def degradation_onset(self) -> Optional[int]:
        """Population where the tick rate first drops below nominal."""
        nominal = self.samples[0].tick_hz if self.samples else 0.0
        for s in self.samples:
            if s.joined and s.tick_hz < nominal - 1e-9:
                return s.population
        return None


def run_yardstick(zone: Zone, max_bots: int = 500,
                  playability_floor_hz: float = 5.0) -> YardstickReport:
    """Drive bots into the zone one by one, sampling the tick rate."""
    if max_bots < 1:
        raise ValueError("max_bots must be >= 1")
    samples = []
    for i in range(max_bots):
        session = PlayerSession(player=f"bot-{i:04d}", start=float(i))
        joined = zone.try_join(session)
        samples.append(YardstickSample(
            population=zone.population, tick_hz=zone.tick_hz,
            joined=joined))
        if not joined:
            break
    return YardstickReport(samples=samples,
                           playability_floor_hz=playability_floor_hz)


def capacity_study(soft_capacities: Sequence[int]
                   ) -> list[dict[str, float]]:
    """Yardstick across server configurations: how does real (playable)
    capacity scale with nominal (soft) capacity? Each server's hard cap
    is 1.5 times its soft one."""
    rows = []
    for soft in soft_capacities:
        hard = int(soft * 1.5)
        zone = Zone(f"server-{soft}", soft_capacity=soft,
                    hard_capacity=hard)
        report = run_yardstick(zone, max_bots=hard + 10)
        rows.append({
            "nominal_capacity": float(soft),
            "max_playable": float(report.max_playable_population),
            "degradation_onset": float(report.degradation_onset or soft),
            "hard_capacity_hit": float(report.hard_capacity_hit),
        })
    return rows
