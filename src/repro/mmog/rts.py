"""RTS scalability: RTSenv, points of interest, Area of Simulation, Mirror.

The [76] discovery: RTS compute cost depends not just on unit count but on
*interactive details* — where units are and how many actionable items share
a screen. Replays showed RTS games have (i) multiple points of interest,
(ii) tens of carefully-managed entities at some, (iii) hundreds of casually
managed entities elsewhere. The Area-of-Simulation technique ([81])
exploits this: full-fidelity simulation only near points of interest,
cheap aggregate simulation elsewhere. Mirror ([82]) offloads part of the
frame computation to the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class PointOfInterest:
    """A battle or staging area the player attends to, with its entities."""

    name: str
    entities: int
    #: Micro-managed POIs need per-entity pairwise interaction checks.
    micromanaged: bool = True


@dataclass
class RTSWorkload:
    """One match state: points of interest plus background entities."""

    pois: list[PointOfInterest]
    background_entities: int = 0

    @property
    def total_entities(self) -> int:
        return self.background_entities + sum(p.entities for p in self.pois)


#: Cost constants, in seconds of frame time on a reference machine.
#: Calibrated so a ~100-entity uniform melee sits at the 30 Hz budget —
#: the scalability wall RTSenv locates.
PAIRWISE_COST = 2.0e-6     # per entity-pair inside a simulated area
ENTITY_COST = 2.0e-4       # per entity baseline (pathing, state)
AGGREGATE_COST = 1.0e-5    # per entity under aggregate (low-fidelity) sim


def rts_frame_cost(workload: RTSWorkload,
                   uniform_fidelity: bool = True) -> float:
    """Frame cost under uniform full-fidelity simulation.

    Pairwise interactions are computed globally when ``uniform_fidelity``
    — the cost model that fails to scale in RTSenv's sweeps.
    """
    n = workload.total_entities
    if uniform_fidelity:
        return ENTITY_COST * n + PAIRWISE_COST * n * (n - 1) / 2
    # Fidelity only inside POIs (the Area-of-Simulation accounting).
    cost = AGGREGATE_COST * workload.background_entities
    for poi in workload.pois:
        m = poi.entities
        cost += ENTITY_COST * m
        if poi.micromanaged:
            cost += PAIRWISE_COST * m * (m - 1) / 2
    return cost


@dataclass
class AreaOfSimulation:
    """The [81] technique: full simulation near POIs, aggregate elsewhere."""

    workload: RTSWorkload

    @property
    def full_cost(self) -> float:
        return rts_frame_cost(self.workload, uniform_fidelity=True)

    @property
    def aos_cost(self) -> float:
        return rts_frame_cost(self.workload, uniform_fidelity=False)

    @property
    def speedup(self) -> float:
        return self.full_cost / max(self.aos_cost, 1e-12)


@dataclass
class MirrorOffload:
    """The [82] mirroring architecture: offload a fraction of frame work.

    The mobile device computes ``1 - offload_fraction`` of the frame; the
    cloud mirror computes the rest, costing one network round trip. Offload
    pays when device frame time exceeds RTT + cloud time.
    """

    device_speed: float = 1.0     # work units per second
    cloud_speed: float = 10.0
    rtt_s: float = 0.05

    def frame_time(self, frame_cost: float,
                   offload_fraction: float) -> float:
        if not 0 <= offload_fraction <= 1:
            raise ValueError("offload_fraction must be in [0, 1]")
        local = frame_cost * (1 - offload_fraction) / self.device_speed
        if offload_fraction == 0:
            return local
        remote = frame_cost * offload_fraction / self.cloud_speed + self.rtt_s
        return max(local, remote)

    def best_offload(self, frame_cost: float,
                     grid: int = 101) -> tuple[float, float]:
        """(fraction, frame_time) minimizing frame time."""
        fractions = np.linspace(0, 1, grid)
        times = [self.frame_time(frame_cost, float(f)) for f in fractions]
        best = int(np.argmin(times))
        return float(fractions[best]), float(times[best])


def replay_derived_workload(rng: np.random.Generator,
                            n_pois: Optional[int] = None
                            ) -> RTSWorkload:
    """A workload with the replay-study shape ([81]): a few micromanaged
    POIs of tens of entities, more casual POIs of hundreds, plus
    background units."""
    n_pois = n_pois if n_pois is not None else int(rng.integers(2, 6))
    pois = []
    for i in range(n_pois):
        if rng.random() < 0.5:
            pois.append(PointOfInterest(
                f"battle-{i}", entities=int(rng.integers(10, 50)),
                micromanaged=True))
        else:
            pois.append(PointOfInterest(
                f"staging-{i}", entities=int(rng.integers(100, 400)),
                micromanaged=False))
    return RTSWorkload(pois=pois,
                       background_entities=int(rng.integers(200, 1000)))


def rtsenv_sweep(entity_counts: Sequence[int],
                 frame_budget: float = 1 / 30.0) -> list[dict[str, float]]:
    """The RTSenv experiment: frame cost vs. unit count, all units in one
    uniform melee. Returns rows with cost and whether the frame budget (a
    playable 30 Hz) is blown — locating the scalability wall."""
    rows = []
    for n in entity_counts:
        workload = RTSWorkload(
            pois=[PointOfInterest("melee", entities=int(n))],
            background_entities=0)
        cost = rts_frame_cost(workload, uniform_fidelity=True)
        rows.append({
            "entities": float(n),
            "frame_cost": cost,
            "playable": float(cost <= frame_budget),
        })
    return rows
