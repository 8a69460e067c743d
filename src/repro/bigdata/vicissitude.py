"""Vicissitude: bottlenecks appearing "seemingly at random" ([38], §2.5).

When several big data pipelines with phase-dependent resource profiles
share a cluster, the instantaneous bottleneck wanders between CPU, disk,
and network as jobs move through their phases. [38] named this class of
phenomena *vicissitude* while scaling the BTWorld analytics workflow.

:func:`detect_vicissitude` quantifies the wandering on a bottleneck
series: how many distinct bottleneck classes appear, how often the
bottleneck shifts, and the entropy of the bottleneck distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.bigdata.mapreduce import (
    MRCluster,
    MRSimulator,
    generate_mr_jobs,
)


@dataclass
class BottleneckTrace:
    """The vicissitude characterization of one run."""

    series: list[Optional[str]]
    shifts: int
    distinct_bottlenecks: int
    entropy_bits: float
    busy_fraction: float
    time_share: dict[str, float]

    @property
    def is_vicissitude(self) -> bool:
        """The phenomenon: multiple bottleneck classes, frequent shifts."""
        return self.distinct_bottlenecks >= 2 and self.shifts >= 3


def detect_vicissitude(series: Sequence[Optional[str]]) -> BottleneckTrace:
    """Characterize a bottleneck series."""
    series = list(series)
    if not series:
        raise ValueError("empty bottleneck series")
    busy = [b for b in series if b is not None]
    shifts = 0
    prev = None
    for b in series:
        if b is not None and prev is not None and b != prev:
            shifts += 1
        if b is not None:
            prev = b
    counts: dict[str, int] = {}
    for b in busy:
        counts[b] = counts.get(b, 0) + 1
    total = len(busy)
    entropy = 0.0
    share = {}
    for name, count in sorted(counts.items()):
        p = count / total
        share[name] = p
        entropy -= p * math.log2(p)
    return BottleneckTrace(
        series=series,
        shifts=shifts,
        distinct_bottlenecks=len(counts),
        entropy_bits=entropy,
        busy_fraction=total / len(series),
        time_share=share,
    )


def run_vicissitude_experiment(seed: int = 0,
                               concurrency: str = "contended"
                               ) -> BottleneckTrace:
    """The [38]-style experiment: 12 jobs, 5 s steps.

    ``concurrency``:

    - ``"solo"``: jobs run far apart (arrival rate scaled down) — phases
      never overlap across jobs, the bottleneck follows one job's phase
      sequence and barely shifts;
    - ``"contended"``: jobs overlap — the bottleneck wanders (the
      vicissitude regime).
    """
    rng = np.random.default_rng(seed)
    rate = {"solo": 1 / 5000.0, "contended": 1 / 60.0}.get(concurrency)
    if rate is None:
        raise ValueError("concurrency must be 'solo' or 'contended'")
    jobs = generate_mr_jobs(rng, n_jobs=12, arrival_rate=rate)
    cluster = MRCluster("dc", cpu=48.0, disk=36.0, network=24.0)
    sim = MRSimulator(cluster, jobs)
    sim.run()
    return detect_vicissitude(sim.bottleneck_series())
