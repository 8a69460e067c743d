"""Ecosystem-level analytics over swarms and monitor data.

Implements the analyses behind the Table 5 studies:

- aliased media detection ([61]): group swarms sharing the same content
  in different formats;
- bandwidth asymmetry ([62]): the ecosystem-wide upload/download imbalance;
- flashcrowd identification ([66]): sustained arrival-rate spikes;
- giant swarms ([63]): the heavy tail of swarm sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.p2p.peer import ContentDescriptor, Peer
from repro.p2p.swarm import SwarmResult


@dataclass
class AliasGroup:
    """Swarms sharing one underlying content in several formats."""

    content_key: str
    formats: list[str]
    total_peers: int

    @property
    def alias_count(self) -> int:
        return len(self.formats)

    @property
    def is_aliased(self) -> bool:
        return self.alias_count > 1


def detect_aliased_media(descriptors: Sequence[ContentDescriptor],
                         swarm_sizes: Sequence[int]) -> list[AliasGroup]:
    """Group torrents by content key; report aliasing and peer dilution."""
    if len(descriptors) != len(swarm_sizes):
        raise ValueError("descriptors and swarm_sizes must align")
    groups: dict[str, AliasGroup] = {}
    for desc, size in zip(descriptors, swarm_sizes):
        group = groups.get(desc.content_key)
        if group is None:
            group = AliasGroup(content_key=desc.content_key, formats=[],
                               total_peers=0)
            groups[desc.content_key] = group
        if desc.format not in group.formats:
            group.formats.append(desc.format)
        group.total_peers += int(size)
    return sorted(groups.values(), key=lambda g: (-g.alias_count,
                                                  g.content_key))


def aliasing_dilution(groups: Sequence[AliasGroup]) -> float:
    """Mean peers-per-format among aliased groups over non-aliased ones.

    < 1 means aliasing splits communities into smaller, slower swarms —
    the operational cost of aliased media the [61] study characterizes.
    """
    aliased = [g for g in groups if g.is_aliased]
    plain = [g for g in groups if not g.is_aliased]
    if not aliased or not plain:
        return float("nan")
    per_format_aliased = np.mean(
        [g.total_peers / g.alias_count for g in aliased])
    per_swarm_plain = np.mean([g.total_peers for g in plain])
    if per_swarm_plain == 0:
        return float("nan")
    return float(per_format_aliased / per_swarm_plain)


def bandwidth_asymmetry(peers: Sequence[Peer]) -> dict[str, float]:
    """Ecosystem-wide capacity imbalance ([62]'s headline measurement)."""
    if not peers:
        raise ValueError("no peers to analyze")
    down = np.array([p.peer_class.download_kbps for p in peers])
    up = np.array([p.peer_class.upload_kbps for p in peers])
    return {
        "mean_download_kbps": float(down.mean()),
        "mean_upload_kbps": float(up.mean()),
        "capacity_ratio": float(down.sum() / up.sum()),
        "asymmetric_fraction": float(np.mean(down > up * 1.5)),
    }


@dataclass
class Flashcrowd:
    """One detected flashcrowd episode."""

    start: float
    end: float
    peak_rate: float
    baseline_rate: float

    @property
    def magnitude(self) -> float:
        return self.peak_rate / max(self.baseline_rate, 1e-12)


def detect_flashcrowds(arrival_times: Sequence[float],
                       window_s: float = 600.0,
                       threshold: float = 5.0) -> list[Flashcrowd]:
    """The [66] method (simplified): windows whose arrival rate exceeds
    ``threshold`` × the median window rate form flashcrowd episodes."""
    times = np.asarray(sorted(arrival_times), dtype=float)
    if times.size < 10:
        return []
    t0, t1 = times[0], times[-1]
    edges = np.arange(t0, t1 + window_s, window_s)
    counts, _ = np.histogram(times, bins=edges)
    rates = counts / window_s
    baseline = float(np.median(rates))
    if baseline <= 0:
        positive = rates[rates > 0]
        baseline = float(positive.min()) if positive.size else 0.0
    if baseline <= 0:
        return []
    hot = rates >= threshold * baseline
    episodes: list[Flashcrowd] = []
    i = 0
    while i < hot.size:
        if hot[i]:
            j = i
            while j + 1 < hot.size and hot[j + 1]:
                j += 1
            episodes.append(Flashcrowd(
                start=float(edges[i]), end=float(edges[j + 1]),
                peak_rate=float(rates[i:j + 1].max()),
                baseline_rate=baseline))
            i = j + 1
        else:
            i += 1
    return episodes


def giant_swarms(swarm_sizes: Sequence[int],
                 giant_threshold_quantile: float = 0.99
                 ) -> dict[str, float]:
    """Heavy-tail statistics of swarm sizes ([63]'s giant swarms)."""
    sizes = np.asarray(swarm_sizes, dtype=float)
    if sizes.size == 0:
        raise ValueError("no swarm sizes")
    threshold = float(np.quantile(sizes, giant_threshold_quantile))
    giants = sizes[sizes >= threshold]
    return {
        "n_swarms": int(sizes.size),
        "giant_threshold": threshold,
        "n_giants": int(giants.size),
        "giant_peer_share": float(giants.sum() / sizes.sum())
        if sizes.sum() else 0.0,
        "max_size": float(sizes.max()),
        "median_size": float(np.median(sizes)),
    }


def mean_download_slowdown_during(result: SwarmResult,
                                  start: float, end: float) -> float:
    """Mean download time of peers arriving in [start, end) over the mean
    of peers arriving outside it — the flashcrowd degradation measure."""
    inside = [p.download_time for p in result.completed
              if start <= p.arrival_time < end]
    outside = [p.download_time for p in result.completed
               if not start <= p.arrival_time < end]
    if not inside or not outside:
        return float("nan")
    return float(np.mean(inside) / np.mean(outside))
