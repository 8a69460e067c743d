"""The benchmark harness and the PAD-law analysis.

``run_benchmark`` sweeps the Platform × Algorithm × Dataset grid (the PAD
triangle of [105]); ``pad_interaction_analysis`` quantifies the law —
performance depends on the *interaction*, so no platform dominates and
rankings flip across (A, D) cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graphalytics.datasets import make_dataset
from repro.graphalytics.platforms import PLATFORMS, PlatformRun
from repro.sim import RandomStreams


@dataclass
class BenchmarkReport:
    """All runs of one benchmark sweep plus convenience views."""

    runs: list[PlatformRun] = field(default_factory=list)

    def cell(self, algorithm: str, dataset: str) -> list[PlatformRun]:
        return [r for r in self.runs
                if r.algorithm == algorithm and r.dataset == dataset]

    def ranking(self, algorithm: str, dataset: str) -> list[str]:
        """Platforms fastest-first in one (A, D) cell; failures last."""
        cell = self.cell(algorithm, dataset)
        return [r.platform for r in sorted(
            cell, key=lambda r: (r.modeled_time_s, r.platform))]

    def cells(self) -> list[tuple[str, str]]:
        return sorted({(r.algorithm, r.dataset) for r in self.runs})

    def winners(self) -> dict[tuple[str, str], str]:
        return {cell: self.ranking(*cell)[0] for cell in self.cells()}

    def failures(self) -> list[PlatformRun]:
        return [r for r in self.runs if r.failed]


def run_benchmark(algorithms: Sequence[str] = ("bfs", "pagerank", "wcc",
                                               "cdlp", "lcc", "sssp"),
                  datasets: Sequence[str] = ("scale-free", "small-world",
                                             "road", "random"),
                  n_vertices: int = 2000,
                  seed: int = 0,
                  work_scale: float = 300.0) -> BenchmarkReport:
    """The Graphalytics sweep: every platform of :data:`PLATFORMS` runs
    every algorithm on every dataset (same graph instance per dataset
    across platforms).

    ``work_scale`` extrapolates the measured sample to a realistically
    sized dataset (see :meth:`Platform.model_time`).
    """
    platforms = list(PLATFORMS.values())
    streams = RandomStreams(seed)
    report = BenchmarkReport()
    for dataset_name in datasets:
        graph = make_dataset(dataset_name, n_vertices,
                             streams.get(f"dataset:{dataset_name}"),
                             weighted=True)
        for algorithm in algorithms:
            for platform in platforms:
                report.runs.append(
                    platform.run(algorithm, graph, dataset_name,
                                 work_scale=work_scale))
    return report


def pad_interaction_analysis(report: BenchmarkReport) -> dict[str, object]:
    """Quantify the PAD law on a benchmark report.

    Returns:

    - ``distinct_rankings``: number of distinct platform orderings across
      (A, D) cells — the law holds when > 1;
    - ``no_dominant_platform``: True when no platform wins every cell;
    - ``winner_counts``: wins per platform;
    - ``interaction_strength``: 1 - (wins of the most-winning platform /
      cells) — 0 means one platform dominates (no law), higher means the
      interaction decides.
    """
    winners = report.winners()
    if not winners:
        raise ValueError("empty benchmark report")
    rankings = {cell: tuple(report.ranking(*cell))
                for cell in report.cells()}
    winner_counts: dict[str, int] = {}
    for winner in winners.values():
        winner_counts[winner] = winner_counts.get(winner, 0) + 1
    top_wins = max(winner_counts.values())
    return {
        "n_cells": len(winners),
        "distinct_rankings": len(set(rankings.values())),
        "no_dominant_platform": top_wins < len(winners),
        "winner_counts": dict(sorted(winner_counts.items())),
        "interaction_strength": 1.0 - top_wins / len(winners),
    }


def hpad_analysis(report: BenchmarkReport) -> dict[str, object]:
    """The HPAD refinement ([106]): on heterogeneous hardware the 'H'
    dimension matters — heterogeneous platforms win only on the subset of
    (A, D) cells whose structure suits them, and can fail outright
    (device memory) elsewhere."""
    het = {"gpu", "hybrid-cpu-gpu"}
    winners = report.winners()
    het_wins = [cell for cell, w in winners.items() if w in het]
    het_failures = [r for r in report.failures() if r.platform in het]
    return {
        "het_win_cells": sorted(het_wins),
        "het_win_fraction": len(het_wins) / len(winners) if winners else 0.0,
        "het_failures": [(r.platform, r.algorithm, r.dataset)
                         for r in het_failures],
        "pad_only_special_case": 0.0 < (
            len(het_wins) / len(winners) if winners else 0.0) < 1.0,
    }
