"""Platform performance models with distinct cost profiles.

Each platform *really runs* the kernel (over networkx) for correct output,
then models the runtime from the kernel's work accounting and the
dataset's structure. The profiles are stylized from the paper's studies:

- ``cpu-single``: no distribution overhead, but no parallelism — wins on
  small graphs;
- ``cpu-distributed``: parallel edge processing but a per-iteration
  synchronization barrier — loses on high-diameter/iterative workloads;
- ``gpu``: an order of magnitude faster per edge, but degree skew breaks
  its regular parallelism ([109]) and device memory caps the graph size;
- ``hybrid-cpu-gpu``: the heterogeneous platform of [110]/[106] — between
  the two, with a milder skew penalty.

Because each profile is sensitive to a different dataset/algorithm
property, platform rankings flip across the PAD grid — the PAD law.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import networkx as nx

from repro.graphalytics.algorithms import AlgorithmResult, run_algorithm
from repro.graphalytics.datasets import DatasetProperties, dataset_properties


@dataclass
class PhaseBreakdown:
    """Granula-style phase decomposition of one run ([100])."""

    setup_s: float
    load_s: float
    compute_s: float

    @property
    def total_s(self) -> float:
        return self.setup_s + self.load_s + self.compute_s

    def bottleneck(self) -> str:
        """Grade10-style attribution: the dominating phase."""
        phases = {"setup": self.setup_s, "load": self.load_s,
                  "compute": self.compute_s}
        return max(sorted(phases), key=lambda k: phases[k])


@dataclass
class PlatformRun:
    """One (platform, algorithm, dataset) cell of the benchmark."""

    platform: str
    algorithm: str
    dataset: str
    modeled_time_s: float
    breakdown: PhaseBreakdown
    result: AlgorithmResult
    wall_clock_s: float = 0.0
    failed: bool = False
    failure_reason: str = ""


@dataclass(frozen=True)
class Platform:
    """A platform's cost profile (seconds per unit of work)."""

    name: str
    setup_s: float               # job submission / JVM / kernel launch
    load_per_edge_s: float       # graph ingest
    compute_per_edge_s: float    # per edge visit
    per_iteration_s: float       # per-superstep barrier
    #: Skew penalty: compute cost multiplied by (1 + skew_factor × skew/100).
    skew_factor: float = 0.0
    #: Maximum edges that fit (None = unbounded).
    max_edges: Optional[int] = None

    def model_time(self, props: DatasetProperties,
                   result: AlgorithmResult,
                   work_scale: float = 1.0) -> PhaseBreakdown:
        """Model the runtime.

        ``work_scale`` treats the measured graph as a 1/work_scale sample
        of the real dataset: edge work and memory footprint scale up,
        iteration counts (diameter-driven) do not — the standard
        sample-then-extrapolate calibration of simulation-based
        benchmarking (Challenge C3).
        """
        scaled_edges = props.n_edges * work_scale
        if self.max_edges is not None and scaled_edges > self.max_edges:
            raise MemoryError(
                f"{self.name}: graph of {scaled_edges:.0f} edges exceeds "
                f"device capacity {self.max_edges}")
        skew_penalty = 1.0 + self.skew_factor * props.degree_skew / 100.0
        compute = (result.edges_visited * work_scale
                   * self.compute_per_edge_s * skew_penalty
                   + result.iterations * self.per_iteration_s)
        return PhaseBreakdown(
            setup_s=self.setup_s,
            load_s=scaled_edges * self.load_per_edge_s,
            compute_s=compute,
        )

    def run(self, algorithm: str, graph: nx.Graph, dataset_name: str,
            work_scale: float = 1.0) -> PlatformRun:
        """Execute the kernel and model the platform's runtime."""
        props = dataset_properties(dataset_name, graph)
        # Wall clock is deliberate here: it measures the *real* networkx
        # kernel execution for the diagnostic `wall_clock_s` field and
        # never feeds modeled (sim) time.
        t0 = time.perf_counter()  # simlint: disable=SL002
        result = run_algorithm(algorithm, graph)
        wall = time.perf_counter() - t0  # simlint: disable=SL002
        try:
            breakdown = self.model_time(props, result, work_scale)
        except MemoryError as err:
            return PlatformRun(
                platform=self.name, algorithm=algorithm,
                dataset=dataset_name, modeled_time_s=float("inf"),
                breakdown=PhaseBreakdown(0, 0, 0), result=result,
                wall_clock_s=wall, failed=True, failure_reason=str(err))
        return PlatformRun(
            platform=self.name, algorithm=algorithm, dataset=dataset_name,
            modeled_time_s=breakdown.total_s, breakdown=breakdown,
            result=result, wall_clock_s=wall)


#: The benchmark's platform roster.
PLATFORMS: dict[str, Platform] = {p.name: p for p in [
    Platform("cpu-single", setup_s=0.5,
             load_per_edge_s=4e-7, compute_per_edge_s=2.5e-7,
             per_iteration_s=0.0005, skew_factor=0.0),
    Platform("cpu-distributed", setup_s=8.0,
             load_per_edge_s=1.5e-7, compute_per_edge_s=3e-8,
             per_iteration_s=0.35, skew_factor=2.0),
    Platform("gpu", setup_s=2.0,
             load_per_edge_s=2.5e-7, compute_per_edge_s=4e-9,
             per_iteration_s=0.01, skew_factor=300.0,
             max_edges=2_000_000),
    Platform("hybrid-cpu-gpu", setup_s=4.0,
             load_per_edge_s=2e-7, compute_per_edge_s=1.2e-8,
             per_iteration_s=0.08, skew_factor=15.0),
]}
