"""Tests for datasets, platform models, and the PAD benchmark."""

import pytest

from repro.graphalytics import (
    DATASET_GENERATORS,
    PLATFORMS,
    dataset_properties,
    make_dataset,
    pad_interaction_analysis,
    run_benchmark,
)
from repro.graphalytics.benchmark import hpad_analysis
from repro.graphalytics.platforms import PhaseBreakdown, Platform
from repro.sim import RandomStreams


@pytest.fixture
def rng():
    return RandomStreams(seed=3).get("ga")


class TestDatasets:
    def test_all_families_generate(self, rng):
        for family in DATASET_GENERATORS:
            graph = make_dataset(family, 200, rng)
            assert graph.number_of_nodes() >= 100
            assert graph.number_of_edges() > 0

    def test_scale_free_is_skewed(self, rng):
        graph = make_dataset("scale-free", 2000, rng)
        props = dataset_properties("sf", graph)
        assert props.degree_skew > 10.0

    def test_road_is_regular(self, rng):
        graph = make_dataset("road", 2000, rng)
        props = dataset_properties("road", graph)
        assert props.degree_skew <= 10.0
        assert props.max_degree <= 4

    def test_small_world_is_clustered(self, rng):
        sw = dataset_properties(
            "sw", make_dataset("small-world", 1000, rng))
        er = dataset_properties(
            "er", make_dataset("random", 1000, rng))
        assert sw.clustering > 3 * er.clustering

    def test_weighted_datasets(self, rng):
        graph = make_dataset("random", 100, rng, weighted=True)
        u, v = next(iter(graph.edges))
        assert 1.0 <= graph[u][v]["weight"] <= 10.0

    def test_validation(self, rng):
        with pytest.raises(KeyError):
            make_dataset("hypercube", 100, rng)
        with pytest.raises(ValueError):
            make_dataset("road", 2, rng)


class TestPlatformModels:
    def test_phase_breakdown_total_and_bottleneck(self):
        breakdown = PhaseBreakdown(setup_s=1.0, load_s=2.0, compute_s=5.0)
        assert breakdown.total_s == 8.0
        assert breakdown.bottleneck() == "compute"

    def test_run_produces_correct_output(self, rng):
        graph = make_dataset("random", 200, rng, weighted=True)
        run = PLATFORMS["cpu-single"].run("wcc", graph, "random")
        assert not run.failed
        assert len(run.result) == graph.number_of_nodes()
        assert run.modeled_time_s > 0

    def test_gpu_memory_cap_fails_gracefully(self, rng):
        tiny_gpu = Platform("tiny-gpu", setup_s=1, load_per_edge_s=1e-7,
                            compute_per_edge_s=1e-9, per_iteration_s=0.01,
                            max_edges=10)
        graph = make_dataset("random", 200, rng)
        run = tiny_gpu.run("wcc", graph, "random")
        assert run.failed
        assert run.modeled_time_s == float("inf")
        assert "capacity" in run.failure_reason

    def test_skew_penalty_hits_gpu_on_scale_free(self, rng):
        sf = make_dataset("scale-free", 2000, rng)
        road = make_dataset("road", 2000, rng)
        gpu = PLATFORMS["gpu"]
        run_sf = gpu.run("pagerank", sf, "scale-free")
        run_road = gpu.run("pagerank", road, "road")
        # Per edge visited (barriers excluded), the skewed graph is more
        # expensive on the GPU's regular parallelism.
        per_iter = gpu.per_iteration_s
        per_edge_sf = ((run_sf.breakdown.compute_s
                        - run_sf.result.iterations * per_iter)
                       / run_sf.result.edges_visited)
        per_edge_road = ((run_road.breakdown.compute_s
                          - run_road.result.iterations * per_iter)
                         / run_road.result.edges_visited)
        assert per_edge_sf > per_edge_road

    def test_distributed_pays_iteration_barriers(self, rng):
        road = make_dataset("road", 2500, rng)  # high diameter
        dist = PLATFORMS["cpu-distributed"].run("bfs", road, "road")
        single = PLATFORMS["cpu-single"].run("bfs", road, "road")
        # Barrier cost makes distributed lose on deep BFS of small graphs.
        assert dist.modeled_time_s > single.modeled_time_s


class TestPADLaw:
    @pytest.fixture(scope="class")
    def report(self):
        return run_benchmark(n_vertices=1500, seed=7,
                             algorithms=("bfs", "pagerank", "wcc", "lcc"),
                             datasets=("scale-free", "road", "random"))

    def test_grid_complete(self, report):
        assert len(report.runs) == 4 * 4 * 3  # platforms × algos × datasets

    def test_pad_law_holds(self, report):
        """The core [105] finding: no platform dominates; rankings depend
        on the (algorithm, dataset) interaction."""
        analysis = pad_interaction_analysis(report)
        assert analysis["no_dominant_platform"]
        assert analysis["distinct_rankings"] > 1
        assert analysis["interaction_strength"] > 0

    def test_winner_counts_cover_cells(self, report):
        analysis = pad_interaction_analysis(report)
        assert sum(analysis["winner_counts"].values()) == (
            analysis["n_cells"])

    def test_hpad_heterogeneous_wins_are_partial(self, report):
        analysis = hpad_analysis(report)
        assert analysis["pad_only_special_case"]
        assert 0 < analysis["het_win_fraction"] < 1

    def test_rankings_are_permutations(self, report):
        for cell in report.cells():
            ranking = report.ranking(*cell)
            assert sorted(ranking) == sorted(PLATFORMS)

    def test_empty_report_rejected(self):
        from repro.graphalytics import BenchmarkReport
        with pytest.raises(ValueError):
            pad_interaction_analysis(BenchmarkReport())
