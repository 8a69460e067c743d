"""Tests for arrival processes, workload generators, and the trace archive."""

import pytest

from repro.sim import RandomStreams
from repro.workload import (
    BagOfTasks,
    DiurnalArrivals,
    FlashcrowdArrivals,
    MapReduceJob,
    PoissonArrivals,
    TraceArchive,
    TraceArrivals,
    Workflow,
    WORKLOAD_DOMAINS,
    generate_domain_workload,
    generate_workflow,
    generate_workflow_workload,
)
from repro.workload.arrivals import interarrival_cv


@pytest.fixture
def rng():
    return RandomStreams(seed=7).get("test")


class TestArrivals:
    def test_poisson_rate_approximately_respected(self, rng):
        times = list(PoissonArrivals(rate=0.1, rng=rng).times(100_000))
        assert 8_000 < len(times) < 12_000

    def test_poisson_times_increasing_below_horizon(self, rng):
        times = list(PoissonArrivals(rate=1.0, rng=rng).times(100))
        assert times == sorted(times)
        assert all(t < 100 for t in times)

    def test_poisson_cv_near_one(self, rng):
        times = list(PoissonArrivals(rate=1.0, rng=rng).times(5_000))
        assert 0.9 < interarrival_cv(times) < 1.1

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0, rng=rng)

    def test_diurnal_peaks_beat_troughs(self, rng):
        proc = DiurnalArrivals(base_rate=0.01, rng=rng, amplitude=0.9)
        times = list(proc.times(7 * 86400))
        # Peak quarter of the day (sin≈1 around t=period/4) vs trough quarter.
        day = 86400
        peak = sum(1 for t in times if (t % day) < day / 2)
        trough = sum(1 for t in times if (t % day) >= day / 2)
        assert peak > 1.5 * trough

    def test_diurnal_amplitude_validation(self, rng):
        with pytest.raises(ValueError):
            DiurnalArrivals(base_rate=1, rng=rng, amplitude=1.5)

    def test_flashcrowd_burst_raises_rate(self, rng):
        proc = FlashcrowdArrivals(base_rate=0.01, rng=rng,
                                  burst_times=[10_000],
                                  burst_factor=50, burst_decay_s=2000)
        times = list(proc.times(20_000))
        before = sum(1 for t in times if t < 10_000)
        after = sum(1 for t in times if 10_000 <= t < 12_000)
        # 2000 s of flashcrowd should out-arrive the 10000 s before it.
        assert after > before

    def test_flashcrowd_detector(self, rng):
        proc = FlashcrowdArrivals(base_rate=1.0, rng=rng, burst_times=[100],
                                  burst_factor=50, burst_decay_s=500)
        assert not proc.is_flashcrowd_at(50)
        assert proc.is_flashcrowd_at(101)
        assert not proc.is_flashcrowd_at(100_000)

    def test_flashcrowd_cv_exceeds_poisson(self, rng):
        base = list(PoissonArrivals(rate=0.05, rng=rng).times(50_000))
        fc = list(FlashcrowdArrivals(
            base_rate=0.05, rng=rng, burst_times=[20_000], burst_factor=80,
            burst_decay_s=1000).times(50_000))
        assert interarrival_cv(fc) > interarrival_cv(base)

    def test_trace_arrivals_replay(self):
        proc = TraceArrivals([5.0, 1.0, 9.0])
        assert list(proc.times(8)) == [1.0, 5.0]

    def test_count(self, rng):
        proc = TraceArrivals([1, 2, 3])
        assert proc.count(10) == 3


class TestGenerators:
    def test_all_domains_generate(self, rng):
        for domain in WORKLOAD_DOMAINS:
            jobs = generate_domain_workload(rng, domain, n_jobs=10,
                                            horizon_s=10 * 86400)
            assert jobs, f"domain {domain} generated nothing"
            assert all(isinstance(j, (BagOfTasks, Workflow)) for j in jobs)

    def test_unknown_domain_rejected(self, rng):
        with pytest.raises(KeyError):
            generate_domain_workload(rng, "nope")

    def test_domain_workload_submit_times_increase(self, rng):
        jobs = generate_domain_workload(rng, "synthetic", n_jobs=20)
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_bigdata_contains_mapreduce(self, rng):
        jobs = generate_domain_workload(rng, "bigdata", n_jobs=12,
                                        horizon_s=30 * 86400)
        assert any(isinstance(j, MapReduceJob) for j in jobs)

    def test_workflow_shapes(self, rng):
        chain = generate_workflow(rng, n_tasks=5, shape="chain")
        assert chain.critical_path_work() == sum(
            t.work for t in chain.tasks)
        fj = generate_workflow(rng, n_tasks=6, shape="fork-join")
        assert len(fj.ready_tasks()) == 1  # single head
        rand = generate_workflow(rng, n_tasks=25, shape="random")
        assert len(rand) == 25

    def test_unknown_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_workflow(rng, shape="star-of-david")

    def test_workflow_workload_sizes(self, rng):
        wfs = generate_workflow_workload(rng, n_workflows=8,
                                         horizon_s=30 * 86400)
        assert len(wfs) == 8
        assert all(len(wf) >= 2 for wf in wfs)

    def test_estimates_bounded_by_error_factor(self, rng):
        spec = WORKLOAD_DOMAINS["scientific"]
        jobs = generate_domain_workload(rng, "scientific", n_jobs=10,
                                        horizon_s=30 * 86400)
        for job in jobs:
            for task in job.tasks:
                assert task.work <= task.runtime_estimate <= (
                    task.work * spec.estimate_error * 1.0001)


class TestTraceArchive:
    def test_roundtrip(self, tmp_path):
        archive = TraceArchive("p2p-2010", domain="p2p",
                               instrument="btworld",
                               provenance="simulated global monitor")
        archive.add(0.0, "peer_join", "peer-1", swarm="s1")
        archive.add(5.0, "piece_complete", "peer-1", piece=3)
        path = archive.save(tmp_path / "trace.jsonl")
        loaded = TraceArchive.load(path)
        assert loaded.name == "p2p-2010"
        assert len(loaded) == 2
        assert loaded.records[1].attributes == {"piece": 3}

    def test_kind_filtering_and_window(self):
        archive = TraceArchive("t", domain="test")
        for i in range(10):
            archive.add(float(i), "a" if i % 2 == 0 else "b")
        assert len(archive.of_kind("a")) == 5
        assert archive.kinds() == {"a", "b"}
        assert len(archive.window(2, 6)) == 4
        assert archive.time_range() == (0.0, 9.0)

    def test_empty_time_range_raises(self):
        with pytest.raises(ValueError):
            TraceArchive("t", domain="x").time_range()

    def test_truncated_file_detected(self, tmp_path):
        archive = TraceArchive("t", domain="x")
        archive.add(1.0, "e")
        archive.add(2.0, "e")
        path = archive.save(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            TraceArchive.load(path)

    def test_records_saved_sorted_by_time(self, tmp_path):
        archive = TraceArchive("t", domain="x")
        archive.add(5.0, "late")
        archive.add(1.0, "early")
        loaded = TraceArchive.load(archive.save(tmp_path / "t.jsonl"))
        assert [r.kind for r in loaded.records] == ["early", "late"]
