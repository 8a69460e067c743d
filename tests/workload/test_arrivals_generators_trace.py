"""Tests for arrival processes and workload generators."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.workload import (
    BagOfTasks,
    DiurnalArrivals,
    FlashcrowdArrivals,
    MapReduceJob,
    PoissonArrivals,
    Workflow,
    WORKLOAD_DOMAINS,
    generate_domain_workload,
    generate_workflow,
    generate_workflow_workload,
)


def interarrival_cv(times):
    """Coefficient of variation of the gaps between arrival times."""
    gaps = np.diff(np.sort(np.asarray(times, dtype=float)))
    return float(gaps.std(ddof=1) / gaps.mean())


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
