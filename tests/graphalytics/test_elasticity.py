"""Tests for elastic graph processing ([111])."""

import pytest

from repro.graphalytics.elasticity import (
    CapacityPhase,
    DEFAULT_JOB,
    WorkPhase,
    elasticity_study,
    run_elastic,
)


def simple_job(work=1000.0, max_scale=4.0):
    return [WorkPhase("p", work=work, max_scale=max_scale)]


class TestRunElastic:
    def test_static_run_analytics(self):
        run = run_elastic(simple_job(1000.0, max_scale=4.0),
                          [CapacityPhase(0.0, 2.0)], base_rate=10.0)
        # rate = 10 × min(2, 4) = 20 -> 50 s; provisioned 2×50 = 100.
        assert run.makespan_s == pytest.approx(50.0)
        assert run.resource_seconds == pytest.approx(100.0)
        assert run.used_resource_seconds == pytest.approx(100.0)
        assert run.reconfigurations == 0

    def test_overprovisioned_capacity_is_wasted(self):
        run = run_elastic(simple_job(1000.0, max_scale=1.0),
                          [CapacityPhase(0.0, 4.0)], base_rate=10.0)
        # Useful scale capped at 1: rate 10, makespan 100 s; provisioned
        # 4×100 but used only 1×100.
        assert run.makespan_s == pytest.approx(100.0)
        assert run.resource_seconds == pytest.approx(400.0)
        assert run.efficiency == pytest.approx(0.25)

    def test_capacity_change_pays_penalty(self):
        run = run_elastic(
            simple_job(1000.0, max_scale=4.0),
            [CapacityPhase(0.0, 1.0), CapacityPhase(50.0, 4.0)],
            base_rate=10.0, reconfig_penalty_s=5.0)
        # 50 s at rate 10 clears 500; penalty 5 s; remaining 500 at
        # rate 40 -> 12.5 s.
        assert run.reconfigurations == 1
        assert run.makespan_s == pytest.approx(50 + 5 + 12.5)
        assert run.reconfiguration_time_s == 5.0

    def test_completion_before_change_skips_reconfig(self):
        run = run_elastic(simple_job(100.0, max_scale=2.0),
                          [CapacityPhase(0.0, 2.0),
                           CapacityPhase(10_000.0, 8.0)],
                          base_rate=10.0)
        assert run.reconfigurations == 0

    def test_zero_final_capacity_rejected(self):
        with pytest.raises(RuntimeError):
            run_elastic(simple_job(), [CapacityPhase(0.0, 0.0)],
                        base_rate=10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_elastic([], [CapacityPhase(0.0, 1.0)])
        with pytest.raises(ValueError):
            run_elastic(simple_job(), [CapacityPhase(5.0, 1.0)])
        with pytest.raises(ValueError):
            run_elastic(simple_job(), [CapacityPhase(0.0, -1.0)])
        with pytest.raises(ValueError):
            WorkPhase("bad", work=0, max_scale=1)

    def test_multi_phase_job_sequences(self):
        job = [WorkPhase("a", 100.0, 1.0), WorkPhase("b", 400.0, 4.0)]
        run = run_elastic(job, [CapacityPhase(0.0, 4.0)], base_rate=10.0)
        # a: rate 10 -> 10 s (capacity 4 wasted); b: rate 40 -> 10 s.
        assert run.makespan_s == pytest.approx(20.0)
        assert run.used_resource_seconds == pytest.approx(
            1 * 10 + 4 * 10)


class TestElasticityStudy:
    def test_the_111_shape(self):
        """Elastic: near static-large speed at near static-small cost."""
        study = elasticity_study()
        small = study["static-small"]
        large = study["static-large"]
        elastic = study["elastic"]
        assert large.makespan_s < small.makespan_s
        # Elastic is within 15% of static-large's makespan...
        assert elastic.makespan_s < large.makespan_s * 1.15
        # ...at less than half its provisioned footprint.
        assert elastic.resource_seconds < 0.5 * large.resource_seconds
        # Efficiency: elastic ~1, static-large well below.
        assert elastic.efficiency > 0.9
        assert large.efficiency < 0.6
        assert elastic.reconfigurations == len(DEFAULT_JOB) - 1

    def test_penalty_scales_overhead(self):
        cheap = elasticity_study(reconfig_penalty_s=1.0)["elastic"]
        costly = elasticity_study(reconfig_penalty_s=200.0)["elastic"]
        assert costly.reconfiguration_time_s > cheap.reconfiguration_time_s
        assert costly.makespan_s > cheap.makespan_s
