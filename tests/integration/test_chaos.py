"""Acceptance test for the fault-injection & resilience subsystem.

The contract: with faults on and resilience off, SLO attainment
measurably degrades; with retry (serverless) and requeue (scheduling) it
recovers to >= 95% of the fault-free baseline. Replay under a fixed seed
is checked by the rows of the table in ``test_determinism.py``.
"""

from repro.faults.chaos import run_scheduling_scenario, run_serverless_scenario

SEED = 7


class TestServerlessRecovery:
    def test_degradation_and_recovery(self):
        baseline = run_serverless_scenario(seed=SEED, error_rate=0.0)
        degraded = run_serverless_scenario(seed=SEED, error_rate=0.3,
                                           retry=False)
        recovered = run_serverless_scenario(seed=SEED, error_rate=0.3,
                                            retry=True)
        # Faults without a policy measurably hurt...
        assert degraded["slo_attainment"] <= 0.9 * baseline["slo_attainment"]
        # ...and retry+backoff buys the SLO back.
        assert (recovered["slo_attainment"]
                >= 0.95 * baseline["slo_attainment"])


class TestSchedulingRecovery:
    def test_degradation_and_recovery(self):
        baseline = run_scheduling_scenario(seed=SEED, mtbf_s=None)
        degraded = run_scheduling_scenario(seed=SEED, mtbf_s=400.0,
                                           requeue=False)
        recovered = run_scheduling_scenario(seed=SEED, mtbf_s=400.0,
                                            requeue=True)
        assert degraded["slo_attainment"] < baseline["slo_attainment"]
        assert (recovered["slo_attainment"]
                >= 0.95 * baseline["slo_attainment"])
        # The recovery is not free: restarts burn wasted core-seconds.
        assert recovered["wasted_core_s"] > 0
