"""Tests for failure injection and post-crash releases."""

import pytest

from repro.cluster import Cluster, FailureInjector
from repro.cluster.machine import Machine
from repro.sim import Environment, Monitor, RandomStreams


class TestFailureInjector:
    def test_failures_and_repairs_happen(self):
        env = Environment()
        cluster = Cluster.homogeneous("c", 20, cores=4)
        rng = RandomStreams(seed=1).get("failures")
        mon = Monitor(env)
        injector = FailureInjector(env, cluster, rng, mtbf_s=100.0,
                                   mttr_s=20.0, monitor=mon)
        env.run(until=2000)
        assert injector.failures > 0
        assert injector.repairs > 0
        assert 0 < len(cluster.up_machines()) <= len(cluster.machines)
        assert mon.counters["machine_failures"].total == injector.failures

    def test_on_failure_callback_invoked(self):
        env = Environment()
        cluster = Cluster.homogeneous("c", 5)
        rng = RandomStreams(seed=2).get("failures")
        victims = []
        FailureInjector(env, cluster, rng, mtbf_s=50.0, mttr_s=10.0,
                        on_failure=victims.append)
        env.run(until=500)
        assert victims, "expected at least one failure in 10×MTBF"

    def test_invalid_params_rejected(self):
        env = Environment()
        cluster = Cluster.homogeneous("c", 1)
        rng = RandomStreams().get("f")
        with pytest.raises(ValueError):
            FailureInjector(env, cluster, rng, mtbf_s=0)

    def test_repaired_machine_is_clean(self):
        env = Environment()
        cluster = Cluster.homogeneous("c", 3, cores=4)
        rng = RandomStreams(seed=3).get("failures")
        injector = FailureInjector(env, cluster, rng, mtbf_s=30.0, mttr_s=5.0)
        env.run(until=1000)
        for machine in cluster.up_machines():
            assert machine.used_cores == 0
        assert injector.repairs > 0

    def test_crash_wipes_allocations_at_failure_time(self):
        """Allocations vanish when the machine goes DOWN, not on repair."""
        env = Environment()
        cluster = Cluster.homogeneous("c", 1, cores=4)
        machine = cluster.machines[0]
        machine.allocate(3, 8.0)
        rng = RandomStreams(seed=8).get("failures")
        seen = {}
        FailureInjector(env, cluster, rng, mtbf_s=20.0, mttr_s=1e9,
                        on_failure=lambda m: seen.setdefault(
                            "used_at_failure", m.used_cores))
        env.run(until=500)
        assert seen["used_at_failure"] == 0

    def test_empirical_availability_matches_mtbf_over_mtbf_plus_mttr(self):
        """The injector's realized availability ≈ MTBF / (MTBF + MTTR)."""
        env = Environment()
        cluster = Cluster.homogeneous("c", 30, cores=4)
        rng = RandomStreams(seed=11).get("failures")
        injector = FailureInjector(env, cluster, rng,
                                   mtbf_s=100.0, mttr_s=25.0)
        env.run(until=4000)
        assert injector.expected_availability == pytest.approx(0.8)
        assert injector.empirical_availability() == pytest.approx(
            injector.expected_availability, abs=0.05)


class TestPostCrashRelease:
    """Regression: a release() for a task that died mid-crash must not
    double-free or drive the machine's counters negative."""

    def test_stale_release_is_ignored(self):
        machine = Machine("m", cores=4, memory_gb=16.0)
        machine.allocate(2, 4.0)
        incarnation = machine.incarnation
        machine.fail()
        assert machine.used_cores == 0
        machine.repair()
        machine.allocate(3, 8.0)  # a new tenant after repair
        # The pre-crash task's release is stale: recognized and dropped.
        assert machine.release(2, 4.0, incarnation=incarnation) is False
        assert machine.used_cores == 3
        assert machine.used_memory_gb == 8.0

    def test_current_incarnation_release_is_accounted(self):
        machine = Machine("m", cores=4)
        machine.allocate(2, 4.0)
        assert machine.release(2, 4.0,
                               incarnation=machine.incarnation) is True
        assert machine.used_cores == 0

    def test_genuine_over_release_still_raises(self):
        machine = Machine("m", cores=4)
        machine.allocate(1)
        with pytest.raises(RuntimeError):
            machine.release(2, incarnation=machine.incarnation)

    def test_release_requires_the_incarnation(self):
        machine = Machine("m", cores=4)
        machine.allocate(1)
        with pytest.raises(TypeError):
            machine.release(1)
        assert machine.used_cores == 1
