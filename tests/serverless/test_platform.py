"""Tests for the FaaS platform."""

import pytest

from repro.serverless import FaaSPlatform, FunctionSpec, PlatformConfig
from repro.sim import Environment


def make_platform(env, **config_kwargs):
    platform = FaaSPlatform(env, PlatformConfig(**config_kwargs))
    platform.deploy(FunctionSpec("f", runtime_s=0.2, memory_gb=0.5))
    return platform


class TestFunctionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec("f", runtime_s=0)
        with pytest.raises(ValueError):
            FunctionSpec("f", runtime_s=1, memory_gb=0)


class TestPlatformConfig:
    @pytest.mark.parametrize("kwargs", [
        {"cold_start_s": -1.0},
        {"cold_start_s": float("nan")},
        {"keep_alive_s": -1.0},
        {"keep_alive_s": float("nan")},
        {"price_per_gb_s": -0.1},
        {"price_per_gb_s": float("nan")},
        {"concurrency_limit": 0},
        {"prewarmed": -2},
        {"concurrency_limit": 1, "prewarmed": 3},
        {"queue_capacity": -3},
    ])
    def test_rejects_values_that_hang_or_break_the_cap(self, kwargs):
        with pytest.raises(ValueError):
            PlatformConfig(**kwargs)


class TestLifecycle:
    def test_deploy_undeploy(self):
        env = Environment()
        platform = make_platform(env)
        assert "f" in platform.functions
        with pytest.raises(ValueError):
            platform.deploy(FunctionSpec("f", runtime_s=1))

    def test_invoke_unknown_function(self):
        env = Environment()
        platform = FaaSPlatform(env)
        with pytest.raises(KeyError):
            platform.invoke("ghost")


class TestColdWarm:
    def test_first_invocation_is_cold(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=2.0)
        results = {}

        def scenario(env, platform):
            inv = yield platform.invoke("f")
            results["first"] = inv
            inv = yield platform.invoke("f")
            results["second"] = inv

        env.run(until=env.process(scenario(env, platform)))
        assert results["first"].cold
        assert not results["second"].cold
        assert results["first"].latency == pytest.approx(2.2)
        assert results["second"].latency == pytest.approx(0.2)

    def test_concurrent_burst_spawns_instances(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=1.0)

        def scenario(env, platform):
            events = [platform.invoke("f") for _ in range(5)]
            for ev in events:
                yield ev

        env.run(until=env.process(scenario(env, platform)))
        assert platform.pool_size("f") == 5
        assert platform.cold_start_fraction("f") == 1.0

    def test_prewarming_removes_cold_starts(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=2.0, prewarmed=3)

        def scenario(env, platform):
            events = [platform.invoke("f") for _ in range(3)]
            for ev in events:
                inv = yield ev
                assert not inv.cold

        env.run(until=env.process(scenario(env, platform)))
        assert platform.cold_start_fraction() == 0.0

    def test_keep_alive_reaps_idle_instances(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=1.0, keep_alive_s=60.0)

        def scenario(env, platform):
            yield platform.invoke("f")
            assert platform.pool_size("f") == 1
            yield env.timeout(300)
            # Instance reaped; next call is cold again.
            inv = yield platform.invoke("f")
            assert inv.cold

        env.run(until=env.process(scenario(env, platform)))

    def test_warm_within_keep_alive(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=1.0, keep_alive_s=600.0)

        def scenario(env, platform):
            yield platform.invoke("f")
            yield env.timeout(120)
            inv = yield platform.invoke("f")
            assert not inv.cold

        env.run(until=env.process(scenario(env, platform)))


class TestConcurrencyLimit:
    def test_over_limit_rejected(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=0.5,
                                 concurrency_limit=2)
        rejected = []

        def scenario(env, platform):
            events = [platform.invoke("f") for _ in range(4)]
            for ev in events:
                inv = yield ev
                if inv.rejected:
                    rejected.append(inv)

        env.run(until=env.process(scenario(env, platform)))
        assert len(rejected) == 2
        assert platform.monitor.counters["rejections"].total == 2


class TestBilling:
    def test_pay_only_for_runtime(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=3.0,
                                 bill_cold_start=False)

        def scenario(env, platform):
            yield platform.invoke("f")

        env.run(until=env.process(scenario(env, platform)))
        # runtime 0.2 s × 0.5 GB.
        assert platform.billed_gb_s == pytest.approx(0.1)
        assert platform.cost() == pytest.approx(
            0.1 * platform.config.price_per_gb_s)

    def test_cold_start_billing_toggle(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=3.0,
                                 bill_cold_start=True)

        def scenario(env, platform):
            yield platform.invoke("f")

        env.run(until=env.process(scenario(env, platform)))
        assert platform.billed_gb_s == pytest.approx((0.2 + 3.0) * 0.5)

    def test_idle_capacity_is_providers_cost_not_customers(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=1.0, keep_alive_s=100.0)

        def scenario(env, platform):
            yield platform.invoke("f")
            yield env.timeout(50)
            yield platform.invoke("f")

        env.run(until=env.process(scenario(env, platform)))
        customer = platform.billed_gb_s
        assert customer == pytest.approx(2 * 0.2 * 0.5)
        assert platform.idle_gb_s > 0  # the provider's keep-alive burn


class TestBoundedQueueing:
    def test_queue_holds_overflow_until_capacity_frees(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=0.0,
                                 concurrency_limit=2, queue_capacity=4)
        outcomes = []

        def scenario(env, platform):
            events = [platform.invoke("f") for _ in range(4)]
            for ev in events:
                inv = yield ev
                outcomes.append(inv)

        env.run(until=env.process(scenario(env, platform)))
        # With a queue, nothing is rejected: the two overflow invocations
        # wait for instances instead.
        assert all(not i.rejected and not i.shed for i in outcomes)
        assert len(platform.completed("f")) == 4
        waits = sorted(i.start_time - i.submit_time for i in outcomes)
        assert waits[:2] == [0.0, 0.0]
        assert all(w > 0 for w in waits[2:])

    def test_queue_overflow_is_rejected_not_unbounded(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=0.0,
                                 concurrency_limit=1, queue_capacity=2)

        def scenario(env, platform):
            events = [platform.invoke("f") for _ in range(5)]
            invs = []
            for ev in events:
                invs.append((yield ev))
            return invs

        invs = env.run(until=env.process(scenario(env, platform)))
        rejected = [i for i in invs if i.rejected]
        assert len(rejected) == 2  # 1 running + 2 queued + 2 overflow
        assert len(platform.completed("f")) == 3

    def test_zero_capacity_keeps_historical_reject(self):
        env = Environment()
        platform = make_platform(env, cold_start_s=0.5, concurrency_limit=2)
        assert platform.pressure("f") == 0.0

        def scenario(env, platform):
            events = [platform.invoke("f") for _ in range(3)]
            invs = []
            for ev in events:
                invs.append((yield ev))
            return invs

        invs = env.run(until=env.process(scenario(env, platform)))
        assert sum(1 for i in invs if i.rejected) == 1


class TestShedAccounting:
    def _platform_with_admitter(self, env, rate_per_s=1.0, burst=2.0):
        from repro.resilience import TokenBucketAdmitter
        platform = FaaSPlatform(
            env, PlatformConfig(cold_start_s=0.0),
            admitter=TokenBucketAdmitter(env, rate_per_s=rate_per_s,
                                         burst=burst))
        platform.deploy(FunctionSpec("f", runtime_s=0.2, memory_gb=0.5))
        return platform

    def test_shed_invocations_resolve_immediately_and_count(self):
        env = Environment()
        platform = self._platform_with_admitter(env, burst=2.0)

        def scenario(env, platform):
            invs = []
            for _ in range(4):  # all at t=0: 2 admitted, 2 shed
                invs.append((yield platform.invoke("f")))
            return invs

        invs = env.run(until=env.process(scenario(env, platform)))
        shed = [i for i in invs if i.shed]
        assert len(shed) == 2
        # A shed invocation resolves instantly, was never started, and
        # costs nothing.
        assert all(i.start_time is None and i.finish_time is None
                   for i in shed)
        assert platform.shed("f") == shed
        assert platform.shed_fraction("f") == pytest.approx(0.5)
        assert platform.monitor.counters["shed"].total == 2

    def test_sheds_count_against_availability_and_slo(self):
        env = Environment()
        platform = self._platform_with_admitter(env, burst=2.0)

        def scenario(env, platform):
            for _ in range(4):
                yield platform.invoke("f")

        env.run(until=env.process(scenario(env, platform)))
        assert platform.failure_fraction("f") == pytest.approx(0.5)
        assert platform.slo_attainment(10.0, "f") == pytest.approx(0.5)
        # Sheds never ran, so they can't skew the cold-start ratio.
        assert platform.cold_start_fraction("f") == pytest.approx(0.5)

    def test_brownout_critical_sheds_everything(self):
        from repro.resilience import BrownoutController, ServiceMode
        env = Environment()
        controller = BrownoutController(degraded_enter=0.5,
                                        degraded_exit=0.4,
                                        critical_enter=0.9,
                                        critical_exit=0.5)
        platform = FaaSPlatform(
            env, PlatformConfig(cold_start_s=0.0, concurrency_limit=1),
            brownout=controller)
        platform.deploy(FunctionSpec("f", runtime_s=0.2, memory_gb=0.5))

        def scenario(env, platform):
            first = platform.invoke("f")
            yield env.timeout(0.1)  # let it occupy the only instance
            # The running invocation saturates the limit: pressure 1.0
            # puts the controller in CRITICAL, shedding the newcomer.
            second = yield platform.invoke("f")
            assert second.shed
            assert controller.mode is ServiceMode.CRITICAL
            yield first

        env.run(until=env.process(scenario(env, platform)))
