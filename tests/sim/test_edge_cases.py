"""Edge-case tests for kernel and cluster paths not covered elsewhere."""

import pytest

from repro.cluster import Cloud, VMState
from repro.cluster.cost import CostModel
from repro.sim import AnyOf, Environment, Resource


class TestEventTrigger:
    def test_trigger_copies_another_events_state(self):
        env = Environment()
        source = env.event()
        mirror = env.event()
        results = []

        def waiter(env, ev):
            results.append((yield ev))

        env.process(waiter(env, mirror))

        def driver(env):
            yield env.timeout(1)
            source.succeed("payload")
            yield env.timeout(1)
            mirror.trigger(source)

        env.process(driver(env))
        env.run()
        assert results == ["payload"]


class TestConditionFailure:
    def test_all_of_fails_when_member_fails(self):
        env = Environment()
        caught = []

        def failing(env):
            yield env.timeout(1)
            raise ValueError("member died")

        def waiter(env, proc):
            try:
                yield proc & env.timeout(100)
            except ValueError as err:
                caught.append(str(err))

        proc = env.process(failing(env))
        env.process(waiter(env, proc))
        env.run()
        assert caught == ["member died"]

    def test_any_of_fails_fast_on_failure(self):
        env = Environment()
        caught = []

        def failing(env):
            yield env.timeout(1)
            raise KeyError("boom")

        def waiter(env, proc):
            try:
                yield AnyOf(env, [proc, env.timeout(100)])
            except KeyError:
                caught.append(env.now)

        proc = env.process(failing(env))
        env.process(waiter(env, proc))
        env.run()
        assert caught == [1]


class TestCloudEdgeCases:
    def test_terminate_while_booting(self):
        env = Environment()
        cloud = Cloud(env, provisioning_delay_s=100,
                      deprovisioning_delay_s=0)

        def scenario(env, cloud):
            req = cloud.provision()
            yield env.timeout(10)
            cloud.terminate(req.vm)  # killed mid-boot
            vm = yield req.event
            assert vm.state is VMState.TERMINATED

        env.run(until=env.process(scenario(env, cloud)))
        assert len(cloud.billed_intervals) == 1
        start, stop = cloud.billed_intervals[0]
        assert stop - start == pytest.approx(10.0)

    def test_terminate_busy_vm_rejected(self):
        env = Environment()
        cloud = Cloud(env, provisioning_delay_s=1)

        def scenario(env, cloud):
            req = cloud.provision()
            vm = yield req.event
            vm.machine.allocate(1)
            with pytest.raises(RuntimeError):
                cloud.terminate(vm)
            vm.machine.release(1)
            cloud.terminate(vm)

        env.run(until=env.process(scenario(env, cloud)))


class TestCostModelEdgeCases:
    def test_zero_granularity_is_continuous(self):
        model = CostModel("continuous", price_per_hour=3600.0,
                          billing_granularity_s=0.0)
        assert model.charge(1.0) == pytest.approx(1.0)
        assert model.charge(0.5) == pytest.approx(0.5)

    def test_minimum_charge_dominates_short_runs(self):
        model = CostModel("min60", price_per_hour=3600.0,
                          billing_granularity_s=0.0,
                          minimum_charge_s=60.0)
        assert model.charge(1.0) == pytest.approx(60.0)
        assert model.charge(120.0) == pytest.approx(120.0)


class TestResourceQueueIntrospection:
    def test_queue_contents_visible(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def waiter(env):
            yield env.timeout(1)
            with res.request() as req:
                yield req

        env.process(holder(env))
        env.process(waiter(env))

        def checker(env):
            yield env.timeout(2)
            assert len(res.queue) == 1
            assert res.count == 1

        env.process(checker(env))
        env.run()
