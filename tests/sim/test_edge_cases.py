"""Edge-case tests for kernel paths not covered elsewhere."""

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
