"""Tests for the simulation environment and run loop."""

import pytest

from repro.sim import Environment, Event, StopSimulation, time_eq


def test_clock_starts_at_zero():
    env = Environment()
    assert time_eq(env.now, 0.0)


def test_clock_custom_initial_time():
    env = Environment(initial_time=100.0)
    assert time_eq(env.now, 100.0)


def test_run_until_time_advances_clock():
    env = Environment()
    env.run(until=10)
    assert time_eq(env.now, 10)


def test_run_until_past_time_raises():
    env = Environment(initial_time=5)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_timeout_fires_at_delay():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(3)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [3]


def test_zero_delay_timeout_fires_at_now():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(0)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [0]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_dispatch_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 5, "b"))
    env.process(proc(env, 1, "a"))
    env.process(proc(env, 9, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert time_eq(env.now, 2)


def test_run_until_untriggerable_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        env.run(until=ev)


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 42

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == 42


def test_peek_empty_queue_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_step_on_empty_queue_raises():
    from repro.sim.environment import EmptySchedule
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_handled_process_failure_does_not_propagate():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter(env, target):
        try:
            yield target
        except ValueError as err:
            caught.append(str(err))

    target = env.process(bad(env))
    env.process(waiter(env, target))
    env.run()
    assert caught == ["boom"]


def test_nested_process_spawning():
    env = Environment()
    results = []

    def child(env, n):
        yield env.timeout(n)
        return n * 2

    def parent(env):
        value = yield env.process(child(env, 3))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == [6]


def test_yield_non_event_crashes_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_process_that_catches_the_non_event_error_yields_on():
    # The non-event error is thrown in like a failed event's: a process
    # that catches it waits on its next yield and finishes normally.
    env = Environment()
    seen = []

    def stubborn(env):
        try:
            yield 42
        except RuntimeError as err:
            seen.append(("caught", str(err).split(";")[0], env.now))
        yield env.timeout(1)
        return "done"

    def joiner(env, proc):
        seen.append(("joined", (yield proc), env.now))

    proc = env.process(stubborn(env))
    env.process(joiner(env, proc))
    env.run()
    assert seen == [("caught", "process yielded a non-event (int)", 0.0),
                    ("joined", "done", 1.0)]
    assert not proc.is_alive and proc.ok and proc.value == "done"


def test_many_processes_deterministic():
    def run_once():
        env = Environment()
        order = []

        def proc(env, i):
            yield env.timeout(i % 7)
            order.append(i)
            yield env.timeout((i * 3) % 5)
            order.append(-i)

        for i in range(50):
            env.process(proc(env, i))
        env.run()
        return order

    assert run_once() == run_once()
