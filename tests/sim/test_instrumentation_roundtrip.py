"""Regression tests for choosing the dispatch tier.

The run loop dispatches through a zero-overhead fast path when no
tracer, profiler, debug mode, or scheduling hook is installed, and
routes through the instrumented :meth:`Environment.step` otherwise. The
tier is chosen once per :meth:`Environment.run`, at entry. These tests
pin what each hook sees: a hook installed before a run sees every
dispatch of it, an environment built outside a ``traced``/``profiled``
block feeds that block's hook nothing, and a tracer added during a
fast-tier run waits for the next ``run()``.
"""

from __future__ import annotations

import pytest

from repro.observability import SimProfiler
from repro.sim import Environment


def drain(env, horizon=5.0):
    def body():
        while True:
            yield 1.0

    env.ticker(body())
    env.run(until=horizon)


@pytest.fixture
def steps(monkeypatch):
    """Counts dispatches routed through :meth:`Environment.step`."""
    calls = []
    step = Environment.step

    def counting(env):
        calls.append(env.now)
        step(env)

    monkeypatch.setattr(Environment, "step", counting)
    return calls


def test_fresh_environment_is_uninstrumented(steps):
    env = Environment()
    drain(env)
    assert env.dispatch_count == 5
    assert steps == []  # every dispatch took the fast tier


def test_debug_constructor_flag_instruments(steps):
    env = Environment(debug=True)
    drain(env)
    assert len(steps) == env.dispatch_count == 5


def test_traced_block_round_trip():
    events = []
    with Environment.traced(lambda t, eid, kind: events.append(kind)):
        env = Environment()
        drain(env)
    # The block's environment fed the tracer every dispatch...
    assert len(events) == env.dispatch_count == 5
    # ...and one created after the block feeds it nothing.
    after = Environment()
    drain(after)
    assert len(events) == 5
    assert Environment._default_tracers == ()


def test_nested_traced_blocks_stack_and_unwind():
    outer, inner = [], []
    with Environment.traced(lambda t, eid, kind: outer.append(kind)):
        with Environment.traced(lambda t, eid, kind: inner.append(kind)):
            env = Environment()
            assert len(env._tracers) == 2
            drain(env)
        assert len(Environment._default_tracers) == 1
    assert Environment._default_tracers == ()
    assert outer == inner  # both hooks saw the same dispatch stream


def test_profiled_block_round_trip():
    with Environment.profiled(SimProfiler()) as prof:
        env = Environment()
        drain(env)
    assert Environment._default_profiler is None
    assert prof.dispatches == env.dispatch_count == 5
    drain(Environment())
    assert prof.dispatches == 5


def test_tracer_added_during_a_fast_run_waits_for_the_next_run():
    env = Environment()
    seen = []
    times = []

    def work():
        for _ in range(6):
            yield 1.0
            times.append(env.now)

    def installer():
        yield env.timeout(2.5)
        env.add_tracer(lambda t, eid, kind: seen.append(t))

    env.ticker(work())
    env.process(installer())
    env.run(until=4.0)
    assert seen == []  # none of the fast run's dispatches
    before = env.dispatch_count
    env.run()
    assert len(seen) == env.dispatch_count - before
    assert seen[:2] == [4.0, 5.0]
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
