"""Semantics of :class:`repro.sim.Ticker`, the timeout fast path.

Tickers are the kernel's batched/lazy timeout mechanism: pure-delay
processes whose ticks are dispatched from packed heap entries without
creating per-tick :class:`Timeout` events. These tests pin down the
contract the speed rearchitecture must preserve — tick times bit-identical
to the equivalent timeout chain, dispatch accounting, spawn-order
tie-breaking, completion/crash propagation, and correct interleaving with
the instrumented dispatch tier (tracers, ``step()``, ``run(until=...)``).
"""

from __future__ import annotations

import pytest

from repro.sim import Environment, Ticker


def test_yield_float_ticks_at_cumulative_times():
    env = Environment()
    times = []

    def body():
        for d in (1.0, 2.5, 0.5):
            yield d
            times.append(env.now)

    env.ticker(body())
    env.run()
    assert times == [1.0, 3.5, 4.0]
    assert env.now == 4.0


def test_integer_delays_accepted():
    env = Environment()
    times = []

    def body():
        for d in (1, 2):
            yield d
            times.append(env.now)

    env.ticker(body())
    env.run()
    assert times == [1.0, 3.0]


def test_zero_delay_tick_runs_at_current_time():
    env = Environment()
    times = []

    def body():
        yield 0.0
        times.append(env.now)
        yield 1.0
        times.append(env.now)

    env.ticker(body())
    env.run()
    assert times == [0.0, 1.0]


def test_batch_yield_ticks_n_times_at_fixed_period():
    env = Environment()
    resumed_at = []

    def body():
        yield (2.0, 4)
        resumed_at.append(env.now)

    env.ticker(body())
    env.run()
    # Generator resumes only after the n-th tick, at t = 4 * 2.0.
    assert resumed_at == [8.0]
    assert env.now == 8.0


def test_batch_of_one_equals_plain_yield():
    env_a, env_b = Environment(), Environment()

    def batch():
        yield (3.0, 1)

    def plain():
        yield 3.0

    env_a.ticker(batch())
    env_b.ticker(plain())
    env_a.run()
    env_b.run()
    assert env_a.now == env_b.now == 3.0
    assert env_a.dispatch_count == env_b.dispatch_count


def test_tick_times_bit_identical_to_timeout_chain():
    # Tick time is previous + d, exactly the float the timeout chain
    # produces — no accumulated multiplication, no epsilon drift.
    delays = [0.1, 0.7, 1e-9, 3.30001, 0.1]

    env_t = Environment()
    timeout_times = []

    def chain():
        for d in delays:
            yield env_t.timeout(d)
            timeout_times.append(env_t.now)

    env_t.process(chain())
    env_t.run()

    env_k = Environment()
    tick_times = []

    def ticks():
        for d in delays:
            yield d
            tick_times.append(env_k.now)

    env_k.ticker(ticks())
    env_k.run()

    assert tick_times == timeout_times  # exact float equality, on purpose


def test_batch_tick_times_bit_identical_to_repeated_addition():
    env = Environment()
    seen = []

    def observer():
        t = 0.0
        for _ in range(5):
            t = t + 0.1
            seen.append(t)
            yield env.timeout(0.1)

    def body():
        yield (0.1, 5)

    env.process(observer())
    tick = env.ticker(body())
    env.run(until=tick.completed)
    # The batch path computes each tick as previous + period, matching
    # the observer's repeated addition (NOT 5 * 0.1).
    assert env.now == seen[-1]


def test_dispatch_count_parity_with_timeout_chain():
    # start + n ticks + completion — same dispatch count as the process
    # version (process start + n timeouts + process end event).
    n = 7

    env_k = Environment()

    def ticks():
        for _ in range(n):
            yield 1.0

    env_k.ticker(ticks())
    env_k.run()

    env_t = Environment()

    def chain():
        for _ in range(n):
            yield env_t.timeout(1.0)

    env_t.process(chain())
    env_t.run()

    assert env_k.dispatch_count == n + 2
    assert env_k.dispatch_count == env_t.dispatch_count


def test_iterator_input_ticks_without_generator():
    env = Environment()
    t = env.ticker(iter([1.0, 2.0, 3.0]))
    env.run()
    assert env.now == 6.0
    assert t.done
    assert t.completed.value is None  # plain iterator ends with None


def test_iterator_input_supports_batches():
    env = Environment()
    env.ticker(iter([(0.5, 4), 1.0]))
    env.run()
    assert env.now == 3.0


def test_non_iterator_rejected():
    env = Environment()
    with pytest.raises(TypeError, match="not a generator or iterator"):
        env.ticker([1.0, 2.0])  # a list is iterable but not an iterator


def test_completion_value_joinable():
    env = Environment()
    got = []

    def body():
        yield 2.0
        return "lease-expired"

    tick = env.ticker(body())

    def waiter():
        value = yield tick.completed
        got.append((env.now, value))

    env.process(waiter())
    env.run()
    assert got == [(2.0, "lease-expired")]
    assert tick.done


def test_run_until_completed_event():
    env = Environment()

    def body():
        yield 1.0
        yield 1.0
        return 42

    tick = env.ticker(body())
    assert env.run(until=tick.completed) == 42
    assert env.now == 2.0


def test_unwaited_crash_raises_from_run():
    env = Environment()

    def body():
        yield 1.0
        raise RuntimeError("tick exploded")

    env.ticker(body())
    with pytest.raises(RuntimeError, match="tick exploded"):
        env.run()


def test_waited_crash_delivered_to_waiter():
    env = Environment()
    caught = []

    def body():
        yield 1.0
        raise ValueError("boom")

    tick = env.ticker(body())

    def waiter():
        try:
            yield tick.completed
        except ValueError as err:
            caught.append(str(err))

    env.process(waiter())
    env.run()
    assert caught == ["boom"]



class _Abort(BaseException):
    """Stands in for ``KeyboardInterrupt`` or a test's alarm."""


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "step"])
def test_base_exception_in_ticker_escapes_run_on_first_raise(traced):
    env = Environment()
    if traced:
        env.add_tracer(lambda t, eid, kind: None)
    raised = []
    caught = []

    def body():
        yield 1.0
        raised.append(env.now)
        raise _Abort()

    tick = env.ticker(body())

    def waiter():
        try:
            yield tick.completed
        except BaseException as err:  # would swallow a ticker crash
            caught.append(err)

    env.process(waiter())
    with pytest.raises(_Abort):
        env.run()
    assert raised == [1.0]
    assert caught == []

@pytest.mark.parametrize("bad", ["soon", -1.0, (1.0, 0), (1.0, -3),
                                 (1.0, 2.5), (1.0, 2, 3), None])
def test_invalid_yield_crashes_ticker(bad):
    env = Environment()

    def body():
        yield bad

    env.ticker(body())
    with pytest.raises(RuntimeError):
        env.run()


def test_invalid_yield_mid_stream_preserves_clock():
    env = Environment()

    def body():
        yield 2.0
        yield -5.0

    env.ticker(body())
    with pytest.raises(RuntimeError):
        env.run()
    assert env.now == 2.0  # crash happens at the tick that resumed it


def test_spawn_order_breaks_same_time_ties():
    env = Environment()
    order = []

    def tick(name):
        yield 1.0
        order.append(name)

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    env.ticker(tick("t1"))
    env.process(proc("p1"))
    env.ticker(tick("t2"))
    env.run()
    # t1 and t2 keep their spawn-time eids; p1's timeout entry is only
    # allocated when the process body runs (after t2's start), so both
    # tickers win the t=1.0 tie.
    assert order == ["t1", "t2", "p1"]


def test_ticker_keeps_spawn_rank_for_whole_lifetime():
    # All ticks reuse the eid allocated at spawn, so a ticker spawned
    # first wins every same-time tie — even against timeouts scheduled
    # much later.
    env = Environment()
    order = []

    def tick():
        for _ in range(3):
            yield 1.0
            order.append(("tick", env.now))

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)
            order.append(("proc", env.now))

    env.ticker(tick())
    env.process(proc())
    env.run()
    assert order == [("tick", 1.0), ("proc", 1.0),
                     ("tick", 2.0), ("proc", 2.0),
                     ("tick", 3.0), ("proc", 3.0)]


def test_resume_spawning_urgent_work_is_displaced_correctly():
    # A ticker whose resume schedules work at the current instant: the
    # new urgent entry must dispatch before the ticker's next tick even
    # though the ticker's entry sat at the heap root during the resume.
    env = Environment()
    order = []

    def tick():
        yield 1.0
        order.append("tick@1")
        child = env.process(sprint())
        yield 1.0
        order.append("tick@2")
        assert child.triggered

    def sprint():
        order.append("sprint-start")
        yield env.timeout(0.5)
        order.append("sprint-end")

    env.ticker(tick())
    env.run()
    assert order == ["tick@1", "sprint-start", "sprint-end", "tick@2"]


def test_step_drives_ticks_one_at_a_time():
    env = Environment()
    times = []

    def body():
        for _ in range(3):
            yield 1.0
            times.append(env.now)

    env.ticker(body())
    while env.peek() != float("inf"):
        env.step()
    assert times == [1.0, 2.0, 3.0]
    assert env.dispatch_count == 5  # start + 3 ticks + completion


def test_tracer_sees_interned_tick_kind():
    env = Environment()
    kinds = []
    env.add_tracer(lambda t, eid, kind: kinds.append(kind))

    def body():
        yield (1.0, 2)

    env.ticker(body())
    env.run()
    assert kinds.count("Tick") == 3  # start + 2 batch ticks
    # The kind string is the class-level interned constant, not a copy.
    assert all(k is Ticker._kind for k in kinds if k == "Tick")


def test_run_until_time_stops_mid_batch_and_resumes():
    env = Environment()

    def body():
        yield (1.0, 10)
        return "done"

    tick = env.ticker(body())
    env.run(until=4.5)
    assert env.now == 4.5
    assert not tick.done
    env.run()
    assert env.now == 10.0
    assert tick.completed.value == "done"


def test_two_tickers_interleave_deterministically():
    env = Environment()
    log = []

    def body(name, period):
        for _ in range(4):
            yield period
            log.append((name, env.now))

    env.ticker(body("a", 2.0))
    env.ticker(body("b", 3.0))
    env.run()
    assert log == [("a", 2.0), ("b", 3.0), ("a", 4.0), ("a", 6.0),
                   ("b", 6.0), ("a", 8.0), ("b", 9.0), ("b", 12.0)]


def test_ticker_repr_and_done():
    env = Environment()

    def heartbeat():
        yield 1.0

    tick = env.ticker(heartbeat())
    assert "heartbeat" in repr(tick)
    assert isinstance(tick, Ticker)
    assert not tick.done
    env.run()
    assert tick.done
