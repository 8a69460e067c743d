"""Tests for the simulation environment and run loop."""

import random

import pytest

from repro.sim import (
    DebugViolation,
    Environment,
    Event,
    Interrupt,
    StopSimulation,
    time_eq,
)

INF = float("inf")
NAN = float("nan")
#: The dispatch mix's metronome ticks every 0.5 up to this time.
MIX_SPAN = 12


def _null_tracer(t, eid, kind):
    pass


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


@pytest.mark.parametrize("traced", [False, True])
def test_nan_delays_are_rejected(traced):
    # NaN passes a ``delay < 0`` check; in the heap it would set the
    # clock to NaN and then step it back on the next event.
    env = Environment()
    if traced:
        env.add_tracer(_null_tracer)
    with pytest.raises(ValueError, match="nan"):
        env.timeout(NAN)
    with pytest.raises(ValueError, match="nan"):
        env.run(until=NAN)
    ticker = env.ticker(iter([1.0, NAN, 1.0]))
    with pytest.raises(RuntimeError, match="invalid value"):
        env.run()
    assert env.now == 1.0 and ticker.done and not ticker.completed.ok
    debug = Environment(debug=True)
    with pytest.raises(DebugViolation, match="nan"):
        debug._schedule(debug.event(), delay=NAN)


@pytest.mark.parametrize("until", ["none", "process", "inf", "finite"])
def test_both_tiers_halt_alike_with_an_event_at_infinity(until):
    # Only a finite ``until`` halts a run; every other run dispatches
    # all that is queued, on the fast and the instrumented tier alike.
    def run_once(traced):
        env = Environment()
        if traced:
            env.add_tracer(_null_tracer)
        log = []

        def forever(env):
            yield env.timeout(2.0)
            log.append(("finite", env.now))
            yield env.timeout(INF)
            log.append(("inf", env.now))
            return "end"

        proc = env.process(forever(env))
        result = env.run(until={"none": None, "process": proc, "inf": INF,
                                "finite": 5.0}[until])
        return log, result, env.now, env.dispatch_count

    fast = run_once(traced=False)
    assert run_once(traced=True) == fast
    if until == "finite":
        assert fast == ([("finite", 2.0)], None, 5.0, 2)
    else:
        assert fast[:3] == ([("finite", 2.0), ("inf", INF)],
                            "end" if until == "process" else None, INF)


def _dispatch_mix(env, seed):
    """One seeded mix of what the run loop must get right.

    Interrupted processes, tickers with ``(period, n)`` batches, a ticker
    whose resumes spawn processes (their urgent start displaces its heap
    entry mid-resume, also on its last resume), and a crashing ticker
    with a waiter. Every random draw happens here, up front, so the mix
    is the same whatever order the kernel dispatches it in. Returns the
    per-actor logs, filled in as the run goes.
    """
    rng = random.Random(seed)
    logs = {}

    def note(actor, *what):
        logs.setdefault(actor, []).append((env.now, *what))

    def worker(name, delays):
        for d in delays:
            try:
                yield env.timeout(d)
                note(name, "woke")
            except Interrupt as irq:
                note(name, "interrupted", irq.cause)
        return name

    workers = [
        env.process(worker(f"w{i}", [rng.choice((0.5, 1.0, 1.5, 2.0))
                                     for _ in range(6)]))
        for i in range(4)]

    def interrupter(gaps):
        for k, gap in enumerate(gaps):
            yield env.timeout(gap)
            victim = workers[k % len(workers)]
            if victim.is_alive:
                victim.interrupt(k)
                note("interrupter", k)

    env.process(interrupter([rng.choice((0.5, 0.7, 1.3)) for _ in range(8)]))

    def batcher(name, batches):
        for period, n in batches:
            yield (period, n)
            note(name, "batch", n)
            yield period
            note(name, "single")

    for i in range(3):
        env.ticker(batcher(f"b{i}", [(rng.choice((0.25, 0.5)),
                                      rng.randint(1, 5)) for _ in range(3)]))

    def child(k):
        note(f"child{k}", "start")
        yield env.timeout(0.25)
        note(f"child{k}", "end")

    def spawner(gaps):
        for k, gap in enumerate(gaps):
            env.process(child(k))
            yield gap
        env.process(child(len(gaps)))
        return "spawned"

    spawned = env.ticker(spawner([rng.choice((0.5, 0.75)) for _ in range(4)]))

    def crasher():
        yield 1.0
        yield (0.5, rng.randint(2, 4))
        raise ValueError("ticker crash")

    def waiter(name, ticker):
        try:
            note(name, "joined", (yield ticker.completed))
        except ValueError as err:
            note(name, "caught", str(err))

    env.process(waiter("spawn-waiter", spawned))
    env.process(waiter("crash-waiter", env.ticker(crasher())))
    env.ticker(iter([1, 0.5, 2, (0.25, 3)]))  # int delays and a batch
    env.ticker(iter([(0.5, 2 * MIX_SPAN)]))  # the metronome
    return logs


def _run_all(env):
    env.run()


def _run_in_chunks(env):
    # Chunk ends on the 0.5 grid land exactly on event times, so the
    # halt test meets events at ``until`` that must wait for the next
    # chunk. The metronome outlasts the last chunk, so the closing
    # unbounded run leaves ``now`` at the last event, as the others do.
    counts = []
    for k in range(1, 2 * MIX_SPAN):
        env.run(until=0.5 * k)
        counts.append(env.dispatch_count)
    env.run()
    return counts


def _run_by_step(env):
    # Counts at the same chunk ends: what ran strictly before each.
    counts = []
    for k in range(1, 2 * MIX_SPAN):
        while env.peek() < 0.5 * k:
            env.step()
        counts.append(env.dispatch_count)
    while env.peek() < INF:
        env.step()
    return counts


def _run_traced(env):
    env.add_tracer(_null_tracer)
    env.run()


@pytest.mark.parametrize("seed", [1, 7, 29])
def test_every_way_of_running_dispatches_the_mix_alike(seed):
    outcomes, counts = [], []
    for drive in (_run_all, _run_in_chunks, _run_by_step, _run_traced):
        env = Environment()
        logs = _dispatch_mix(env, seed)
        counts.append(drive(env))
        outcomes.append((logs, env.now, env.dispatch_count))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    assert counts[1] == counts[2]
    logs = outcomes[0][0]
    assert any(entry[1] == "interrupted" for entry in logs["w0"])
    assert logs["spawn-waiter"][0][1:] == ("joined", "spawned")
    assert logs["crash-waiter"][0][1:] == ("caught", "ticker crash")
    assert [entry[1] for entry in logs["child4"]] == ["start", "end"]
    assert sum(entry[1] == "batch" for entry in logs["b0"]) == 3


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
