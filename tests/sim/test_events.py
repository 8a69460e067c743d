"""Tests for event primitives: succeed/fail, conditions, interrupts."""

import random

import pytest

from repro.analysis import TraceDigest
from repro.sim import AllOf, AnyOf, Environment, Interrupt, Process
from repro.sim.events import Event, Initialize


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env, ev):
        got.append((yield ev))

    def trigger(env, ev):
        yield env.timeout(5)
        ev.succeed("payload")

    env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except KeyError as err:
            caught.append(err)

    env.process(waiter(env, ev))

    def trigger(env, ev):
        yield env.timeout(1)
        ev.fail(KeyError("gone"))

    env.process(trigger(env, ev))
    env.run()
    assert len(caught) == 1


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_all_of_waits_for_every_event():
    env = Environment()
    done_at = []

    def waiter(env):
        t1 = env.timeout(2, value="a")
        t2 = env.timeout(7, value="b")
        result = yield AllOf(env, [t1, t2])
        done_at.append(env.now)
        assert set(result.values()) == {"a", "b"}

    env.process(waiter(env))
    env.run()
    assert done_at == [7]


def test_any_of_fires_on_first():
    env = Environment()
    done_at = []

    def waiter(env):
        t1 = env.timeout(2, value="fast")
        t2 = env.timeout(7, value="slow")
        result = yield AnyOf(env, [t1, t2])
        done_at.append(env.now)
        assert "fast" in result.values()

    env.process(waiter(env))
    env.run()
    assert done_at == [2]


def test_and_or_operators():
    env = Environment()
    times = []

    def waiter(env):
        yield env.timeout(1) & env.timeout(4)
        times.append(env.now)
        yield env.timeout(1) | env.timeout(10)
        times.append(env.now)

    env.process(waiter(env))
    env.run()
    assert times == [4, 5]


def test_empty_all_of_triggers_immediately():
    env = Environment()
    results = []

    def waiter(env):
        result = yield AllOf(env, [])
        results.append(result)

    env.process(waiter(env))
    env.run()
    assert results == [{}]


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    record = []

    def sleeper(env):
        try:
            yield env.timeout(100)
            record.append("slept full")
        except Interrupt as intr:
            record.append(("interrupted", env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert record == [("interrupted", 3, "wake up")]


def test_interrupted_process_can_continue():
    env = Environment()
    record = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(5)
        record.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert record == [8]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    def late(env, victim):
        yield env.timeout(5)
        with pytest.raises(RuntimeError):
            victim.interrupt()

    victim = env.process(quick(env))
    env.process(late(env, victim))
    env.run()


def test_self_interrupt_rejected():
    env = Environment()

    def selfish(env):
        proc = env.active_process
        with pytest.raises(RuntimeError):
            proc.interrupt()
        yield env.timeout(1)

    env.process(selfish(env))
    env.run()


def test_stale_timeout_after_interrupt_is_ignored():
    """After an interrupt, the abandoned timeout must not resume the process."""
    env = Environment()
    record = []

    def sleeper(env):
        try:
            yield env.timeout(10)
            record.append("full sleep")
        except Interrupt:
            record.append("interrupted")
        # Wait past the stale timeout's fire time.
        yield env.timeout(20)
        record.append("resumed")

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert record == ["interrupted", "resumed"]


def test_dead_process_ignores_a_stale_interrupt_valued_wakeup():
    # The waiter dies of an interrupt while joined to the child; the child
    # dies of one later. The child's Interrupt must not reach the dead
    # waiter's generator (nor schedule the waiter a second time).
    env = Environment()
    ended = []

    def child(env):
        yield env.timeout(5)

    def waiter(env, proc):
        yield proc

    def guardian(env, proc):
        try:
            yield proc
        except Interrupt as intr:
            ended.append((env.now, intr.cause))

    def interrupter(env, first, second):
        yield env.timeout(1)
        first.interrupt("waiter")
        yield env.timeout(1)
        second.interrupt("child")

    kid = env.process(child(env))
    victim = env.process(waiter(env, kid))
    env.process(guardian(env, victim))
    env.process(guardian(env, kid))
    env.process(interrupter(env, victim, kid))
    env.run()
    assert ended == [(1, "waiter"), (2, "child")]
    assert victim.value.cause == "waiter"


def test_interrupt_reaching_a_process_that_already_died_is_dropped():
    # Two interrupts issued in one instant: the first kills the process,
    # so the second finds it dead when dispatched and is dropped.
    env = Environment()
    ended = []

    def victim(env):
        yield env.timeout(10)

    def guardian(env, proc):
        try:
            yield proc
        except Interrupt as intr:
            ended.append((env.now, intr.cause))

    def hitter(env, proc):
        yield env.timeout(1)
        proc.interrupt("first")
        proc.interrupt("second")

    proc = env.process(victim(env))
    env.process(guardian(env, proc))
    env.process(hitter(env, proc))
    env.run()
    assert ended == [(1, "first")]
    assert proc.value.cause == "first"


def test_process_return_value_via_join():
    env = Environment()

    def worker(env):
        yield env.timeout(4)
        return {"answer": 42}

    def joiner(env, worker_proc):
        result = yield worker_proc
        return result["answer"]

    w = env.process(worker(env))
    j = env.process(joiner(env, w))
    assert env.run(until=j) == 42



class _Abort(BaseException):
    """Stands in for ``KeyboardInterrupt`` or a test's alarm."""


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "step"])
def test_base_exception_in_process_escapes_run_on_first_raise(traced):
    """A process failure is an ``Exception``; anything else (Ctrl-C, an
    alarm) stops the run at once, even when a waiter would catch it.
    Once the caller catches it, the environment can run on: no process
    is left marked active, and the other processes continue."""
    env = Environment()
    if traced:
        env.add_tracer(lambda t, eid, kind: None)
    raised = []
    caught = []
    seen = []

    def worker(env):
        yield env.timeout(1)
        raised.append(env.now)
        raise _Abort()

    def waiter(env, proc):
        try:
            yield proc
        except BaseException as err:  # would swallow a process failure
            caught.append(err)

    def ticks(env):
        for _ in range(3):
            yield env.timeout(1)
            seen.append(env.active_process)

    env.process(waiter(env, env.process(worker(env))))
    other = env.process(ticks(env))
    with pytest.raises(_Abort):
        env.run()
    assert raised == [1.0]
    assert caught == []
    assert env.active_process is None
    env.run()
    assert env.now == 3.0
    assert seen == [other, other, other]
    assert caught == []


def test_process_is_alive_lifecycle():
    env = Environment()

    def worker(env):
        yield env.timeout(5)

    p = env.process(worker(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_interrupt_cause_none_by_default():
    intr = Interrupt()
    assert intr.cause is None
    intr2 = Interrupt("reason")
    assert intr2.cause == "reason"


# -- reference oracle: the earlier two-frame wake-up path --------------------

class ReferenceProcess(Process):
    """A process that wakes up the earlier way, kept as an oracle.

    Each subscription binds a fresh ``_resume_if_target``, which checks
    ``is_alive`` and the target and then calls ``_resume``. Its start
    and its interrupts call ``_resume`` unguarded. A generator that
    catches the non-event error is not supported.
    """

    __slots__ = ()

    def __init__(self, env, generator):
        Event.__init__(self, env)
        self._generator = generator
        self._target = None
        self._wake = self._resume  # what Initialize and interrupt() call
        Initialize(env, self)

    def _resume(self, event):
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                break
            except Exception as err:
                self._ok = False
                self._value = err
                self._defused = False
                self.env._schedule(self)
                break
            except BaseException:
                self.env._active_process = None
                raise
            assert isinstance(next_event, Event)
            if next_event.callbacks is not None:
                next_event.callbacks.append(self._resume_if_target)
                self._target = next_event
                break
            event = next_event
        self._target = None if not self.is_alive else self._target
        self.env._active_process = None

    def _resume_if_target(self, event):
        if not self.is_alive:
            return
        if self._target is not event and not isinstance(
                event._value, Interrupt):
            return
        self._target = None
        self._resume(event)


# The digest hashes event kinds; the oracle's dispatches are Processes.
ReferenceProcess._kind = "Process"


def interrupt_storm(process_cls, seed, n_workers=6, n_interrupters=3,
                    horizon=80.0):
    """Workers wait on timeouts, on child processes and on already
    processed events while interrupters hit them (and the children) at
    random; some workers re-yield the event they were interrupted on.
    Returns the trace digest, the dispatch count and the workers' log."""
    env = Environment()
    digest = TraceDigest()
    env.add_tracer(digest)
    rng = random.Random(seed)
    log = []
    processed = []     # events already dispatched, to yield again
    children = []
    hit = set()        # children interrupted once already

    def spawn(generator):
        return process_cls(env, generator)

    def describe(value):
        if isinstance(value, Interrupt):
            return ("interrupt", value.cause)
        return value

    def child(name, delay):
        yield env.timeout(delay)
        return name

    def guardian(proc):
        # Every child has a joiner, so one killed by an interrupt fails
        # handled, whoever else waits on it.
        try:
            value = yield proc
        except Interrupt as intr:
            value = describe(intr)
        log.append(("guard", env.now, value))
        processed.append(proc)

    def worker(name):
        while True:
            roll = rng.random()
            if roll < 0.4:
                target = env.timeout(rng.choice([0.25, 0.5, 1.0, 1.5]))
            elif roll < 0.65:
                target = spawn(child(f"{name}.{len(children)}",
                                     rng.choice([0.5, 1.0, 2.5])))
                children.append(target)
                spawn(guardian(target))
            elif roll < 0.85 and processed:
                target = rng.choice(processed)
            else:
                alive = [c for c in children if c.is_alive]
                target = (rng.choice(alive) if alive
                          else env.timeout(0.25))
            waited_on = target._kind  # the oracle class says "Process" too
            while True:
                try:
                    value = yield target
                except Interrupt as intr:
                    log.append((name, env.now, "interrupted", waited_on,
                                describe(intr)))
                    if target.callbacks is not None and rng.random() < 0.5:
                        log.append((name, env.now, "re-yield"))
                        continue
                    break
                log.append((name, env.now, "woke", waited_on,
                            describe(value)))
                if waited_on == "Timeout":
                    processed.append(target)
                break

    def interrupter(k):
        while True:
            yield env.timeout(rng.choice([0.25, 0.5, 0.75]))
            cause = (k, env.now)
            if rng.random() < 0.75:
                rng.choice(workers).interrupt(cause)
                continue
            fresh = [c for c in children if c.is_alive and c not in hit]
            if fresh:
                victim = rng.choice(fresh)
                hit.add(victim)
                victim.interrupt(cause)

    workers = [spawn(worker(f"w{i}")) for i in range(n_workers)]
    for k in range(n_interrupters):
        spawn(interrupter(k))
    env.run(until=horizon)
    return digest.hexdigest(), digest.events, log


@pytest.mark.parametrize("seed", [1, 7, 29, 404])
def test_interrupt_storm_matches_reference_wakeups(seed):
    got = interrupt_storm(Process, seed)
    want = interrupt_storm(ReferenceProcess, seed)
    assert got == want
    # The storm reaches every wake-up path it is meant to.
    log = got[2]
    interrupted_on = {entry[3] for entry in log
                      if entry[2:3] == ("interrupted",)}
    assert {"Timeout", "Process"} <= interrupted_on
    assert any(entry[2:3] == ("re-yield",) for entry in log)
    assert any(entry[0] == "guard" and entry[2][0] == "interrupt"
               for entry in log)
    assert any(entry[2:4] == ("woke", "Process") for entry in log)
