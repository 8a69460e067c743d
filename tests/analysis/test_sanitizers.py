"""Runtime sanitizers: determinism, resource leaks, and kernel debug mode."""

import hashlib
import struct

import pytest

from repro.analysis.sanitizers import (
    DeterminismSanitizer,
    DeterminismViolation,
    ResourceLeakError,
    ResourceLeakSanitizer,
    SharedStateSanitizer,
    SharedStateViolation,
    TraceDigest,
)
from repro.cluster.machine import Machine
from repro.sim import DebugViolation, Environment, RandomStreams, Resource


def deterministic_scenario(seed=7):
    streams = RandomStreams(seed)
    env = Environment()
    log = []

    def proc(env, rng):
        for _ in range(20):
            yield env.timeout(float(rng.exponential(1.0)))
            log.append(env.now)

    env.process(proc(env, streams.get("arrivals")))
    env.run()
    return log


class _SharedState:
    """Deliberately nondeterministic across runs (simulated leak)."""

    counter = 0


def leaky_scenario():
    _SharedState.counter += 1
    env = Environment()

    def proc(env):
        for i in range(_SharedState.counter):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()


def test_determinism_sanitizer_passes_on_seeded_scenario():
    sanitizer = DeterminismSanitizer(runs=3)
    digest = sanitizer.check(lambda: deterministic_scenario(seed=11))
    assert len(digest) == 64
    assert sanitizer.digests[0].events > 0


def test_determinism_sanitizer_digest_varies_with_seed():
    sanitizer = DeterminismSanitizer()
    d1 = sanitizer.check(lambda: deterministic_scenario(seed=1))
    d2 = sanitizer.check(lambda: deterministic_scenario(seed=2))
    assert d1 != d2


def test_determinism_sanitizer_catches_cross_run_state():
    sanitizer = DeterminismSanitizer()
    with pytest.raises(DeterminismViolation, match="diverged"):
        sanitizer.check(leaky_scenario, label="leaky")


def test_determinism_sanitizer_catches_result_divergence():
    # Same dispatch in both runs, different return values.
    def scenario():
        deterministic_scenario(seed=3)
        _SharedState.counter += 1
        return _SharedState.counter

    with pytest.raises(DeterminismViolation, match="different results"):
        DeterminismSanitizer().check(scenario, label="result-leak")


def test_determinism_sanitizer_requires_two_runs():
    with pytest.raises(ValueError):
        DeterminismSanitizer(runs=1)


def test_tracer_uninstalled_after_block():
    digest = TraceDigest()
    with Environment.traced(digest):
        env = Environment()
        env.run(until=env.timeout(1.0))
    assert digest.events == env.dispatch_count == 1
    assert Environment._default_tracers == ()
    after = Environment()
    after.run(until=after.timeout(1.0))
    assert digest.events == 1


def test_trace_digest_keeps_bounded_head():
    digest = TraceDigest(keep=3)
    for i in range(10):
        digest(float(i), i, "Timeout")
    assert digest.events == 10
    assert len(digest.head) == 3


def test_trace_digest_byte_format_is_pinned():
    # Every committed golden and campaign digest depends on these bytes:
    # per event, t as "<d", then eid as "<Q", then the UTF-8 kind.
    events = [(0.0, 0, "Timeout"), (1.5, 1, "Process"),
              (3.25e9, 2**32, "Initialize"), (1e300, 2**64 - 1, "Timeout"),
              (7.0, 2**32 + 5, "Événement")]
    expected = hashlib.sha256()
    for t, eid, kind in events:
        expected.update(struct.pack("<d", t))
        expected.update(struct.pack("<Q", eid))
        expected.update(kind.encode("utf-8"))
    digest = TraceDigest()
    for event in events:
        digest(*event)
    assert digest.hexdigest() == expected.hexdigest()
    assert digest.events == len(events)
    assert digest.head == events


# -- resource-leak sanitizer -----------------------------------------------

def test_leak_sanitizer_clean_when_released():
    env = Environment()
    sanitizer = ResourceLeakSanitizer()
    res = sanitizer.track(Resource(env, capacity=1), "slots")

    def proc(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    env.process(proc(env, res))
    env.run()
    assert sanitizer.leaks() == []
    sanitizer.check()  # does not raise


def test_leak_sanitizer_flags_unreleased_request():
    env = Environment()
    sanitizer = ResourceLeakSanitizer()
    res = sanitizer.track(Resource(env, capacity=1), "slots")

    def proc(env, res):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        # never released

    env.process(proc(env, res))
    env.run()
    with pytest.raises(ResourceLeakError, match="slots.*unreleased"):
        sanitizer.check()


def test_leak_sanitizer_flags_machine_allocation():
    sanitizer = ResourceLeakSanitizer()
    machine = sanitizer.track(Machine("m0", cores=4), "m0")
    machine.allocate(2, 1.0)
    leaks = sanitizer.leaks()
    assert any("core(s) still allocated" in leak for leak in leaks)
    machine.release(2, 1.0, incarnation=machine.incarnation)
    assert sanitizer.leaks() == []


def test_leak_sanitizer_context_manager_audits_on_clean_exit():
    env = Environment()
    with pytest.raises(ResourceLeakError):
        with ResourceLeakSanitizer() as sanitizer:
            res = sanitizer.track(Resource(env), "r")
            res.request()  # simlint: disable=SL004 — leak on purpose


def test_leak_sanitizer_does_not_mask_exceptions():
    env = Environment()
    with pytest.raises(RuntimeError, match="original"):
        with ResourceLeakSanitizer() as sanitizer:
            sanitizer.track(Resource(env), "r").request()  # simlint: disable=SL004
            raise RuntimeError("original")


# -- shared-state (shard-safety) sanitizer ---------------------------------

def test_shared_state_same_timestamp_race_detected():
    """Two processes append to one log at t=1 with no ordering event."""
    env = Environment()
    with SharedStateSanitizer(env) as sanitizer:
        log = sanitizer.watch([], name="log")

        def writer(env, tag):
            yield env.timeout(1.0)
            log.append(tag)

        env.process(writer(env, "a"))
        env.process(writer(env, "b"))
        with pytest.raises(SharedStateViolation, match="log.*unordered"):
            env.run()
    assert len(sanitizer.violations) == 1


def test_shared_state_ordered_writes_are_clean():
    """The second writer waits on an event the first one triggers."""
    env = Environment()
    with SharedStateSanitizer(env) as sanitizer:
        log = sanitizer.watch([], name="log")
        gate = env.event()

        def first(env):
            yield env.timeout(1.0)
            log.append("first")
            gate.succeed()

        def second(env):
            yield gate
            log.append("second")

        env.process(first(env))
        env.process(second(env))
        env.run()
    assert sanitizer.violations == []
    assert list(log) == ["first", "second"]


def test_shared_state_transitive_ordering_via_relay():
    """A -> B -> C through two events orders A's and C's writes even
    though B never touches the shared object."""
    env = Environment()
    with SharedStateSanitizer(env) as sanitizer:
        shared = sanitizer.watch({}, name="shared")
        g1, g2 = env.event(), env.event()

        def a(env):
            yield env.timeout(2.0)
            shared["a"] = 1
            g1.succeed()

        def relay(env):
            yield g1
            g2.succeed()

        def c(env):
            yield g2
            shared["c"] = 1

        env.process(a(env))
        env.process(relay(env))
        env.process(c(env))
        env.run()
    assert sanitizer.violations == []


def test_shared_state_distinct_timestamps_are_ordered_by_time():
    env = Environment()
    with SharedStateSanitizer(env) as sanitizer:
        seen = sanitizer.watch(set(), name="seen")

        def writer(env, tag, t):
            yield env.timeout(t)
            seen.add(tag)

        env.process(writer(env, "x", 1.0))
        env.process(writer(env, "y", 2.0))
        env.run()
    assert sanitizer.violations == []


def test_shared_state_setup_writes_outside_processes_exempt():
    env = Environment()
    with SharedStateSanitizer(env) as sanitizer:
        log = sanitizer.watch([], name="log")
        log.append("setup")  # no active process: scenario wiring
        env.run()
    assert sanitizer.violations == []


def test_shared_state_non_strict_records_without_raising():
    env = Environment()
    sanitizer = SharedStateSanitizer(env, strict=False)
    log = sanitizer.watch([], name="log")

    def writer(env, tag):
        yield env.timeout(1.0)
        log.append(tag)

    env.process(writer(env, "a"))
    env.process(writer(env, "b"))
    env.run()
    sanitizer.close()
    assert len(sanitizer.violations) == 1
    assert "no ordering event" in sanitizer.violations[0]


def test_shared_state_watch_rejects_unwatchable_types():
    env = Environment()
    with SharedStateSanitizer(env) as sanitizer:
        with pytest.raises(TypeError, match="cannot watch"):
            sanitizer.watch(42)


def test_shared_state_hook_uninstalled_on_exit():
    env = Environment()
    with SharedStateSanitizer(env):
        assert env._schedule_hook is not None
    assert env._schedule_hook is None


# -- kernel debug mode -----------------------------------------------------

def test_debug_mode_counts_dispatches():
    env = Environment(debug=True)

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    env.run()
    assert env.dispatch_count > 0


def test_debug_mode_rejects_negative_schedule_delay():
    env = Environment(debug=True)
    ev = env.event()
    with pytest.raises(DebugViolation, match="negative delay"):
        env._schedule(ev, delay=-1.0)


def test_non_debug_mode_unchanged():
    env = Environment()
    ev = env.event()
    env._schedule(ev, delay=0.0)
    env.step()
    assert ev.processed
