"""Unit tests for the sim profiler and the Environment profiling hook."""

from repro.observability import SimProfiler
from repro.sim import Environment


def _workload(env):
    def ticker(env):
        for _ in range(10):
            yield env.timeout(1.0)

    def sleeper(env):
        yield env.timeout(25.0)

    env.process(ticker(env))
    env.process(sleeper(env))


def test_profiler_attributes_dispatches_and_processes():
    profiler = SimProfiler()
    with profiler:
        env = Environment()
        _workload(env)
        env.run()
    assert profiler.dispatches > 0
    assert profiler.wall_s > 0
    names = {e.name for e in profiler.top_processes()}
    assert {"ticker", "sleeper"} <= names
    kinds = {e.name for e in profiler.top_kinds()}
    assert "Timeout" in kinds
    ticker_entry = profiler.processes["ticker"]
    # 10 timeouts + the Initialize resume.
    assert ticker_entry.count == 11


def test_profiler_uninstalls_after_block():
    profiler = SimProfiler()
    with profiler:
        env = Environment()
        _workload(env)
        env.run()
    assert profiler.dispatches == env.dispatch_count
    after = Environment()
    _workload(after)
    after.run()
    assert profiler.dispatches == env.dispatch_count


def test_unprofiled_environment_pays_no_bookkeeping():
    env = Environment()
    _workload(env)
    env.run()  # nothing to assert beyond "no profiler, still runs"


def test_profiler_accumulates_across_blocks():
    profiler = SimProfiler()
    for _ in range(2):
        with profiler:
            env = Environment()
            _workload(env)
            env.run()
    assert profiler.processes["ticker"].count == 22


def test_report_lists_top_processes_and_events_per_s():
    profiler = SimProfiler()
    with profiler:
        env = Environment()
        _workload(env)
        env.run()
    text = profiler.report(top=5)
    assert "dispatches" in text
    assert "ticker" in text
    assert "events/s" in text
    assert profiler.events_per_s() > 0
    snap = profiler.snapshot()
    assert snap.dispatches == profiler.dispatches
    assert snap.events_per_s == profiler.events_per_s()


def test_non_process_callbacks_are_not_misattributed():
    profiler = SimProfiler()
    with profiler:
        env = Environment()
        done = env.event()
        done.callbacks.append(lambda ev: None)  # a bare-function callback
        def trigger(env):
            yield env.timeout(1.0)
            done.succeed()
        env.process(trigger(env))
        env.run()
    assert "<lambda>" not in profiler.processes
