"""Tests for RNG streams and instrumentation."""

import math

import numpy as np
import pytest

from repro.sim import Counter, Environment, Monitor, RandomStreams, TimeSeries, summarize


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(seed=1)
        assert streams.get("a") is streams.get("a")

    def test_reproducible_across_factories(self):
        a = RandomStreams(seed=7).get("arrivals").random(5)
        b = RandomStreams(seed=7).get("arrivals").random(5)
        assert np.allclose(a, b)

    def test_streams_independent_of_creation_order(self):
        s1 = RandomStreams(seed=7)
        s1.get("x")
        x_then = s1.get("y").random(3)
        s2 = RandomStreams(seed=7)
        y_first = s2.get("y").random(3)
        assert np.allclose(x_then, y_first)

    def test_different_names_differ(self):
        streams = RandomStreams(seed=7)
        assert not np.allclose(
            streams.get("a").random(10), streams.get("b").random(10))

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("a").random(10)
        b = RandomStreams(seed=2).get("a").random(10)
        assert not np.allclose(a, b)

    def test_spawn_children_reproducible(self):
        a = RandomStreams(seed=3).spawn("child").get("s").random(4)
        b = RandomStreams(seed=3).spawn("child").get("s").random(4)
        assert np.allclose(a, b)

    def test_contains(self):
        streams = RandomStreams()
        assert "a" not in streams
        streams.get("a")
        assert "a" in streams


class TestTimeSeries:
    def test_record_and_len(self):
        ts = TimeSeries("util")
        ts.record(0, 1.0)
        ts.record(5, 2.0)
        assert len(ts) == 2
        assert ts.last() == 2.0

    def test_empty_last_is_none(self):
        assert TimeSeries("x").last() is None

    def test_time_average_step_signal(self):
        ts = TimeSeries("load")
        ts.record(0, 0.0)
        ts.record(10, 1.0)
        # 0 for [0,10), 1 for [10,20) -> average 0.5 over [0,20)
        assert ts.time_average(until=20) == pytest.approx(0.5)

    def test_time_average_empty_is_nan(self):
        assert math.isnan(TimeSeries("x").time_average())


class TestMonitorCounter:
    def test_monitor_records_at_env_time(self):
        env = Environment()
        mon = Monitor(env)

        def proc(env, mon):
            yield env.timeout(4)
            mon.record("queue", 7)

        env.process(proc(env, mon))
        env.run()
        assert mon["queue"].times == [4]
        assert mon["queue"].values == [7]

    def test_monitor_without_env_needs_explicit_time(self):
        mon = Monitor()
        with pytest.raises(ValueError, match="ordinal_time"):
            mon.record("x", 1)
        mon.record("x", 1, time=3)
        assert mon["x"].times == [3]

    def test_ordinal_time_opt_in_timestamps_by_sample_index(self):
        mon = Monitor(ordinal_time=True)
        for value in (5.0, 7.0, 9.0):
            mon.record("x", value)
        assert mon["x"].times == [0.0, 1.0, 2.0]
        # An explicit time still wins over the ordinal.
        mon.record("x", 11.0, time=100.0)
        assert mon["x"].times[-1] == 100.0

    def test_env_time_beats_ordinal_opt_in(self):
        env = Environment()
        mon = Monitor(env, ordinal_time=True)
        mon.record("x", 1.0)
        assert mon["x"].times == [0.0]
        env._now = 5.0
        mon.record("x", 2.0)
        assert mon["x"].times == [0.0, 5.0]

    def test_counter_breakdown(self):
        c = Counter("jobs")
        c.incr("done")
        c.incr("done")
        c.incr("failed")
        assert c.total == 3
        assert c.by_key == {"done": 2, "failed": 1}

    def test_monitor_count_interface(self):
        mon = Monitor()
        mon.count("events", key="a")
        mon.count("events", key="a", amount=2)
        assert mon.counters["events"].total == 3
        assert "events" in mon

    def test_total_of_an_absent_name_creates_nothing(self):
        mon = Monitor(namespace="ns")
        mon.count("sent", key="a")
        counters, snapshot = list(mon.counters), mon.registry.snapshot()
        assert mon.total("sent") == 1
        assert mon.total("never") == 0
        assert list(mon.counters) == counters
        assert mon.registry.snapshot() == snapshot
        assert "never" not in mon

    @pytest.mark.parametrize("seed", range(4))
    def test_count_matches_counter_incr(self, seed):
        """``count`` creates counters lazily in first-use order and books
        exactly what ``_counter(name).incr(key, amount)`` books."""
        fast = Monitor(namespace="ns", ordinal_time=True)
        ref = Monitor(namespace="ns", ordinal_time=True)
        rng = RandomStreams(seed).get("monitor-ops")
        names = ["sent", "drops:n1", "drops:n2", "acks", "late"]
        keys = [None, "a", 2, ("t", 1)]
        for _ in range(200):
            name = names[int(rng.integers(len(names)))]
            if int(rng.integers(6)) == 0:
                fast.record(f"{name}_s", 1.0)
                ref.record(f"{name}_s", 1.0)
                continue
            key = keys[int(rng.integers(len(keys)))]
            amount = int(rng.choice([0, 1, 1, 3]))
            if amount == 1 and int(rng.integers(2)):
                fast.count(name, key)          # the default amount
            else:
                fast.count(name, key=key, amount=amount)
            ref._counter(name).incr(key, amount)
        assert list(fast.counters) == list(ref.counters)
        assert list(fast.registry._metrics) == list(ref.registry._metrics)
        assert fast.registry.snapshot() == ref.registry.snapshot()
        for name, counter in fast.counters.items():
            expected = ref.counters[name]
            assert counter.total == expected.total
            assert list(counter.by_key.items()) == list(
                expected.by_key.items())
            assert None not in counter.by_key
            assert fast.registry.get(*fast._registry_key(name)) is counter


class TestSummarize:
    def test_empty(self):
        assert summarize([]) == {"count": 0}

    def test_basic_statistics(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats["count"] == 5
        assert stats["mean"] == 3
        assert stats["median"] == 3
        assert stats["min"] == 1
        assert stats["max"] == 5
        assert stats["q1"] == 2
        assert stats["q3"] == 4

    def test_whiskers_clipped_to_data(self):
        stats = summarize([1, 2, 3, 4, 100])
        # 100 is an outlier beyond q3 + 1.5 IQR; whisker must clip below it.
        assert stats["whisker_high"] < 100
        assert stats["whisker_low"] == 1

    def test_single_value(self):
        stats = summarize([7.0])
        assert stats["mean"] == 7.0
        assert stats["std"] == 0.0

    def test_none_and_nan_samples_are_dropped(self):
        stats = summarize([1.0, None, math.nan, 3.0])
        assert stats["count"] == 2
        assert stats["mean"] == 2.0

    def test_all_none_or_nan_is_empty(self):
        assert summarize([None, math.nan]) == {"count": 0}
