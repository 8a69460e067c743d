"""Property-based tests for the DES kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BoundedQueue, Environment, Resource


@given(delays=st.lists(st.floats(min_value=0, max_value=1000,
                                 allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_time_is_monotone(delays):
    """The clock never runs backwards regardless of timeout mix."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.1, max_value=10, allow_nan=False),
                   min_size=1, max_size=25),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    """At no instant do more than `capacity` users hold the resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(env, res, hold):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, res, hold))
    env.run()
    assert max_seen[0] <= capacity
    assert res.count == 0  # everything released at the end


@given(
    capacity=st.integers(min_value=1, max_value=6),
    arrivals=st.lists(st.floats(min_value=0.0, max_value=50,
                                allow_nan=False), min_size=1, max_size=30),
    drain_every=st.floats(min_value=0.5, max_value=20, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_bounded_queue_never_exceeds_capacity(capacity, arrivals,
                                              drain_every):
    """Occupancy stays <= capacity and the offer accounting balances."""
    env = Environment()
    queue = BoundedQueue(env, capacity=capacity)
    max_len = [0]
    accepted = [0]
    popped = [0]

    def producer(env, queue, at, item):
        yield env.timeout(at)
        if queue.offer(item):
            accepted[0] += 1
        max_len[0] = max(max_len[0], len(queue))

    def consumer(env, queue):
        while True:
            yield env.timeout(drain_every)
            if queue.pop() is not None:
                popped[0] += 1

    for i, at in enumerate(arrivals):
        env.process(producer(env, queue, at, i))
    env.process(consumer(env, queue))
    env.run(until=max(arrivals) + 1.0)
    assert max_len[0] <= capacity
    assert accepted[0] == popped[0] + len(queue)


@given(
    steps=st.lists(
        st.tuples(st.integers(min_value=1, max_value=5),
                  st.floats(min_value=-100, max_value=100, allow_nan=False)),
        min_size=1, max_size=20),
    tail=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_time_average_matches_brute_force_integral(steps, tail):
    """time_average == a per-unit-interval Riemann sum of the step signal.

    Sample times are integers, so evaluating the right-continuous signal
    on every unit interval and averaging is an exact, independent
    computation of the same time-weighted mean.
    """
    from repro.sim.monitor import TimeSeries

    series = TimeSeries("x")
    t = 0
    for gap, value in steps:
        t += gap
        series.record(float(t), value)
    end = t + tail

    def value_at(u):
        held = None
        for when, value in zip(series.times, series.values):
            if when <= u:
                held = value
        return held

    brute = sum(value_at(u) for u in range(int(series.times[0]), end))
    brute /= end - series.times[0]
    assert abs(series.time_average(until=float(end)) - brute) < 1e-9


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_event_ordering_stable_under_same_seed(seed):
    """Same seed, same code -> the exact same (time, process) event order,
    even with plenty of simultaneous events."""
    from repro.sim import RandomStreams

    def run(seed):
        env = Environment()
        rng = RandomStreams(seed).get("order")
        order = []

        def proc(env, ident):
            for _ in range(5):
                # Integer delays force plenty of time collisions, so this
                # exercises the (time, priority, insertion) tie-break.
                yield env.timeout(float(rng.integers(0, 3)))
                order.append((env.now, ident))

        for ident in range(8):
            env.process(proc(env, ident))
        env.run()
        return order

    first = run(seed)
    assert first == run(seed)
    assert [t for t, _ in first] == sorted(t for t, _ in first)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_simulation_determinism_under_seed(seed):
    """Identical seeds produce identical trajectories."""
    from repro.sim import RandomStreams

    def run(seed):
        env = Environment()
        rng = RandomStreams(seed).get("svc")
        history = []

        def proc(env):
            for _ in range(10):
                yield env.timeout(float(rng.exponential(2.0)))
                history.append(round(env.now, 9))

        env.process(proc(env))
        env.run()
        return history

    assert run(seed) == run(seed)
