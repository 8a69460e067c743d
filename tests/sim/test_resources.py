"""Tests for the FIFO resource and the bounded queue."""

import pytest

from repro.sim import BoundedQueue, Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []

    def user(env, res, tag):
        with res.request() as req:
            yield req
            active.append((tag, env.now))
            yield env.timeout(10)

    for tag in range(3):
        env.process(user(env, res, tag))
    env.run()
    # Two start at t=0; the third only after a release at t=10.
    assert active[:2] == [(0, 0), (1, 0)]
    assert active[2] == (2, 10)


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, tag, arrival):
        yield env.timeout(arrival)
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(5)

    for tag, arrival in enumerate([0, 1, 2, 3]):
        env.process(user(env, res, tag, arrival))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_context_manager_releases_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)
    got_it = []

    def crasher(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(1)
            raise ValueError("die")

    def waiter(env, res):
        with res.request() as req:
            yield req
            got_it.append(env.now)

    def supervisor(env):
        crash_proc = env.process(crasher(env, res))
        env.process(waiter(env, res))
        try:
            yield crash_proc
        except ValueError:
            pass

    env.process(supervisor(env))
    env.run()
    assert got_it == [1]


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def impatient(env, res):
        req = res.request()
        result = yield req | env.timeout(5)
        if req not in result:
            req.cancel()
            return "gave up"
        return "got it"

    env.process(holder(env, res))
    p = env.process(impatient(env, res))
    assert env.run(until=p) == "gave up"
    assert len(res.queue) == 0


def test_resource_count_property():
    env = Environment()
    res = Resource(env, capacity=3)

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(5)

    for _ in range(2):
        env.process(user(env, res))

    def checker(env, res):
        yield env.timeout(1)
        assert res.count == 2
        assert res.capacity == 3
        yield env.timeout(10)
        assert res.count == 0

    env.process(checker(env, res))
    env.run()


# -- BoundedQueue ----------------------------------------------------------

def test_bounded_queue_reject_policy():
    env = Environment()
    q = BoundedQueue(env, capacity=2)
    assert q.offer("a") and q.offer("b")
    assert q.full
    assert not q.offer("c")
    assert len(q) == 2
    assert q.pop()[0] == "a"


def test_bounded_queue_reports_wait_times():
    env = Environment()
    q = BoundedQueue(env, capacity=4)

    def scenario(env):
        q.offer("a")
        yield env.timeout(3.0)
        q.offer("b")
        yield env.timeout(2.0)
        assert q.head_delay() == pytest.approx(5.0)
        item, waited = q.pop()
        assert (item, waited) == ("a", pytest.approx(5.0))
        item, waited = q.pop()
        assert (item, waited) == ("b", pytest.approx(2.0))

    env.process(scenario(env))
    env.run()


def test_bounded_queue_validation():
    env = Environment()
    with pytest.raises(ValueError):
        BoundedQueue(env, capacity=0)
