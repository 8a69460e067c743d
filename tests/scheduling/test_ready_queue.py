"""The ready queue's sorted views and the policies that read them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import policies as policies_module
from repro.scheduling.experiments import run_static
from repro.scheduling.policies import (
    BackfillPolicy,
    FairSharePolicy,
    FCFSPolicy,
    LJFPolicy,
    ReadyQueue,
    SJFPolicy,
    fcfs_key,
    ljf_key,
    sjf_key,
)
from repro.workload import Task

KEYS = (fcfs_key, sjf_key, ljf_key)

#: Few distinct values, so keys tie on every field but the task id.
_task = st.builds(
    lambda work, estimate, submit, user: Task(
        work=work, submit_time=submit, user=user, runtime_estimate=estimate),
    work=st.sampled_from([1.0, 5.0, 20.0]),
    estimate=st.sampled_from([None, 0.0, 5.0, 20.0]),
    submit=st.sampled_from([0.0, 1.0, 2.0]),
    user=st.sampled_from(["u0", "u1", "u2"]))

#: ("add", task) | ("remove", index) | ("requeue", index) | ("view", key)
_op = st.one_of(
    st.tuples(st.just("add"), _task),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("requeue"), st.integers(0, 50)),
    st.tuples(st.just("view"), st.sampled_from(KEYS)))


def _policies():
    fair_share = FairSharePolicy()
    fair_share.charge("u0", 50.0)
    fair_share.charge("u1", 10.0)
    return [FCFSPolicy(), SJFPolicy(), LJFPolicy(), BackfillPolicy(),
            fair_share]


def _assert_views_sorted(queue):
    for key, (keys, tasks) in queue._views.items():
        want = sorted(queue, key=key)
        assert tasks == want
        assert keys == [key(t) for t in want]


class TestViews:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_op, max_size=60))
    def test_views_equal_a_sort_after_every_step(self, ops):
        queue = ReadyQueue()
        mirror = []
        for kind, arg in ops:
            if kind == "add":
                queue.append(arg)
                mirror.append(arg)
            elif kind == "view":
                assert queue.view(arg) == sorted(mirror, key=arg)
            elif mirror:
                task = mirror.pop(arg % len(mirror))
                queue.remove(task)
                if kind == "requeue":
                    queue.append(task)
                    mirror.append(task)
            assert list(queue) == mirror
            assert len(queue) == len(mirror)
            assert set(queue.users()) == {t.user for t in mirror}
            _assert_views_sorted(queue)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_op, max_size=40))
    def test_order_of_live_queue_equals_order_of_a_list(self, ops):
        queue = ReadyQueue()
        for kind, arg in ops:
            if kind == "add":
                queue.append(arg)
            elif kind == "view":
                queue.view(arg)
            elif len(queue):
                task = list(queue)[arg % len(queue)]
                queue.remove(task)
                if kind == "requeue":
                    queue.append(task)
        snapshot = list(queue)
        for live, plain in zip(_policies(), _policies()):
            assert live.order(queue, 0.0) == plain.order(snapshot, 0.0), \
                live.name
        # order() hands back a new list and leaves the queue as it was.
        assert list(queue) == snapshot
        _assert_views_sorted(queue)

    def test_fair_share_ranks_by_usage_then_fcfs(self):
        heavy_early = Task(work=1.0, submit_time=0.0, user="heavy")
        light_late = Task(work=1.0, submit_time=9.0, user="light")
        new_user = Task(work=1.0, submit_time=5.0, user="new")
        queue = ReadyQueue([heavy_early, light_late, new_user])
        policy = FairSharePolicy()
        # No usage yet: every user ties at 0.0, so FCFS decides.
        assert policy.order(queue, 0.0) == [heavy_early, new_user,
                                            light_late]
        policy.charge("heavy", 100.0)
        policy.charge("light", 1.0)
        assert policy.order(queue, 0.0) == [new_user, light_late,
                                            heavy_early]

    def test_key_field_changed_while_queued_raises(self):
        task = Task(work=5.0, submit_time=1.0)
        others = [Task(work=float(w), submit_time=float(w))
                  for w in (2, 3, 4)]
        queue = ReadyQueue(others + [task])
        queue.view(sjf_key)
        task.work = 50.0
        with pytest.raises(ValueError, match="sort-key field changed"):
            queue.remove(task)
        # No other task was taken out in its place.
        assert all(t in queue._views[sjf_key][1] for t in others)

    def test_tasks_sharing_an_id_remove_the_right_one(self):
        first = Task(work=1.0, task_id=7)
        second = Task(work=1.0, task_id=7)
        queue = ReadyQueue([first, second])
        assert queue.view(fcfs_key) == [first, second]
        queue.remove(second)
        assert queue.view(fcfs_key) == [first]
        queue.append(second)
        queue.remove(first)
        assert queue.view(fcfs_key) == [second] == list(queue)

    def test_remove_of_an_absent_task_raises(self):
        queue = ReadyQueue([Task(work=1.0)])
        with pytest.raises(ValueError):
            queue.remove(Task(work=1.0))


def test_ljf_run_evaluates_its_key_a_few_times_per_task(monkeypatch):
    """One static LJF run of the largest Table 9 cell evaluates the sort
    key a small constant number of times per enqueue (once in, once out,
    plus the first sort), not once per queued task per pass."""
    evaluations = 0
    enqueues = 0

    def counted_key(task):
        nonlocal evaluations
        evaluations += 1
        return ljf_key(task)

    append = ReadyQueue.append

    def counted_append(self, task):
        nonlocal enqueues
        enqueues += 1
        append(self, task)

    monkeypatch.setattr(policies_module, "ljf_key", counted_key)
    monkeypatch.setattr(ReadyQueue, "append", counted_append)
    metrics = run_static("computer-engineering", "GDC", "ljf", seed=901,
                         n_jobs=25)
    assert enqueues >= metrics.n_tasks > 1000
    assert evaluations <= 3 * enqueues
