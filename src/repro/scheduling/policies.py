"""Scheduling policies.

A policy orders the ready queue; the simulator then places tasks
first-fit in that order. :class:`BackfillPolicy` additionally allows
jumping the queue when doing so cannot delay the head task (EASY
backfilling with runtime estimates). The simulator's queue is a
:class:`ReadyQueue`, which keeps each sort key's order as tasks come
and go, so ordering it does not re-sort it.

The Table 9 finding these implement: "no individual technique or policy
was consistently better than all others" — each policy's ordering is
optimal for a different workload shape.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable

from repro.workload.task import Task


def fcfs_key(task: Task) -> tuple:
    """FCFS and backfill: by submit time, ties by task id."""
    return (task.submit_time, task.task_id)


def sjf_key(task: Task) -> tuple:
    """SJF: by runtime estimate (a missing or zero one falls back to
    work), ties by task id."""
    return (task.runtime_estimate or task.work, task.task_id)


def ljf_key(task: Task) -> tuple:
    """LJF: the SJF estimate, longest first, ties by task id."""
    return (-(task.runtime_estimate or task.work), task.task_id)


class ReadyQueue:
    """The ready queue: tasks in arrival order, plus one sorted view per
    sort key.

    Iteration, ``len`` and ``in`` see the arrival order, as a list would.
    :meth:`view` hands out a copy of the queue sorted by a key; the first
    request for a key sorts once, and from then on every :meth:`append`
    and :meth:`remove` keeps that view sorted by bisection, so asking
    again costs a copy, not a sort. Tasks with equal keys keep their
    arrival order, so a view always equals ``sorted(queue, key=key)``.

    The contract: no field a key reads, and not the task's ``user``,
    changes while the task is queued. :meth:`remove` finds the task in
    each view by its key and checks it found that very object, so a key
    that did change raises instead of deleting the wrong task.
    """

    __slots__ = ("_tasks", "_users", "_views")

    def __init__(self, tasks: Iterable[Task] = ()):
        self._tasks: list[Task] = []
        #: Queued tasks per user (fair-share reads which users are queued).
        self._users: dict[str, int] = {}
        #: key -> (sorted keys, the tasks in the same order).
        self._views: dict[Callable[[Task], tuple],
                          tuple[list[tuple], list[Task]]] = {}
        self.extend(tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks)

    def __contains__(self, task: object) -> bool:
        return task in self._tasks

    def __repr__(self) -> str:
        return f"ReadyQueue({self._tasks!r})"

    def append(self, task: Task) -> None:
        self._tasks.append(task)
        users = self._users
        users[task.user] = users.get(task.user, 0) + 1
        for key, (keys, tasks) in self._views.items():
            k = key(task)
            i = bisect_right(keys, k)
            keys.insert(i, k)
            tasks.insert(i, task)

    def extend(self, tasks: Iterable[Task]) -> None:
        for task in tasks:
            self.append(task)

    def remove(self, task: Task) -> None:
        """Remove ``task`` (ValueError when it is not queued)."""
        self._tasks.remove(task)
        users = self._users
        left = users[task.user] - 1
        if left:
            users[task.user] = left
        else:
            del users[task.user]
        for key, (keys, tasks) in self._views.items():
            k = key(task)
            # Equal keys (tasks sharing an id) sit side by side.
            for i in range(bisect_left(keys, k), bisect_right(keys, k)):
                if tasks[i] is task:
                    del keys[i]
                    del tasks[i]
                    break
            else:
                raise ValueError(
                    f"task {task.task_id} is not where {key.__name__} "
                    "puts it: a sort-key field changed while it was queued")

    def users(self) -> Iterable[str]:
        """The users with at least one queued task."""
        return self._users.keys()

    def view(self, key: Callable[[Task], tuple]) -> list[Task]:
        """A new list of the queued tasks sorted by ``key``."""
        view = self._views.get(key)
        if view is None:
            tasks = self._tasks
            keys = [key(task) for task in tasks]
            ranks = sorted(range(len(keys)), key=keys.__getitem__)
            view = self._views[key] = ([keys[i] for i in ranks],
                                       [tasks[i] for i in ranks])
        return view[1][:]


def _ready_queue(queue: Iterable[Task]) -> ReadyQueue:
    """``queue`` itself, or a throwaway :class:`ReadyQueue` holding it."""
    return queue if isinstance(queue, ReadyQueue) else ReadyQueue(queue)


class Policy:
    """Base: order the ready queue (most-urgent first).

    ``order`` takes the simulator's live :class:`ReadyQueue` or any
    iterable of tasks (wrapped in a throwaway queue), and returns a *new*
    list, leaving the queue untouched: the simulator orders the queue
    once per scheduling pass and deletes each task it starts from that
    list. A policy that ranks by a key reads the queue's sorted view for
    that key, so on the live queue an order costs a copy, not a sort;
    the view contract (no key field changes while a task is queued) is
    :class:`ReadyQueue`'s. Policies that rank by runtime use the same
    estimate as the simulator and the portfolio predictor,
    ``runtime_estimate or work`` (a missing or zero estimate falls back
    to the task's work).
    """

    name = "abstract"

    def order(self, queue: Iterable[Task], now: float) -> list[Task]:
        raise NotImplementedError

    def allows_backfill(self) -> bool:
        return False


class FCFSPolicy(Policy):
    """First-come first-served: by submit time."""

    name = "fcfs"

    def order(self, queue: Iterable[Task], now: float) -> list[Task]:
        return _ready_queue(queue).view(fcfs_key)


class SJFPolicy(Policy):
    """Shortest job first, by runtime *estimate* (which may be wrong —
    the [120] failure mode for big data workloads)."""

    name = "sjf"

    def order(self, queue: Iterable[Task], now: float) -> list[Task]:
        return _ready_queue(queue).view(sjf_key)


class LJFPolicy(Policy):
    """Longest job first: good for utilization of big free blocks."""

    name = "ljf"

    def order(self, queue: Iterable[Task], now: float) -> list[Task]:
        return _ready_queue(queue).view(ljf_key)


class FairSharePolicy(Policy):
    """Least-served user first (by accumulated core-seconds), then FCFS."""

    name = "fair-share"

    def __init__(self):
        self.usage: dict[str, float] = {}

    def charge(self, user: str, core_seconds: float) -> None:
        self.usage[user] = self.usage.get(user, 0.0) + core_seconds

    def order(self, queue: Iterable[Task], now: float) -> list[Task]:
        queue = _ready_queue(queue)
        ordered = queue.view(fcfs_key)
        usage = {user: self.usage.get(user, 0.0) for user in queue.users()}
        if len(set(usage.values())) < 2:
            return ordered
        # A stable partition of the FCFS view by usage is the order of
        # the full (usage, submit_time, task_id) key.
        by_usage: dict[float, list[Task]] = {}
        for task in ordered:
            by_usage.setdefault(usage[task.user], []).append(task)
        return [task for value in sorted(by_usage)
                for task in by_usage[value]]


class BackfillPolicy(Policy):
    """FCFS with EASY backfilling.

    Ordering is FCFS; ``allows_backfill`` tells the simulator it may run
    later tasks out of order when they fit now and their *estimated*
    runtime ends before the head task's earliest possible start.
    """

    name = "backfill"

    def order(self, queue: Iterable[Task], now: float) -> list[Task]:
        return _ready_queue(queue).view(fcfs_key)

    def allows_backfill(self) -> bool:
        return True


#: Factory functions so every simulation gets fresh policy state.
POLICIES: dict[str, type] = {
    "fcfs": FCFSPolicy,
    "sjf": SJFPolicy,
    "ljf": LJFPolicy,
    "fair-share": FairSharePolicy,
    "backfill": BackfillPolicy,
}


def make_policy(name: str) -> Policy:
    if name not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(POLICIES)}")
    return POLICIES[name]()
