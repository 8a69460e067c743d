"""Contended resources: a capacity-limited FIFO server and a bounded queue.

:class:`Resource` is the kernel's claim-and-release primitive: processes
request a unit, wait for it, and release it. :class:`BoundedQueue` is the
FaaS platform's front-door queue: arrivals at a full queue are rejected,
never silently backlogged.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.events import Event


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ... use the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the unit if granted; withdraw the claim if still queued."""
        self.resource.release(self)


class Resource:
    """A FIFO resource with fixed integer capacity."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {len(self.users)}/{self._capacity} "
                f"used, {len(self.queue)} queued>")

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Units currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._trigger_queue()
        elif request in self.queue:
            self.queue.remove(request)

    # -- internals ---------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            self.queue.append(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.succeed()

    def _trigger_queue(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            self._grant(self.queue.pop(0))


class BoundedQueue:
    """A capacity-bounded FIFO queue that rejects arrivals when full.

    Arrivals are never suspended: :meth:`offer` returns False at a full
    queue, so overflow is visible to the caller — the backpressure signal
    an unbounded FIFO silently swallows. :meth:`pop` reports how long the
    item waited, the signal CoDel-style shedding and brownout controllers
    feed on.
    """

    def __init__(self, env, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = int(capacity)
        #: Queued entries as (enqueued_at, item), oldest first.
        self._entries: list[tuple[float, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<BoundedQueue {len(self._entries)}/{self.capacity}>"

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def head_delay(self) -> float:
        """How long the oldest queued item has waited (0 if empty)."""
        if not self._entries:
            return 0.0
        return self.env.now - self._entries[0][0]

    def offer(self, item: Any) -> bool:
        """Enqueue ``item``; False means the queue is full (rejected)."""
        if self.full:
            return False
        self._entries.append((self.env.now, item))
        return True

    def pop(self) -> Optional[tuple[Any, float]]:
        """Dequeue the oldest item as ``(item, waited_s)``, or None."""
        if not self._entries:
            return None
        enqueued_at, item = self._entries.pop(0)
        return item, self.env.now - enqueued_at
