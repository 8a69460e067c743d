"""Event primitives for the discrete-event simulation kernel.

Events follow a small life-cycle: *pending* (created, not yet scheduled),
*triggered* (scheduled on the environment's queue with a value), and
*processed* (callbacks ran). Processes are themselves events that trigger
when their generator ends, so processes can wait on each other.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Generator, Iterable, Optional

#: Sentinel for "no value yet"; distinguishes an untriggered event from one
#: triggered with ``None``.
PENDING = object()


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment that will dispatch this event's callbacks.
    """

    # Events are created per-dispatch on the kernel hot path; slots keep
    # them dict-free. ``__weakref__`` stays so sanitizers can key weak maps
    # on live events without pinning them.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "__weakref__")

    #: Interned event-kind string handed to tracers/profilers. Kept as a
    #: class attribute so the instrumented dispatch path loads one shared
    #: string instead of rebuilding ``type(event).__name__`` per event.
    _kind = "Event"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._kind = sys.intern(cls.__name__)

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set when a failure was given a chance to be handled.
        self._defused: bool = False

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self)

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if not delay >= 0:  # NaN included
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the kernel's highest-volume allocation, so the
        # Event field init is flattened here (one frame, no super call)
        # and the event is born triggered.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        # Environment._schedule, inlined (same eid draw, same hook call);
        # the negative-delay check is the ValueError above.
        heappush(env._queue,
                 [env._now + delay, _NORMAL, next(env._eid), self, 0, 0.0])
        hook = env._schedule_hook
        if hook is not None:
            hook(self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):  # noqa: F821
        super().__init__(env)
        self.callbacks = [process._wake]
        self._ok = True
        self._value = None
        env._schedule(self, priority=_URGENT)


#: Scheduling priorities: urgent events (process init, interrupts) dispatch
#: before normal events at the same timestamp.
_URGENT = 0
_NORMAL = 1


class Process(Event):
    """Wraps a generator; the de-facto "thread" of the simulation.

    The process is itself an event that triggers with the generator's return
    value when it finishes (or fails with the escaping exception), so other
    processes can ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "_target", "_wake")

    def __init__(self, env: "Environment", generator: Generator):  # noqa: F821
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The wake-up callback every event this process waits on gets,
        #: bound once (and dropped when the process ends).
        self._wake = self._resume
        #: The event this process currently waits on; first its start.
        self._target: Optional[Event] = Initialize(env, self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) at t={self.env.now}>"

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks = [self._wake]
        self.env._schedule(interrupt_ev, priority=_URGENT)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        The process's only wake-up callback: its start, its interrupts
        and every event it waits on land here, in one frame. A wake-up
        after the process ended, or from an event it no longer waits on
        (it was interrupted meanwhile), is stale and dropped.
        """
        if self._value is not PENDING or (
                self._target is not event
                and not isinstance(event._value, Interrupt)):
            return
        env = self.env
        env._active_process = self
        generator = self._generator
        ok = event._ok
        value = event._value
        if not ok:
            event._defused = True
        while True:
            try:
                if ok:
                    next_event = generator.send(value)
                else:
                    next_event = generator.throw(value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                break
            except Exception as err:
                self._ok = False
                self._value = err
                self._defused = False
                break
            except BaseException:
                # Ctrl-C or an alarm: not a process failure. It stops
                # env.run, leaving no process marked active.
                env._active_process = None
                raise
            if not isinstance(next_event, Event):
                # Thrown in on the next pass like a failed event's error:
                # uncaught, it crashes the process with a clear message;
                # caught, the generator's next yield is handled as usual.
                ok = False
                value = RuntimeError(
                    f"process yielded a non-event "
                    f"({type(next_event).__name__}); yield Timeout, "
                    "Process, Resource requests, or other Event instances")
                continue
            callbacks = next_event.callbacks
            if callbacks is not None:
                # Not yet processed: subscribe and go to sleep.
                callbacks.append(self._wake)
                self._target = next_event
                env._active_process = None
                return
            # Already processed: loop immediately with its outcome.
            ok = next_event._ok
            value = next_event._value
            if not ok:
                next_event._defused = True
        env._schedule(self)
        self._target = None
        self._wake = None
        env._active_process = None


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):  # noqa: F821
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("events from different environments")
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev.triggered and ev._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Ticker:
    """A pure-delay process on the kernel's timeout fast path.

    Created via :meth:`Environment.ticker` from a generator — or any
    iterator, e.g. a precomputed list of task durations wrapped in
    ``iter()``, which ticks without resuming Python code at all — that
    yields *raw delays* instead of events:

    - ``yield d`` (a non-negative number): one tick, ``d`` time units
      from now — the fast-path analogue of ``yield env.timeout(d)``;
    - ``yield (period, n)`` (``n`` a positive int): ``n`` ticks at fixed
      ``period`` — batched timeout scheduling. The generator resumes
      only after the n-th tick, so fixed-period loops (gossip rounds,
      heartbeats, poll intervals) skip the per-tick generator resume;
    - ``return value``: the ticker ends and :attr:`completed` succeeds
      with ``value`` (other processes join via ``yield t.completed``;
      a plain iterator ends with ``None``).

    Every tick is a real dispatched kernel event: it advances the clock,
    increments ``dispatch_count``, and is visible to tracers and the
    profiler as kind ``"Tick"``. Tick times are bit-identical to the
    equivalent ``timeout`` chain (each tick time is ``previous + d``).

    Determinism: all of a ticker's ticks reuse the single queue entry id
    allocated at spawn, so same-time ties against other events break by
    *spawn* order (a ticker spawned before an event was scheduled wins
    the tie for its whole lifetime). Tickers cannot wait on events or be
    interrupted — use :class:`Process` for that; an exception escaping
    the generator fails :attr:`completed` (unhandled if nobody waits).
    """

    __slots__ = ("env", "_generator", "_entry", "completed", "__weakref__")

    #: Kind string for tick dispatches (class-level, like Event._kind).
    _kind = "Tick"

    def __init__(self, env: "Environment", generator: Iterable):  # noqa: F821
        if not hasattr(generator, "__next__"):
            raise TypeError(
                f"{generator!r} is not a generator or iterator")
        self.env = env
        self._generator = generator
        #: The ticker's queue entry ``[time, priority, eid, self,
        #: remaining, period]``. Batch state lives *in the entry* so the
        #: dispatch loop works on list indices instead of slot lookups;
        #: the entry is reused (mutated and re-sifted) for every tick.
        self._entry: Optional[list] = None
        #: Event that triggers with the generator's return value when the
        #: ticker ends (or fails with the escaping exception).
        self.completed = Event(env)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Ticker({name}) at t={self.env.now}>"

    @property
    def done(self) -> bool:
        return self.completed.triggered

    def _finish(self, value: Any) -> None:
        self.completed.succeed(value)

    def _crash(self, err: BaseException) -> None:
        self.completed.fail(err)


def _retire_entry(queue: list, entry: list) -> None:
    """Remove a finished/crashed ticker's entry from the heap.

    Common case: the entry is still the root — one pop. Rare case: the
    generator scheduled something (an urgent process spawn, another
    ticker) that displaced it; entries are unique by eid, so ``index``
    finds exactly this entry, and swap-with-last + heapify restores the
    invariant in O(n), which is fine at churn frequency.
    """
    if queue[0] is entry:
        heappop(queue)
        return
    pos = queue.index(entry)
    last = queue.pop()
    if last is not entry:
        queue[pos] = last
        heapify(queue)


def _reschedule_ticker(queue: list, entry: list, ticker: Ticker,
                       t: float, d: Any) -> None:
    """Validate a yielded delay ``d`` and reschedule ``entry``.

    The slow tail of a ticker resume: ``(period, n)`` batches, int
    delays, and invalid yields all land here (the run loop inlines only
    the common non-negative-float case). The entry is still in the heap;
    in the common case it is still the root and the reschedule is one
    in-place key bump + ``heapreplace`` sift. If the generator scheduled
    something that displaced the root, the entry is pulled from the
    interior instead (rare, O(n)).
    """
    try:
        if d.__class__ is tuple:
            d, n = d
            if n.__class__ is not int or n < 1:
                raise ValueError(
                    f"tick batch count must be a positive int, got {n!r}")
            remaining = n - 1
        else:
            remaining = 0
        next_t = t + d  # also rejects non-numeric yields (TypeError)
        if not d >= 0:  # NaN included
            raise ValueError(f"negative tick delay {d}")
    except (TypeError, ValueError) as err:
        _retire_entry(queue, entry)
        close = getattr(ticker._generator, "close", None)
        if close is not None:  # plain iterators have no close()
            close()
        ticker._crash(RuntimeError(
            f"ticker yielded an invalid value ({err}); yield a "
            "non-negative delay or a (period, count) batch"))
        return
    entry[0] = next_t
    entry[1] = _NORMAL
    entry[4] = remaining
    entry[5] = d
    if queue[0] is entry:
        heapreplace(queue, entry)
    else:
        _retire_entry(queue, entry)
        heappush(queue, entry)


def _resume_ticker(queue: list, entry: list, ticker: Ticker,
                   t: float) -> None:
    """Resume a ticker generator; ``entry`` is the heap root (just
    dispatched at time ``t``). The entry is left in the heap across the
    resume — see :func:`_reschedule_ticker` for why.
    """
    try:
        d = ticker._generator.__next__()
    except StopIteration as stop:
        _retire_entry(queue, entry)
        ticker._finish(stop.value)
        return
    except Exception as err:
        _retire_entry(queue, entry)
        ticker._crash(err)
        return
    _reschedule_ticker(queue, entry, ticker, t, d)
