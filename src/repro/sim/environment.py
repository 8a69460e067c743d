"""The simulation environment: clock, event queue, and run loop.

The dispatch machinery is split into two tiers:

- an *instrumented* tier (:meth:`Environment.step`) that feeds tracers,
  the profiler, debug invariants, and the scheduling hook; and
- a *fast* tier, one loop inlined into :meth:`Environment.run`, that
  dispatches straight off the heap with pre-bound locals when none of
  those are installed — the common case, and the hot path under every
  domain.

Both tiers halt by one rule: only a finite ``until`` time stops a run
short of a queued event (events at or after it stay queued); any other
run dispatches everything queued, events at ``t = inf`` included.

Which tier runs is decided once per :meth:`Environment.run`, at entry,
from the hooks installed at that point (tracers, the profiler, debug
mode, the scheduling hook): a hook installed while a run is under way
takes effect from the next ``run()``.

Queue entries are mutable lists ``[time, priority, eid, obj, remaining,
period]`` rather than tuples so the ticker fast path (see
:class:`repro.sim.Ticker`) can reschedule by mutating the root entry in
place and re-sifting once (``heapreplace``) instead of allocating and
doing a pop + push. The last two cells are ticker batch state; they are
zero on every other entry, which lets the run loop recognize a mid-batch
tick — the highest-volume dispatch — from ``entry[4]`` alone, without
loading the payload object or checking its class. Entries never compare
beyond the eid cell (eids are unique), so the trailing cells don't
affect heap order.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.sim.events import (
    _NORMAL,
    _URGENT,
    Event,
    Process,
    Ticker,
    Timeout,
    _reschedule_ticker,
    _resume_ticker,
    _retire_entry,
)

#: Relative epsilon of :func:`time_eq`: generous for second-scale sim time,
#: tight enough to distinguish distinct scheduled instants.
TIME_EPSILON = 1e-9


def time_eq(a: float, b: float) -> bool:
    """Whether two sim timestamps are equal up to accumulated float error.

    Sim time is a float advanced by summing delays, so exact ``==`` on it
    is fragile (simlint rule SL006). The tolerance scales with magnitude:
    ``|a - b| <= TIME_EPSILON * max(1, |a|, |b|)``.
    """
    return abs(a - b) <= TIME_EPSILON * max(1.0, abs(a), abs(b))


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""


class EmptySchedule(Exception):
    """Raised when the event queue runs dry before ``until``."""


class DebugViolation(AssertionError):
    """A kernel invariant failed while running with ``debug=True``."""


class Environment:
    """A deterministic discrete-event simulation environment.

    Time is a float starting at ``initial_time`` (default 0) and advances
    only when events are dispatched. Events scheduled at the same timestamp
    dispatch in (priority, insertion-order), which makes runs fully
    deterministic.
    """

    #: Process-wide tracers inherited by environments created inside a
    #: :meth:`traced` block (the determinism sanitizer's hook, the span
    #: tracer's kernel feed). Nested blocks stack additively.
    _default_tracers: tuple = ()
    #: Process-wide profiler inherited by environments created inside a
    #: :meth:`profiled` block (wall-clock attribution per event kind and
    #: per process; see :class:`repro.observability.SimProfiler`).
    _default_profiler = None

    # The environment is touched on every dispatch; slots keep attribute
    # access dict-free (class attributes above are unaffected by slots).
    __slots__ = ("_now", "_queue", "_eid", "_active_process", "_debug",
                 "_tracers", "_profiler", "dispatch_count", "_current_event",
                 "_schedule_hook")

    def __init__(self, initial_time: float = 0.0, debug: bool = False):
        self._now = float(initial_time)
        self._queue: list[list] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Debug mode: assert kernel invariants (clock monotonicity,
        #: non-negative delays, sane dispatch counters) on every step.
        self._debug = bool(debug)
        #: Every callable here is invoked as ``tracer(t, eid, kind)`` for
        #: each dispatched event. Multiple subscribers may be active at
        #: once (e.g. a determinism digest and a span tracer).
        self._tracers: list[Callable[[float, int, str], None]] = list(
            Environment._default_tracers)
        #: Optional profiler; when set, :meth:`step` attributes wall-clock
        #: time per event kind and per resumed process to it.
        self._profiler = Environment._default_profiler
        #: Events dispatched so far (a non-negative, monotone counter).
        self.dispatch_count = 0
        #: The event whose callbacks :meth:`step` is currently running;
        #: sanitizers use it to attribute effects to their causing event.
        self._current_event: Optional[Event] = None
        #: Optional hook called as ``fn(event)`` whenever an event is
        #: scheduled (see :class:`repro.analysis.SharedStateSanitizer`).
        self._schedule_hook: Optional[Callable[[Event], None]] = None

    def add_tracer(self, fn: Callable[[float, int, str], None]) -> None:
        """Subscribe ``fn`` to every dispatched event (additive).

        Install it before :meth:`run`: the run loop picks its tier once,
        at entry, so a tracer added during a fast-tier run sees nothing
        until the next ``run()``.
        """
        self._tracers.append(fn)

    @classmethod
    @contextmanager
    def traced(cls, tracer: Callable[[float, int, str], None]):
        """Install ``tracer`` on every Environment created in the block.

        This is how :class:`repro.analysis.sanitizers.DeterminismSanitizer`
        observes scenarios that construct their own environments. Nested
        ``traced`` blocks stack: every active tracer sees every event.
        """
        previous = cls._default_tracers
        cls._default_tracers = previous + (tracer,)
        try:
            yield tracer
        finally:
            cls._default_tracers = previous

    @classmethod
    @contextmanager
    def profiled(cls, profiler):
        """Install ``profiler`` on every Environment created in the block.

        The profiler (see :class:`repro.observability.SimProfiler`)
        receives per-dispatch and per-callback wall-clock attributions
        from :meth:`step`. Only one profiler is active at a time; nested
        blocks shadow the outer profiler for their duration.
        """
        previous = cls._default_profiler
        cls._default_profiler = profiler
        try:
            yield profiler
        finally:
            cls._default_profiler = previous

    def __repr__(self) -> str:
        return f"<Environment t={self._now} queued={len(self._queue)}>"

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator function's generator."""
        return Process(self, generator)

    def ticker(self, generator: Union[Generator, Iterable]) -> Ticker:
        """Start a pure-delay process on the timeout fast path.

        ``generator`` — a generator, or any iterator such as a
        precomputed delay list wrapped in ``iter()`` — yields raw
        delays: ``yield d`` for one tick, ``yield (period, n)`` for a
        batch of ``n`` fixed-period ticks — instead of events (see
        :class:`repro.sim.Ticker`). The body starts urgently at the
        current time, like ``process``.
        """
        ticker = Ticker(self, generator)
        entry = [self._now, _URGENT, next(self._eid), ticker, 0, 0.0]
        ticker._entry = entry
        heappush(self._queue, entry)
        return ticker

    def all_of(self, events) -> "Event":
        from repro.sim.events import AllOf
        return AllOf(self, events)

    def any_of(self, events) -> "Event":
        from repro.sim.events import AnyOf
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, event: Event, priority: int = _NORMAL,
                  delay: float = 0.0) -> None:
        if self._debug and not delay >= 0:  # NaN included
            raise DebugViolation(
                f"scheduling {event!r} with negative delay {delay}")
        heappush(self._queue,
                 [self._now + delay, priority, next(self._eid), event, 0, 0.0])
        hook = self._schedule_hook
        if hook is not None:
            hook(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Dispatch exactly one event (advancing the clock to it).

        This is the instrumented dispatch tier: it feeds tracers, the
        profiler, debug invariants, and ``_current_event``. The run loop
        routes through here only when a hook is installed as it starts;
        manual stepping always uses it (the overhead is irrelevant off the hot
        loop, and behavior is identical either way).
        """
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        entry = queue[0]
        t = entry[0]
        obj = entry[3]
        if self._debug and t < self._now:
            raise DebugViolation(
                f"clock would move backwards: {self._now} -> {t} "
                f"dispatching {obj!r}")
        self._now = t
        self.dispatch_count += 1
        profiler = self._profiler
        tracers = self._tracers
        if tracers or profiler is not None:
            kind = obj._kind
            for tracer in tracers:
                tracer(t, entry[2], kind)
        if obj.__class__ is Ticker:
            # A tick: advance the ticker in place; no callbacks run
            # (the generator body is the "callback").
            self._current_event = obj
            if profiler is None:
                self._advance_ticker(queue, entry, obj, t)
            else:
                t0 = profiler.clock()
                self._advance_ticker(queue, entry, obj, t)
                profiler.account_dispatch(kind, profiler.clock() - t0)
            self._current_event = None
            return
        heappop(queue)
        event = obj
        self._current_event = event
        callbacks = event.callbacks
        event.callbacks = None
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            t0 = profiler.clock()
            for callback in callbacks:
                c0 = profiler.clock()
                callback(event)
                profiler.account_callback(callback, profiler.clock() - c0)
            profiler.account_dispatch(kind, profiler.clock() - t0)
        self._current_event = None
        if not event._ok and not event._defused:
            # An unhandled failure: surface it rather than losing it.
            raise event._value

    @staticmethod
    def _advance_ticker(queue: list, entry: list, ticker: Ticker,
                        t: float) -> None:
        """Dispatch one tick of the ticker whose entry is ``queue[0]``."""
        remaining = entry[4]
        if remaining:
            # Mid-batch: reschedule by mutating the root in place — one
            # sift, no allocation, no generator resume.
            entry[4] = remaining - 1
            entry[0] = t + entry[5]
            heapreplace(queue, entry)
        else:
            _resume_ticker(queue, entry, ticker, t)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None`` or ``inf``: dispatch everything queued, even at inf;
        - a finite number: dispatch events before it, then set ``now`` to it;
        - an :class:`Event`: run until that event is processed, returning
          its value (or raising its failure).
        """
        stop_at = float("inf")
        bounded = False
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            stop_event.callbacks.append(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if not stop_at > self._now:  # NaN included
                raise ValueError(
                    f"until ({stop_at}) must be greater than now ({self._now})")
            bounded = stop_at != float("inf")

        # The tier is fixed for the whole run. Hot loops: everything
        # touched per dispatch is pre-bound to a local. Both loops halt on
        # ``t >= stop_at and bounded``; unbounded, ``stop_at`` is inf, so
        # ``bounded`` is read only for an event at inf, which such a run
        # dispatches.
        queue = self._queue
        instrumented = bool(self._tracers or self._profiler is not None
                            or self._schedule_hook is not None or self._debug)
        step = self.step
        ticker_cls = Ticker
        resched = _reschedule_ticker
        retire = _retire_entry
        replace = heapreplace
        push = heappush
        pop = heappop
        normal = _NORMAL
        dispatches = 0
        t = self._now
        try:
            if instrumented:
                # -- instrumented tier: every dispatch via step().
                while queue:
                    t = queue[0][0]
                    if t >= stop_at and bounded:
                        break
                    step()
            elif queue:
                # -- fast tier. ``while True``: a mid-batch tick never
                # changes the queue size, so emptiness is re-checked only
                # after dispatches that can pop (the user-code exits).
                while True:
                    entry = queue[0]
                    t = entry[0]
                    if t >= stop_at and bounded:
                        break
                    dispatches += 1
                    remaining = entry[4]
                    if remaining:
                        # Mid-batch tick (only ticker entries count
                        # batches): no payload load, no class check and,
                        # as no user code runs, no clock store yet.
                        entry[4] = remaining - 1
                        entry[0] = t + entry[5]
                        replace(queue, entry)
                        continue
                    obj = entry[3]
                    if obj.__class__ is ticker_cls:
                        # Resume point: the common case (a non-negative
                        # float) is inlined, as a ``_resume_ticker`` call
                        # is measurable at tick rate; all else (batches,
                        # ints, invalid yields, termination) funnels to
                        # the helpers the step() tier uses.
                        self._now = t
                        try:
                            d = obj._generator.__next__()
                        except StopIteration as stop:
                            retire(queue, entry)
                            obj._finish(stop.value)
                        except Exception as err:
                            retire(queue, entry)
                            obj._crash(err)
                        else:
                            if d.__class__ is float and d >= 0.0:
                                entry[0] = t + d
                                entry[1] = normal
                                if queue[0] is entry:
                                    replace(queue, entry)
                                else:
                                    # Displaced mid-resume by something
                                    # the generator scheduled (rare).
                                    retire(queue, entry)
                                    push(queue, entry)
                            else:
                                resched(queue, entry, obj, t, d)
                        if not queue:
                            break
                        continue
                    self._now = t
                    pop(queue)
                    callbacks = obj.callbacks
                    obj.callbacks = None
                    for callback in callbacks:
                        callback(obj)
                    if not obj._ok and not obj._defused:
                        raise obj._value
                    if not queue:
                        break
        except StopSimulation as stop:
            event = stop.args[0]
            if event._ok:
                return event._value
            raise event._value
        finally:
            # ``t`` is the time of the last dispatched (or, on a halt,
            # peeked — corrected right below) entry.
            self._now = t
            self.dispatch_count += dispatches
        if stop_event is not None:
            raise RuntimeError(
                "event queue ran dry before the until-event triggered")
        if bounded:
            self._now = stop_at
        return None

    def _stop_callback(self, event: Event) -> None:
        event._defused = True
        raise StopSimulation(event)
