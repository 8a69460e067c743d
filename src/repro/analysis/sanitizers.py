"""Runtime sanitizers: determinism and resource-leak checks for scenarios.

The static rules in :mod:`repro.analysis.rules` catch the obvious contract
breaches; these sanitizers catch the rest *empirically*, the way race
detectors and memory sanitizers back up code review:

- :class:`DeterminismSanitizer` runs a scenario N times and diffs a
  digest of every dispatched event ``(t, eid, kind)`` across runs, then
  the scenario's return values — a single stray RNG draw, wall-clock
  read, or set-ordered decision shows up as a digest mismatch with the
  first diverging step.
- :class:`ResourceLeakSanitizer` audits tracked resources/machines at
  teardown for outstanding acquires — the runtime analogue of SL004.
- :class:`SharedStateSanitizer` is the shard-safety race detector: wrap a
  shared container with :meth:`~SharedStateSanitizer.watch` and it flags
  two processes writing it at the same sim timestamp with no ordering
  event between the writes — exactly the accesses that would diverge if
  the two processes landed on different shards of a distributed run.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import weakref
from typing import Any, Callable, Optional

from repro.sim.environment import Environment

__all__ = [
    "DeterminismSanitizer",
    "DeterminismViolation",
    "ResourceLeakError",
    "ResourceLeakSanitizer",
    "SharedStateSanitizer",
    "SharedStateViolation",
    "TraceDigest",
    "WatchedDict",
    "WatchedList",
    "WatchedSet",
]


class DeterminismViolation(AssertionError):
    """Two same-seed runs of a scenario produced different event traces
    or results."""


class ResourceLeakError(AssertionError):
    """A tracked resource still held acquisitions at teardown."""


#: ``(t, eid)`` of one event, in :class:`TraceDigest`'s byte format.
_EVENT_PREFIX = struct.Struct("<dQ")


class TraceDigest:
    """A streaming SHA-256 digest over dispatched events.

    Install it as an environment tracer; each dispatched event folds
    ``(t, eid, kind)`` into the digest as the bytes ``pack("<d", t) +
    pack("<Q", eid) + kind.encode()`` (UTF-8), with no separators. ``keep``
    retains the first N raw events so a mismatch can be localized, without
    storing whole traces.
    """

    def __init__(self, keep: int = 64):
        self._hash = hashlib.sha256()
        self.events = 0
        self.keep = keep
        self.head: list[tuple[float, int, str]] = []

    def __call__(self, t: float, eid: int, kind: str) -> None:
        self._hash.update(_EVENT_PREFIX.pack(t, eid) + kind.encode())
        if self.events < self.keep:
            self.head.append((t, eid, kind))
        self.events += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _first_divergence(a: "TraceDigest", b: "TraceDigest") -> str:
    for i, (ea, eb) in enumerate(zip(a.head, b.head)):
        if ea != eb:
            return f"first divergence at dispatch #{i}: {ea} vs {eb}"
    if a.events != b.events:
        return f"event counts differ: {a.events} vs {b.events}"
    return "divergence beyond the retained trace head"


class DeterminismSanitizer:
    """Runs a scenario repeatedly and requires identical event traces
    and return values.

    The scenario is any zero-argument callable that builds its own
    environment(s) and runs them — e.g. ``lambda:
    run_chaos_matrix(seed=7)``. All environments constructed while the
    scenario runs are traced via :meth:`Environment.traced`.
    """

    def __init__(self, runs: int = 2, keep: int = 64):
        if runs < 2:
            raise ValueError("need at least 2 runs to compare")
        self.runs = runs
        self.keep = keep
        self.digests: list[TraceDigest] = []

    def record(self, scenario: Callable[[], Any]) -> tuple[TraceDigest, Any]:
        """One traced execution of ``scenario``: its digest and result."""
        digest = TraceDigest(keep=self.keep)
        with Environment.traced(digest):
            result = scenario()
        return digest, result

    def check(self, scenario: Callable[[], Any],
              label: str = "scenario") -> str:
        """Run ``scenario`` ``runs`` times; raise on any mismatch.

        Event digests are compared first, then the scenario's return
        values (the campaign double-run oracle's order): identical
        dispatch that still returns a different result is a violation
        too. Returns the (common) hex digest on success.
        """
        runs = [self.record(scenario) for _ in range(self.runs)]
        self.digests = [digest for digest, _ in runs]
        first, result = runs[0]
        for i, (other, _) in enumerate(runs[1:], start=2):
            if other.hexdigest() != first.hexdigest():
                raise DeterminismViolation(
                    f"{label}: run 1 and run {i} diverged after dispatching "
                    f"{first.events} vs {other.events} events — "
                    f"{_first_divergence(first, other)}")
        for i, (_, other) in enumerate(runs[1:], start=2):
            if other != result:
                raise DeterminismViolation(
                    f"{label}: run 1 and run {i} dispatched identical "
                    "events but returned different results")
        return first.hexdigest()


class ResourceLeakSanitizer:
    """Audits outstanding acquisitions on tracked resources at teardown.

    Works with the kernel's :class:`~repro.sim.Resource` (``users``/
    ``queue``) and :class:`~repro.cluster.machine.Machine` (``used_cores``/
    ``used_memory_gb``).
    """

    def __init__(self):
        self._tracked: list[tuple[str, Any]] = []

    def track(self, obj: Any, name: Optional[str] = None) -> Any:
        """Register ``obj`` for the teardown audit; returns ``obj``."""
        label = name or f"{type(obj).__name__}@{len(self._tracked)}"
        self._tracked.append((label, obj))
        return obj

    def leaks(self) -> list[str]:
        """Human-readable descriptions of every outstanding acquisition."""
        problems: list[str] = []
        for label, obj in self._tracked:
            users = getattr(obj, "users", None)
            if users:
                problems.append(
                    f"{label}: {len(users)} unreleased request(s)")
            queue = getattr(obj, "queue", None)
            if queue:
                problems.append(
                    f"{label}: {len(queue)} request(s) still queued")
            used_cores = getattr(obj, "used_cores", 0)
            if used_cores:
                problems.append(
                    f"{label}: {used_cores} core(s) still allocated")
            used_mem = getattr(obj, "used_memory_gb", 0.0)
            if used_mem:
                problems.append(
                    f"{label}: {used_mem} GB still allocated")
        return problems

    def check(self) -> None:
        """Raise :class:`ResourceLeakError` if anything is still held."""
        problems = self.leaks()
        if problems:
            raise ResourceLeakError(
                "outstanding acquisitions at teardown:\n  "
                + "\n  ".join(problems))

    def __enter__(self) -> "ResourceLeakSanitizer":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        # Only audit on clean exit; don't mask the original exception.
        if exc_type is None:
            self.check()


# -- shared-state (shard-safety) sanitizer ----------------------------------

class SharedStateViolation(AssertionError):
    """Two processes wrote a watched object at one timestamp, unordered.

    Same-timestamp writes are only deterministic here because the kernel
    breaks ties by event id; in a sharded deployment the two writers race.
    An ordering event (one process triggers an event the other waited on,
    directly or transitively) makes the second write legitimate.
    """


class _Watched:
    """Mixin for watched containers: report every mutation to the owner."""

    _sanitizer: Optional["SharedStateSanitizer"] = None
    _shared_name: str = "shared"
    _frontier: dict

    def _note_write(self, op: str) -> None:
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer._on_write(self, op)


def _mutator(base_method):
    """Wrap a built-in mutating method to notify the sanitizer first."""
    @functools.wraps(base_method)
    def method(self, *args, **kwargs):
        self._note_write(base_method.__name__)
        return base_method(self, *args, **kwargs)
    return method


class WatchedDict(_Watched, dict):
    """``dict`` whose mutations are audited for same-timestamp races."""

    __setitem__ = _mutator(dict.__setitem__)
    __delitem__ = _mutator(dict.__delitem__)
    __ior__ = _mutator(dict.__ior__)
    pop = _mutator(dict.pop)
    popitem = _mutator(dict.popitem)
    clear = _mutator(dict.clear)
    update = _mutator(dict.update)
    setdefault = _mutator(dict.setdefault)


class WatchedList(_Watched, list):
    """``list`` whose mutations are audited for same-timestamp races."""

    __setitem__ = _mutator(list.__setitem__)
    __delitem__ = _mutator(list.__delitem__)
    __iadd__ = _mutator(list.__iadd__)
    __imul__ = _mutator(list.__imul__)
    append = _mutator(list.append)
    extend = _mutator(list.extend)
    insert = _mutator(list.insert)
    pop = _mutator(list.pop)
    remove = _mutator(list.remove)
    sort = _mutator(list.sort)
    reverse = _mutator(list.reverse)
    clear = _mutator(list.clear)


class WatchedSet(_Watched, set):
    """``set`` whose mutations are audited for same-timestamp races."""

    __ior__ = _mutator(set.__ior__)
    __iand__ = _mutator(set.__iand__)
    __isub__ = _mutator(set.__isub__)
    __ixor__ = _mutator(set.__ixor__)
    add = _mutator(set.add)
    discard = _mutator(set.discard)
    remove = _mutator(set.remove)
    pop = _mutator(set.pop)
    clear = _mutator(set.clear)
    update = _mutator(set.update)
    difference_update = _mutator(set.difference_update)
    intersection_update = _mutator(set.intersection_update)
    symmetric_difference_update = _mutator(set.symmetric_difference_update)


def _process_label(proc: Any) -> str:
    generator = getattr(proc, "_generator", None)
    return getattr(generator, "__name__", None) or repr(proc)


class SharedStateSanitizer:
    """Flags unordered same-timestamp writes to watched shared state.

    The static rule SL007 finds module-level mutable state *reachable*
    from sim processes; this sanitizer proves, at runtime, which of those
    objects are actually written concurrently. The algorithm is a small
    happens-before tracker (a vector clock over processes):

    - every write and every event scheduling bumps a global sequence
      counter;
    - when process ``P`` schedules an event (``succeed``, a timeout, a
      spawn), the event is stamped with a snapshot of everything ``P``
      has seen so far, including ``P``'s own writes up to that instant;
    - when a process wakes (the kernel exposes the dispatching event via
      ``env._current_event``) and then writes, it first absorbs the
      waking event's snapshot — that is the ordering edge;
    - each watched object keeps a *frontier* of the last write per
      process at the current timestamp. A write is a violation if some
      other process's frontier write at the same timestamp is **not** in
      the writer's absorbed knowledge.

    Writes outside any process (scenario setup/teardown) are exempt, as
    are writes at distinct timestamps — simulated time itself orders
    those.

    Use as a context manager so the kernel hook is uninstalled on exit::

        with SharedStateSanitizer(env) as sanitizer:
            log = sanitizer.watch([], name="completion-log")
            ... build processes that share ``log`` ...
            env.run()
    """

    def __init__(self, env: Environment, strict: bool = True):
        self.env = env
        #: When ``False``, violations are recorded but not raised.
        self.strict = strict
        self.violations: list[str] = []
        self._seq = 0
        self._watched = 0
        # Process -> {writer-process: highest seq of writer's actions seen}.
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # Event -> snapshot of the scheduler's knowledge at schedule time.
        self._snapshots: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._prev_hook = env._schedule_hook
        env._schedule_hook = self._note_schedule

    def close(self) -> None:
        """Uninstall the kernel scheduling hook (idempotent)."""
        if self.env._schedule_hook == self._note_schedule:
            self.env._schedule_hook = self._prev_hook

    def __enter__(self) -> "SharedStateSanitizer":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.close()

    def watch(self, obj: Any, name: Optional[str] = None) -> Any:
        """Wrap a ``dict``/``list``/``set`` in a watched copy; returns it.

        The original is shallow-copied — share the *returned* object.
        """
        if isinstance(obj, dict):
            watched: Any = WatchedDict(obj)
        elif isinstance(obj, list):
            watched = WatchedList(obj)
        elif isinstance(obj, (set, frozenset)):
            watched = WatchedSet(obj)
        else:
            raise TypeError(
                f"cannot watch {type(obj).__name__}; expected dict, list "
                "or set")
        self._watched += 1
        watched._sanitizer = self
        watched._shared_name = name or f"{type(obj).__name__}#{self._watched}"
        watched._frontier = {}
        return watched

    # -- kernel hooks --------------------------------------------------------
    def _absorb(self, proc: Any) -> None:
        """Merge the knowledge carried by the event that woke ``proc``.

        Called on every action ``proc`` takes (write or schedule), so
        ordering flows transitively even through processes that only
        relay — wake on one event, trigger another — without writing.
        """
        event = self.env._current_event
        if event is None:
            return
        snapshot = self._snapshots.get(event)
        if snapshot:
            mine = self._seen.setdefault(proc, {})
            for writer, upto in snapshot.items():
                if mine.get(writer, -1) < upto:
                    mine[writer] = upto

    def _note_schedule(self, event: Any) -> None:
        if self._prev_hook is not None:
            self._prev_hook(event)
        proc = self.env._active_process
        if proc is None:
            return
        self._absorb(proc)
        self._seq += 1
        snapshot = dict(self._seen.get(proc, ()))
        snapshot[proc] = self._seq
        self._snapshots[event] = snapshot

    def _on_write(self, watched: _Watched, op: str) -> None:
        env = self.env
        proc = env._active_process
        if proc is None:
            return
        self._absorb(proc)
        self._seq += 1
        now = env.now
        frontier = watched._frontier
        mine = self._seen.get(proc, {})
        # Frontier timestamps are verbatim copies of env.now (no float
        # arithmetic), so exact comparison is the right tool here.
        stale = [w for w, (t, _, _) in frontier.items()
                 if t != now]  # simlint: disable=SL006
        for writer in stale:
            del frontier[writer]  # earlier timestamps: ordered by time
        for writer, (t, seq, other_op) in list(frontier.items()):
            if writer is proc:
                continue
            if mine.get(writer, -1) >= seq:
                # An ordering event carried that write to us; it is now
                # part of our past, so our write supersedes it.
                del frontier[writer]
                continue
            message = (
                f"{watched._shared_name}: unordered writes at t={now}: "
                f"{_process_label(writer)} .{other_op}() then "
                f"{_process_label(proc)} .{op}() with no ordering event "
                "between them")
            self.violations.append(message)
            if self.strict:
                raise SharedStateViolation(message)
        frontier[proc] = (now, self._seq, op)
