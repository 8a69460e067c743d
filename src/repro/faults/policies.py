"""Resilience policies: the retry schedule and the hedge combinator.

- :class:`RetryPolicy` — bounded retries with exponential backoff and
  jitter. It computes the schedule; the caller runs the loop, as
  :class:`~repro.serverless.FaaSPlatform` does for faulted attempts:

  >>> delay = RetryPolicy(max_attempts=3).backoff_s(
  ...     attempt, rng=streams.get("retry-jitter"))

  (A policy with ``jitter > 0`` — the default — requires the rng; pass
  ``jitter=0.0`` explicitly to opt out of jittered backoff.)
- :class:`Hedge` — speculative duplicate attempt after a quantile delay;
  the first finisher wins (the classic tail-latency mitigation). It is a
  *sim-process combinator*: ``result = yield from hedge.run(env,
  factory)`` inside any :class:`~repro.sim.Process`, where ``factory``
  produces a fresh attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.sim import AnyOf, Environment, Event, Process


def as_event(env: Environment, attempt: Any) -> Event:
    """Normalize an attempt (generator or Event) into an Event to wait on."""
    if isinstance(attempt, Event):
        return attempt
    if hasattr(attempt, "throw"):  # a generator: run it as a process
        return env.process(attempt)
    raise TypeError(
        f"attempt must be an Event or a generator, got {type(attempt).__name__}")


def _defuse(event: Event) -> None:
    event._defused = True


def _abandon(event: Event) -> None:
    """Let an abandoned attempt finish (or fail) without crashing the sim."""
    if event.callbacks is not None:
        event.callbacks.append(_defuse)
    elif event.triggered and not event._ok:
        event._defused = True


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and optional jitter.

    ``max_attempts`` bounds the attempts; :meth:`backoff_s` gives the
    delay before each retry.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    #: Relative jitter: the delay is scaled by U(1 - jitter, 1 + jitter).
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        # Written so NaN fails every check: ``min()`` would silently drop
        # a NaN ``max_delay_s``.
        if not (self.base_delay_s >= 0 and self.max_delay_s >= 0):
            raise ValueError("delays must be non-negative")
        if not self.multiplier >= 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_s(self, attempt: int,
                  rng: Optional[np.random.Generator] = None) -> float:
        """Delay before retry number ``attempt`` (1-based).

        A policy with ``jitter > 0`` *requires* an rng: jitter exists to
        de-synchronize retry storms, and silently skipping it (the old
        behavior) ran chaos experiments with phase-locked retries while
        reporting a jittered configuration. Callers that genuinely want
        deterministic backoff must say so with ``jitter=0.0``.
        """
        delay = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                    self.max_delay_s)
        if self.jitter > 0:
            if rng is None:
                raise ValueError(
                    f"RetryPolicy has jitter={self.jitter} but backoff_s() "
                    "got rng=None; pass a named RandomStreams generator "
                    "(e.g. streams.get('retry-jitter')) or construct the "
                    "policy with jitter=0.0 to opt out explicitly")
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


class Hedge:
    """Speculative execution: if an attempt has not finished after
    ``delay_s`` (pick ~the attempt's p95 latency), launch a duplicate and
    take whichever finishes first. Up to ``max_hedges`` duplicates.
    """

    def __init__(self, delay_s: float, max_hedges: int = 1):
        if delay_s <= 0:
            raise ValueError("delay_s must be positive")
        if max_hedges < 1:
            raise ValueError("max_hedges must be >= 1")
        self.delay_s = delay_s
        self.max_hedges = max_hedges
        self.launched = 0
        self.hedges = 0
        self.hedge_wins = 0

    def run(self, env: Environment, factory: Callable[[], Any]):
        """Combinator: ``result = yield from hedge.run(env, factory)``."""
        attempts = [as_event(env, factory())]
        _abandon(attempts[0])
        self.launched += 1
        while True:
            can_hedge = len(attempts) <= self.max_hedges
            racers = list(attempts)
            if can_hedge:
                racers.append(env.timeout(self.delay_s))
            yield AnyOf(env, racers)
            winner = next((ev for ev in attempts if ev.triggered), None)
            if winner is None:
                # The hedge timer fired: launch a duplicate attempt.
                hedge = as_event(env, factory())
                _abandon(hedge)
                attempts.append(hedge)
                self.launched += 1
                self.hedges += 1
                continue
            if attempts.index(winner) > 0:
                self.hedge_wins += 1
            # Cancel the losers; their outcomes are already defused.
            for ev in attempts:
                if ev is not winner and isinstance(ev, Process) and ev.is_alive:
                    ev.interrupt("hedge-won")
            if winner.ok:
                return winner.value
            raise winner.value
