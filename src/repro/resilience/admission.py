"""Admission control and load shedding at a service front door.

Overload is the failure mode the paper's north-star scenarios ("heavy
traffic from millions of users") make unavoidable: when offered load
exceeds capacity, *something* gives. These primitives make the something a
policy decision instead of an accident:

- :class:`TokenBucketAdmitter` — classic rate limiting with a burst
  allowance: admit work at a sustainable rate, shed the excess at the
  door where it is cheapest;
- :class:`CoDelShedder` — CoDel-style (Nichols & Jacobson, 2012)
  queue-delay shedding: tolerate short bursts, but once queueing delay has
  stayed above the target for a full interval, shed at an increasing rate
  until the standing queue drains.

Both are deterministic (no RNG): given the same arrival times they make
the same decisions, which keeps overload scenarios bit-reproducible
(Challenge C3).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim import Environment

#: Tolerance for token comparisons (tokens accumulate float error).
_EPS = 1e-9


class TokenBucketAdmitter:
    """Admit up to ``rate_per_s`` requests sustained, ``burst`` in a spike.

    Tokens refill continuously at ``rate_per_s`` up to ``burst``; each
    admitted request spends ``cost`` tokens. A request arriving to an
    empty bucket is shed — not queued — so the admitter bounds the rate
    entering the system rather than hiding overload in a backlog.
    """

    def __init__(self, env: Environment, rate_per_s: float,
                 burst: float = 1.0):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst < 1.0:
            raise ValueError("burst must be >= 1")
        self.env = env
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self.name = "admitter"
        self._tokens = float(burst)
        self._refilled_at = env.now
        self.admitted = 0
        self.shed = 0

    def _refill(self) -> None:
        now = self.env.now
        if now > self._refilled_at:
            self._tokens = min(self.burst, self._tokens
                               + (now - self._refilled_at) * self.rate_per_s)
            self._refilled_at = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def admit(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; False means shed."""
        if cost <= 0:
            raise ValueError("cost must be positive")
        self._refill()
        if self._tokens + _EPS >= cost:
            self._tokens -= cost
            self.admitted += 1
            return True
        self.shed += 1
        return False

    @property
    def shed_rate(self) -> float:
        total = self.admitted + self.shed
        return self.shed / total if total else 0.0


class CoDelShedder:
    """Queue-delay-controlled shedding (the CoDel control law).

    Feed it the queueing delay of each request as it is dequeued
    (``should_shed(delay)``). While delays stay below ``target_s`` nothing
    is shed. Once the delay has remained above target for a full
    ``interval_s``, the shedder enters dropping mode: it sheds the current
    head and schedules the next shed ``interval_s / sqrt(n)`` later, so the
    shedding rate ramps up until the standing queue dissolves. Any dip
    below target resets the state — short bursts pass untouched.
    """

    def __init__(self, env: Environment, target_s: float = 0.05,
                 interval_s: float = 1.0):
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("target_s and interval_s must be positive")
        self.env = env
        self.target_s = target_s
        self.interval_s = interval_s
        self.name = "codel"
        #: Time the delay first exceeded target (None = below target).
        self._above_since: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self.evaluated = 0
        self.shed = 0

    @property
    def dropping(self) -> bool:
        return self._dropping

    def should_shed(self, queue_delay_s: float) -> bool:
        """Judge one dequeued request; True means shed it, don't serve it."""
        self.evaluated += 1
        now = self.env.now
        if queue_delay_s < self.target_s:
            self._above_since = None
            self._dropping = False
            self._drop_count = 0
            return False
        if self._above_since is None:
            self._above_since = now
            return False
        if not self._dropping:
            if now - self._above_since >= self.interval_s:
                # Sustained standing queue: start shedding, head first.
                self._dropping = True
                self._drop_count = 1
                self._drop_next = (now + self.interval_s
                                   / math.sqrt(self._drop_count))
                self.shed += 1
                return True
            return False
        if now >= self._drop_next:
            self._drop_count += 1
            self._drop_next = now + self.interval_s / math.sqrt(
                self._drop_count)
            self.shed += 1
            return True
        return False
