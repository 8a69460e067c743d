"""Resilience policies: the retry schedule.

:class:`RetryPolicy` gives bounded retries with exponential backoff and
jitter. It computes the schedule; the caller runs the loop, as
:class:`~repro.serverless.FaaSPlatform` does for faulted attempts:

>>> delay = RetryPolicy(max_attempts=3).backoff_s(
...     attempt, rng=streams.get("retry-jitter"))

(A policy with ``jitter > 0`` — the default — requires the rng; pass
``jitter=0.0`` explicitly to opt out of jittered backoff.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


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

