"""Failure detection: heartbeats and phi-accrual suspicion.

The paper's Principle P4 makes RM&S-driven self-awareness a design
obligation, and its companion vision names imperfect failure information a
defining ecosystem phenomenon: real components never *know* a peer died —
they *suspect* it, after a detection latency, with a false-positive risk.
This module provides that imperfect knowledge as seeded sim processes:

- :class:`HeartbeatEmitter` — one component's periodic "I am alive"
  signal, jittered from a named RNG stream, silenced while the target is
  down;
- :class:`PhiAccrualDetector` — the phi-accrual failure detector (Hayashibara
  et al., 2004): suspicion is a continuous scale ``phi = -log10 P(alive)``
  derived from the observed heartbeat inter-arrival distribution, thresholded
  into a binary suspect/trust verdict.

The detector counts its own quality metrics without ground truth: a
suspicion later cleared by a heartbeat from the same target was, by
definition, false. Detection latency against ground truth is measured by
the harness (:mod:`repro.faults.chaos`), which knows when it crashed what.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from itertools import repeat
from operator import sub
from typing import Any, Callable, Optional

import numpy as np

from repro.sim import Environment, Monitor

_SQRT2 = math.sqrt(2.0)

#: Cap on phi so that an underflowing tail probability stays finite.
PHI_MAX = 300.0

#: An ``erfc`` argument whose tail probability underflows to 0, so
#: :func:`_phi_of` is ``PHI_MAX`` there.
_X_UNDERFLOW = 40.0


def _phi_of(x: float) -> float:
    """Phi of a normalized lateness ``x = (elapsed - mean) / (std*sqrt2)``;
    monotone non-decreasing in ``x``."""
    p_late = 0.5 * math.erfc(x)
    if p_late <= 0.0:
        return PHI_MAX
    return min(-math.log10(p_late), PHI_MAX)


def _calm_margin(threshold: float, min_std_s: float) -> float:
    """How long past a key's window mean phi provably stays below
    ``threshold``, whatever the window holds.

    The guarded std is never below ``min_std_s``, so until ``elapsed -
    mean`` reaches ``x_lo * sqrt2 * min_std_s`` the erfc argument stays
    at or below ``x_lo``, the largest argument (found by bisection over
    :func:`_phi_of` itself) whose phi is below ``threshold``. The
    ``1e-6`` relative slack dwarfs float rounding at sim times up to
    1e3 s. ``-inf`` turns the horizon off: no positive std floor, or
    phi already at the threshold on time.
    """
    if min_std_s <= 0 or _phi_of(0.0) >= threshold:
        return -math.inf
    if threshold > PHI_MAX:
        return math.inf
    lo, hi = 0.0, _X_UNDERFLOW
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _phi_of(mid) < threshold:
            lo = mid
        else:
            hi = mid
    return lo * (1.0 - 1e-6) * _SQRT2 * min_std_s


class HeartbeatEmitter:
    """Periodic heartbeats from one component to a detector.

    Runs as a sim process: every ``interval_s`` (jittered by the named RNG
    stream, so two emitters never phase-lock) it delivers a heartbeat to the
    detector — unless ``is_up`` says the component is down, in which case
    the beat is silently skipped (a crashed component cannot announce its
    own death; the detector must infer it from the silence).

    An emitter with ``jitter > 0`` — the default — *requires* an rng:
    jitter exists to de-synchronize emitters, and silently skipping it
    (the old behavior) ran phase-locked heartbeats while reporting a
    jittered configuration — the same trap
    :meth:`repro.faults.policies.RetryPolicy.backoff_s` closed. Callers
    that genuinely want metronome beats must say so with ``jitter=0.0``.
    """

    def __init__(self, env: Environment, detector: "PhiAccrualDetector",
                 key: Any, interval_s: float,
                 rng: Optional[np.random.Generator] = None,
                 jitter: float = 0.1,
                 is_up: Optional[Callable[[], bool]] = None,
                 network=None, src: Optional[str] = None,
                 dst: Optional[str] = None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if jitter > 0 and rng is None:
            raise ValueError(
                "jitter > 0 requires a named rng stream "
                "(RandomStreams.get); pass jitter=0.0 explicitly for "
                "unjittered beats")
        if network is not None and (src is None or dst is None):
            raise ValueError("network routing needs src and dst node names")
        self.env = env
        self.detector = detector
        self.key = key
        self.interval_s = interval_s
        self.rng = rng
        self.jitter = jitter
        self._is_up = is_up
        #: Optional :class:`~repro.sim.Network`: beats become
        #: ``kind="heartbeat"`` messages from ``src`` to ``dst``, so a
        #: partition silences this emitter exactly like a crash would —
        #: from the detector's seat the two are indistinguishable, which
        #: is the phenomenon the partition studies measure.
        self.network = network
        self.src = src
        self.dst = dst
        self.sent = 0
        self.suppressed = 0
        #: Beats the network blocked or dropped in transit.
        self.lost = 0
        detector.register(key, interval_s)
        self._proc = env.process(self._beat())

    def _beat(self):
        def deliver():  # one callable for every beat, not one per beat
            self.detector.heartbeat(self.key)

        while True:
            delay = self.interval_s
            if self.jitter > 0:  # rng presence enforced at construction
                delay *= 1.0 + self.jitter * (2.0 * float(self.rng.random())
                                              - 1.0)
            yield self.env.timeout(delay)
            if not (self._is_up is None or self._is_up()):
                self.suppressed += 1
                continue
            if self.network is None:
                self.sent += 1
                deliver()
                continue
            verdict = self.network.send(self.src, self.dst, deliver=deliver,
                                        kind="heartbeat")
            if verdict in ("delivered", "in_flight"):
                self.sent += 1
            else:
                self.lost += 1


class PhiAccrualDetector:
    """Phi-accrual failure detection over heartbeat arrivals.

    For each registered key the detector keeps a sliding window of
    heartbeat inter-arrival times; ``phi(key)`` is ``-log10`` of the
    probability that a heartbeat is merely late (normal tail), so phi grows
    without bound while a target stays silent. ``is_suspect`` thresholds
    phi and records suspicion onsets; a heartbeat arriving from a suspected
    key clears the suspicion and books it as false.

    An optional poll process (``poll_interval_s``) re-evaluates every key
    periodically so suspicion onsets are recorded with bounded latency even
    when nobody queries the detector — and so detection latency is a
    measurable property of the configuration, not of the caller's luck.
    """

    #: Extra std (as a fraction of the mean interval) granted while a key
    #: has fewer than ``min_samples`` real heartbeats: the primed window
    #: is a guess, not evidence, so suspicion needs a wider margin until
    #: the guess decays into observations.
    PRIME_STD_FACTOR = 0.5

    def __init__(self, env: Environment, threshold: float = 8.0,
                 window: int = 32, min_std_s: float = 0.1,
                 poll_interval_s: Optional[float] = None,
                 min_samples: int = 3,
                 variance_cv: float = 0.35,
                 monitor: Optional[Monitor] = None,
                 name: str = "phi"):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        if poll_interval_s is not None and poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if variance_cv <= 0:
            raise ValueError("variance_cv must be positive")
        self.env = env
        self.threshold = threshold
        self.window = window
        self.min_std_s = min_std_s
        #: Real heartbeats required before the prime-decay guard lifts.
        self.min_samples = min_samples
        #: Coefficient-of-variation boundary of :meth:`suspect_reason`:
        #: onsets over a window noisier than this are tagged
        #: ``"variance"`` (the source's own jitter inflated phi), calmer
        #: ones ``"silence"`` (a regular source simply went quiet — the
        #: partition/crash signature).
        self.variance_cv = variance_cv
        self.monitor = Monitor(env) if monitor is None else monitor
        self.name = name
        self._intervals: dict[Any, deque] = {}
        self._last: dict[Any, float] = {}
        #: Real (non-primed) heartbeats observed per key.
        self._observed: dict[Any, int] = {}
        #: Sim time before which phi of a key is provably below the
        #: threshold (window mean + :func:`_calm_margin` past its last
        #: heartbeat), so :meth:`is_suspect` need not compute it.
        self._calm_until: dict[Any, float] = {}
        self._calm_margin = _calm_margin(threshold, min_std_s)
        #: Registered keys sorted by ``str`` (ties in registration order):
        #: the order :meth:`_poll` evaluates them in.
        self._poll_order: list[Any] = []
        #: Onset time of each currently-standing suspicion.
        self._suspected_at: dict[Any, float] = {}
        #: Reason tag of each currently-standing suspicion.
        self._suspect_reasons: dict[Any, str] = {}
        #: Every suspicion onset, as (key, onset_time, reason) in onset
        #: order.
        self.suspicion_log: list[tuple[Any, float, str]] = []
        self.heartbeats = 0
        # Ints, not views: subclasses overriding is_suspect() write them.
        self.suspicions = 0
        #: Onset counts per reason tag (all-time, never decremented).
        self.suspicions_by_reason: dict[str, int] = {"silence": 0,
                                                     "variance": 0}
        if poll_interval_s is not None:
            env.process(self._poll(poll_interval_s))

    #: Suspicions later cleared by a heartbeat (wrongly accused).
    false_suspicions = property(
        lambda self: self.monitor.total(f"{self.name}_false_suspicions"))

    # -- observation -------------------------------------------------------
    def register(self, key: Any, expected_interval_s: float) -> None:
        """Start tracking ``key``, priming the window with the expected
        interval so phi is meaningful from the first silence onward."""
        if expected_interval_s <= 0:
            raise ValueError("expected_interval_s must be positive")
        if key not in self._intervals:
            self._intervals[key] = deque([expected_interval_s],
                                         maxlen=self.window)
            self._last[key] = self.env.now
            self._observed[key] = 0
            self._calm_until[key] = (self.env.now + expected_interval_s
                                     + self._calm_margin)
            insort(self._poll_order, key, key=str)

    def heartbeat(self, key: Any) -> None:
        """One heartbeat from ``key`` arrived now."""
        if key not in self._intervals:
            raise KeyError(f"unregistered heartbeat source {key!r}")
        now = self.env.now
        self.heartbeats += 1
        window = self._intervals[key]
        window.append(now - self._last[key])
        self._last[key] = now
        self._observed[key] = self._observed.get(key, 0) + 1
        self._calm_until[key] = (now + sum(window) / len(window)
                                 + self._calm_margin)
        onset = self._suspected_at.pop(key, None)
        self._suspect_reasons.pop(key, None)
        if onset is not None:
            # It spoke again: the suspicion was false.
            self.monitor.count(f"{self.name}_false_suspicions", key=key)

    # -- judgment ----------------------------------------------------------
    def _window_stats(self, key: Any) -> tuple[float, float]:
        """(mean, guarded std) of the key's inter-arrival window.

        While fewer than ``min_samples`` real heartbeats have arrived,
        the std is widened by a decaying prime guard — the registered
        interval is an expectation, not a measurement, and total silence
        from registration must not look sharper than it is. The guard
        shrinks linearly with each real observation and vanishes at
        ``min_samples``, so it delays early suspicion without ever
        preventing it.
        """
        samples = self._intervals[key]
        n = len(samples)
        mean = sum(samples) / n
        if n > 1:
            var = sum(map(pow, map(sub, samples, repeat(mean)),
                          repeat(2))) / (n - 1)
            std = max(math.sqrt(var), self.min_std_s)
        else:
            std = max(self.min_std_s, 0.1 * mean)
        observed = self._observed.get(key, 0)
        if observed < self.min_samples:
            decay = (self.min_samples - observed) / self.min_samples
            std = max(std, self.PRIME_STD_FACTOR * mean * decay)
        return mean, std

    def phi(self, key: Any) -> float:
        """Current suspicion level of ``key`` (0 = just heard from it)."""
        elapsed = self.env.now - self._last[key]
        mean, std = self._window_stats(key)
        return _phi_of((elapsed - mean) / (std * _SQRT2))

    def _classify(self, key: Any) -> str:
        """Why phi crossed the threshold: ``"silence"`` or ``"variance"``.

        A regular source (window CV at or below ``variance_cv``) that
        stops beating is *silent* — the crash/partition signature. A
        source whose own window is noisier than that earned its phi
        partly through variance — the slow/flaky gray signature. A key
        never heard from at all is silent by definition.
        """
        if self._observed.get(key, 0) == 0:
            return "silence"
        mean, std = self._window_stats(key)
        if mean <= 0:
            return "variance"
        return "silence" if std <= self.variance_cv * mean else "variance"

    def is_suspect(self, key: Any) -> bool:
        """Whether ``key`` is currently suspected (recording the onset)."""
        calm_until = self._calm_until.get(key)
        if calm_until is None or self.env.now < calm_until:
            # Unregistered, or phi provably below the threshold. A
            # suspicion only starts past the horizon and a heartbeat both
            # clears it and moves the horizon, so none stands here.
            return False
        if key in self._suspected_at:
            return True
        if self.phi(key) >= self.threshold:
            reason = self._classify(key)
            self._suspected_at[key] = self.env.now
            self._suspect_reasons[key] = reason
            self.suspicions += 1
            self.suspicions_by_reason[reason] += 1
            self.suspicion_log.append((key, self.env.now, reason))
            self.monitor.count(f"{self.name}_suspicions", key=key)
            self.monitor.count(f"{self.name}_suspicions_{reason}")
            return True
        return False

    def suspect_reason(self, key: Any) -> Optional[str]:
        """Reason tag of the standing suspicion of ``key``, if any."""
        return self._suspect_reasons.get(key)

    def suspected_at(self, key: Any) -> Optional[float]:
        """Onset time of the standing suspicion of ``key``, if any."""
        return self._suspected_at.get(key)

    def suspects(self) -> list[Any]:
        """Currently suspected keys, in suspicion-onset order."""
        return sorted(self._suspected_at,
                      key=lambda k: (self._suspected_at[k], str(k)))

    def detection_latency_s(self, key: Any,
                            failed_at: float) -> Optional[float]:
        """Ground-truth helper: time from a known failure to suspicion."""
        onset = self._suspected_at.get(key)
        if onset is None or onset < failed_at:
            return None
        return onset - failed_at

    def _poll(self, interval_s: float):
        while True:
            yield self.env.timeout(interval_s)
            for key in self._poll_order:
                self.is_suspect(key)
