"""Brownout: graceful degradation through explicit service modes.

Instead of the binary up/down the paper's availability discussions warn
against, a browned-out service moves through NORMAL → DEGRADED → CRITICAL
as observed pressure (utilization, queue delay, backlog — the caller
chooses the signal) rises, shedding optional work first and essential work
last, and recovers through the same ladder with hysteresis so it does not
flap at a threshold.

Domains register degradation hooks per mode (e.g. the MMOG sheds
non-essential world updates on entering DEGRADED; the FaaS platform stops
paying for cold starts); the controller keeps the time-in-mode accounting
the chaos harness reports.
"""

from __future__ import annotations

import enum
from typing import Callable


class ServiceMode(enum.Enum):
    """Operating mode of a browned-out service (ordered by severity)."""

    NORMAL = 0
    DEGRADED = 1
    CRITICAL = 2

    def __lt__(self, other: "ServiceMode") -> bool:
        if not isinstance(other, ServiceMode):
            return NotImplemented
        return self.value < other.value


#: Hook signature: (old_mode, new_mode, time_of_transition).
TransitionHook = Callable[[ServiceMode, ServiceMode, float], None]


class BrownoutController:
    """A hysteresis mode machine over a scalar pressure signal.

    ``observe(pressure, now)`` accrues time-in-mode and applies the
    transition rules:

    - NORMAL escalates to DEGRADED at ``degraded_enter`` and straight to
      CRITICAL at ``critical_enter``;
    - DEGRADED escalates at ``critical_enter``, relaxes below
      ``degraded_exit``;
    - CRITICAL relaxes below ``critical_exit`` (to DEGRADED, or directly
      to NORMAL if pressure already cleared ``degraded_exit``).

    Exits sit strictly below their enters, so a signal hovering at a
    threshold cannot flap the mode. The controller is sim-agnostic: it
    never reads a clock, the caller passes ``now`` (simulated seconds or a
    step index — any monotone scale).
    """

    def __init__(self, degraded_enter: float = 0.8,
                 degraded_exit: float = 0.6,
                 critical_enter: float = 0.95,
                 critical_exit: float = 0.8):
        if not degraded_exit < degraded_enter:
            raise ValueError("degraded_exit must be < degraded_enter")
        if not critical_exit < critical_enter:
            raise ValueError("critical_exit must be < critical_enter")
        if not degraded_enter <= critical_enter:
            raise ValueError("degraded_enter must be <= critical_enter")
        self.degraded_enter = degraded_enter
        self.degraded_exit = degraded_exit
        self.critical_enter = critical_enter
        self.critical_exit = critical_exit
        self.name = "brownout"
        self.mode = ServiceMode.NORMAL
        self.transitions = 0
        self.time_in_mode: dict[ServiceMode, float] = {
            mode: 0.0 for mode in ServiceMode}
        self._mode_since = 0.0
        self._last_now = 0.0
        self._hooks: dict[ServiceMode, list[TransitionHook]] = {
            mode: [] for mode in ServiceMode}

    def register_hook(self, mode: ServiceMode, hook: TransitionHook) -> None:
        """Call ``hook(old, new, now)`` whenever ``mode`` is entered."""
        self._hooks[mode].append(hook)

    def _target_mode(self, pressure: float) -> ServiceMode:
        mode = self.mode
        if mode is ServiceMode.NORMAL:
            if pressure >= self.critical_enter:
                return ServiceMode.CRITICAL
            if pressure >= self.degraded_enter:
                return ServiceMode.DEGRADED
            return mode
        if mode is ServiceMode.DEGRADED:
            if pressure >= self.critical_enter:
                return ServiceMode.CRITICAL
            if pressure < self.degraded_exit:
                return ServiceMode.NORMAL
            return mode
        # CRITICAL
        if pressure < self.critical_exit:
            if pressure < self.degraded_exit:
                return ServiceMode.NORMAL
            return ServiceMode.DEGRADED
        return mode

    def observe(self, pressure: float, now: float) -> ServiceMode:
        """Feed one pressure sample; returns the (possibly new) mode."""
        if now < self._last_now:
            raise ValueError(
                f"time went backwards: {self._last_now} -> {now}")
        self.time_in_mode[self.mode] += now - self._mode_since
        self._mode_since = now
        self._last_now = now
        new = self._target_mode(pressure)
        if new is not self.mode:
            old, self.mode = self.mode, new
            self.transitions += 1
            for hook in self._hooks[new]:
                hook(old, new, now)
        return self.mode

    def finish(self, now: float) -> None:
        """Close the time-in-mode accounting at the end of a run."""
        if now < self._last_now:
            raise ValueError(
                f"time went backwards: {self._last_now} -> {now}")
        self.time_in_mode[self.mode] += now - self._mode_since
        self._mode_since = now
        self._last_now = now

    def time_in(self, mode: ServiceMode) -> float:
        return self.time_in_mode[mode]

    def degraded_time_s(self) -> float:
        """Total time spent out of NORMAL (the headline brownout metric)."""
        return (self.time_in_mode[ServiceMode.DEGRADED]
                + self.time_in_mode[ServiceMode.CRITICAL])
