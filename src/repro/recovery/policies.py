"""Checkpoint interval policies: how often to pay for durability.

Checkpointing trades overhead for lost work: checkpoint every ``tau``
seconds and a fault-free run pays ``C / tau`` of its time in checkpoint
cost ``C``, while each crash loses ``tau / 2`` of progress on average.
Minimizing the sum gives the classic Young/Daly first-order optimum

    tau* = sqrt(2 * C * MTBF)

valid for ``C << tau << MTBF`` — the regime every practical system
(HPC checkpoint/restart, training-run snapshotting) operates in.

The policies here only answer "how long until the next checkpoint?";
the mechanics (what gets written where, what a restore costs) live in
:mod:`repro.recovery.store` and :mod:`repro.recovery.job`.
"""

from __future__ import annotations

import math
from typing import Any, Optional


def daly_interval_s(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """The Young/Daly first-order optimal checkpoint interval."""
    if checkpoint_cost_s <= 0:
        raise ValueError("checkpoint_cost_s must be positive")
    if mtbf_s <= 0:
        raise ValueError("mtbf_s must be positive")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


class CheckpointPolicy:
    """Base policy: a (possibly state-dependent) checkpoint interval."""

    name = "checkpoint"

    def interval_s(self) -> float:
        """Seconds of work to perform before the next checkpoint."""
        raise NotImplementedError


class PeriodicCheckpoint(CheckpointPolicy):
    """Checkpoint every fixed ``interval_s`` seconds of work."""

    name = "periodic"

    def __init__(self, interval_s: float):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self._interval_s = float(interval_s)

    def interval_s(self) -> float:
        return self._interval_s

    def __repr__(self) -> str:
        return f"PeriodicCheckpoint({self._interval_s:g}s)"


class DalyOptimalCheckpoint(CheckpointPolicy):
    """The Young/Daly interval computed from the active fault model.

    ``fault_model`` is anything exposing ``mtbf_s`` — normally the
    :class:`~repro.faults.models.CrashRestart` injector driving the
    executor, so the policy is *honest*: it optimizes against the failure
    regime actually in force, not a configuration guess. Pass ``mtbf_s``
    directly when no injector object exists.
    """

    name = "daly"

    def __init__(self, checkpoint_cost_s: float,
                 fault_model: Optional[Any] = None,
                 mtbf_s: Optional[float] = None):
        if (fault_model is None) == (mtbf_s is None):
            raise ValueError("pass exactly one of fault_model or mtbf_s")
        self.checkpoint_cost_s = float(checkpoint_cost_s)
        self.fault_model = fault_model
        self._mtbf_s = mtbf_s
        # Validate eagerly: a bad cost/MTBF should fail at construction.
        daly_interval_s(self.checkpoint_cost_s, self.mtbf_s)

    @property
    def mtbf_s(self) -> float:
        if self.fault_model is not None:
            return float(self.fault_model.mtbf_s)
        return float(self._mtbf_s)

    def interval_s(self) -> float:
        return daly_interval_s(self.checkpoint_cost_s, self.mtbf_s)

    def __repr__(self) -> str:
        return (f"DalyOptimalCheckpoint(C={self.checkpoint_cost_s:g}s, "
                f"MTBF={self.mtbf_s:g}s -> {self.interval_s():g}s)")

