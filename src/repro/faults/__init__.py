"""Fault injection and resilience for every experiment domain.

The paper's availability/operability requirements (Principle P3, Challenges
C3/C6) demand that designs be evaluated under realistic failure regimes.
This package provides the two halves of that evaluation on top of
:mod:`repro.sim`:

- **fault models** (:mod:`repro.faults.models`) — crash/restart, transient
  per-operation errors, stragglers, correlated bursts, and message loss,
  all driven by seeded RNG streams for deterministic replay;
- **partition & gray-failure models** (:mod:`repro.faults.partition`) —
  scheduled network splits over named node-groups (including one-way
  cuts) and heartbeat-alive-but-degraded nodes, attachable to the
  :class:`~repro.sim.Network` routing fabric;
- **typed fault episodes** (:mod:`repro.faults.episodes`) — one fault
  of a known kind over a sim-time window, the fault plan the composed
  chaos worlds and the campaign's schedules share;
- **resilience policies** (:mod:`repro.faults.policies`) — retry with
  backoff, timeouts, circuit breaking, and hedging, as composable
  sim-process combinators any domain can wrap around its operations.

The chaos harness (:mod:`repro.faults.chaos`) crosses the two into a
scenario matrix and reports availability/SLO attainment per cell; see
``examples/chaos_experiment.py``. It is imported lazily (``from
repro.faults import chaos``) because it pulls in the experiment domains.
"""

from repro.faults.models import (
    CorrelatedBurst,
    CrashRestart,
    FaultInjectedError,
    MessageLossModel,
    StragglerModel,
    TransientErrorModel,
)
from repro.faults.partition import (
    GrayFailureModel,
    NetworkPartitionModel,
    PartitionEpisode,
    ScheduledMessageLoss,
)
from repro.faults.policies import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    Hedge,
    RetryPolicy,
    TimeoutExceeded,
    as_event,
    with_timeout,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "CorrelatedBurst",
    "CrashRestart",
    "FaultInjectedError",
    "GrayFailureModel",
    "Hedge",
    "MessageLossModel",
    "NetworkPartitionModel",
    "PartitionEpisode",
    "RetryPolicy",
    "ScheduledMessageLoss",
    "StragglerModel",
    "TimeoutExceeded",
    "TransientErrorModel",
    "as_event",
    "with_timeout",
]
