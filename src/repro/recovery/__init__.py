"""Checkpoint/restore and crash-recovery: durable state for long work.

PR 1 (:mod:`repro.faults`) made components crash; PR 3
(:mod:`repro.resilience`) taught systems to detect failures and shed load
around them. This package closes the robustness triad the paper's P3/C5
call for: long-running computations *survive* crashes without losing all
progress, the property the companion vision paper (arXiv:1802.05465)
phrases as ecosystems that "survive failures without losing work".

- **checkpoint policies** (:mod:`repro.recovery.policies`) — how often to
  pay the checkpoint cost: a fixed :class:`PeriodicCheckpoint`, the
  Young/Daly optimum :class:`DalyOptimalCheckpoint`
  (``sqrt(2 * checkpoint_cost * MTBF)``, read off the active
  :class:`~repro.faults.models.CrashRestart` model);
- **checkpoint storage** (:mod:`repro.recovery.store`) — a
  :class:`CheckpointStore` with tiered write/read cost (size-proportional
  transfer time), keep-last-k retention, and a corruption probability
  that makes restores fall back to older checkpoints;
- **write-ahead journal** (:mod:`repro.recovery.journal`) — an
  append-only :class:`Journal` with an append-durability window, bounded
  replay cost, and truncate-on-checkpoint;
- **checkpointed execution** (:mod:`repro.recovery.job`) — a
  :class:`CheckpointedJob` that runs divisible work under
  :class:`~repro.faults.models.CrashRestart`, rolling back to the last
  durable checkpoint on every crash, with full makespan/lost-work/
  overhead/recovery-time accounting.

Domain wirings: graphalytics checkpoints iterative kernels per superstep
(:func:`repro.graphalytics.robustness.run_supersteps_with_recovery`),
and :class:`~repro.scheduling.simulator.ClusterSimulator`
journals submissions/dispatches/completions so a crashed scheduler
reconciles believed vs. actual cluster state on recovery. The chaos
harness compares no-checkpoint vs. periodic vs. Daly-optimal in
:func:`repro.faults.chaos.run_recovery_scenario`.
"""

from repro.recovery.journal import Journal, JournalRecord
from repro.recovery.job import CheckpointedJob, RecoveryStats
from repro.recovery.policies import (
    CheckpointPolicy,
    DalyOptimalCheckpoint,
    PeriodicCheckpoint,
    daly_interval_s,
)
from repro.recovery.store import (
    CHECKPOINT_TIERS,
    Checkpoint,
    CheckpointCorruptionError,
    CheckpointStore,
    CheckpointTier,
)

__all__ = [
    "CHECKPOINT_TIERS",
    "Checkpoint",
    "CheckpointCorruptionError",
    "CheckpointPolicy",
    "CheckpointStore",
    "CheckpointTier",
    "CheckpointedJob",
    "DalyOptimalCheckpoint",
    "Journal",
    "JournalRecord",
    "PeriodicCheckpoint",
    "RecoveryStats",
    "daly_interval_s",
]
