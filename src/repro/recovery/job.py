"""Checkpointed execution of divisible work under crash faults.

:class:`CheckpointedJob` is the generic kernel every domain wiring builds
on: ``work_s`` seconds of restartable computation that (a) checkpoints on
a :class:`~repro.recovery.policies.CheckpointPolicy` schedule into a
:class:`~repro.recovery.store.CheckpointStore`, (b) loses all progress
since the last *committed* checkpoint on a crash, and (c) pays restore,
journal-replay, and restart costs before resuming. The job object is
itself a valid :class:`~repro.faults.models.CrashRestart` target
(``fail()`` / ``repair()`` / ``is_up``), so wiring faults in is one line.

With ``quantum_s`` set, work is quantized into atomic supersteps and
checkpoints land on superstep boundaries — the BSP model graphalytics
uses. Without it, work is continuous and checkpoints land exactly on the
policy interval.

The accounting identity (asserted in tests) is::

    makespan = work + checkpoint_time + lost_work + recovery_time
               + downtime
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.recovery.journal import Journal
from repro.recovery.policies import CheckpointPolicy
from repro.recovery.store import CheckpointStore
from repro.sim import Environment, Interrupt, Monitor

_EPS = 1e-9


@dataclass
class RecoveryStats:
    """The robustness ledger of one checkpointed run."""

    work_s: float
    makespan_s: float
    crashes: int
    #: Compute seconds spent on progress a crash threw away.
    lost_work_s: float
    #: Time spent writing checkpoints that committed (plus partial writes
    #: a crash interrupted, which land in ``lost_work_s``).
    checkpoint_time_s: float
    #: Restore reads + journal replay + fixed restart cost.
    recovery_time_s: float
    #: Time the executor was down (waiting for repair).
    downtime_s: float
    checkpoints_written: int
    restores: int
    corrupt_fallbacks: int

    @property
    def makespan_inflation(self) -> float:
        """Makespan relative to the fault-free, checkpoint-free ideal."""
        return self.makespan_s / self.work_s - 1.0 if self.work_s else 0.0

    @property
    def overhead_s(self) -> float:
        return self.makespan_s - self.work_s


class CheckpointedJob:
    """Divisible work with checkpoint/restore under fail-stop crashes."""

    def __init__(self, env: Environment, work_s: float,
                 policy: Optional[CheckpointPolicy] = None,
                 store: Optional[CheckpointStore] = None,
                 journal: Optional[Journal] = None,
                 quantum_s: Optional[float] = None,
                 checkpoint_size_mb: float = 100.0,
                 restart_cost_s: float = 0.0,
                 monitor: Optional[Monitor] = None,
                 tracer=None, span_parent=None,
                 name: str = "job"):
        if work_s <= 0:
            raise ValueError("work_s must be positive")
        if (policy is None) != (store is None):
            raise ValueError(
                "checkpointing needs both a policy and a store "
                "(or neither, for the restart-from-scratch baseline)")
        if quantum_s is not None and quantum_s <= 0:
            raise ValueError("quantum_s must be positive")
        if checkpoint_size_mb <= 0:
            raise ValueError("checkpoint_size_mb must be positive")
        if restart_cost_s < 0:
            raise ValueError("restart_cost_s must be non-negative")
        self.env = env
        self.work_s = float(work_s)
        self.policy = policy
        self.store = store
        self.journal = journal
        self.quantum_s = quantum_s
        self.checkpoint_size_mb = float(checkpoint_size_mb)
        self.restart_cost_s = float(restart_cost_s)
        self.monitor = Monitor(env) if monitor is None else monitor
        self.name = name
        #: Optional :class:`~repro.observability.Tracer`: the run is a
        #: ``recovery.job`` span with ``recovery.checkpoint`` /
        #: ``recovery.restore`` children and ``crash`` events.
        self.tracer = tracer
        if tracer is not None and tracer.env is None:
            tracer.bind(env)
        self._span = (tracer.start_span("recovery.job", job=name,
                                        parent=span_parent,
                                        work_s=self.work_s)
                      if tracer is not None else None)
        self._phase_span = None
        #: Durable progress: work covered by the last committed
        #: checkpoint (or 0 until the first one commits).
        self.done_s = 0.0
        # ``crashes`` and ``checkpoints_written`` stay ints: the monitor
        # keys its counters by job name, and jobs may share a monitor.
        self.crashes = 0
        self.lost_work_s = 0.0
        self.checkpoint_time_s = 0.0
        self.recovery_time_s = 0.0
        self.downtime_s = 0.0
        self.checkpoints_written = 0
        self.restores = 0
        self._up = True
        self._needs_recovery = False
        self._repaired = None
        self.started_at = env.now
        self.finished_at: Optional[float] = None
        self.done = env.event()
        self.proc = env.process(self._run())

    # -- CrashRestart target protocol --------------------------------------
    @property
    def is_up(self) -> bool:
        return self._up

    def fail(self) -> None:
        self._up = False
        if self.proc.is_alive:
            self.proc.interrupt("executor-crash")

    def repair(self) -> None:
        self._up = True
        if self._repaired is not None and not self._repaired.triggered:
            self._repaired.succeed()

    # -- execution ---------------------------------------------------------
    def _segment_s(self) -> float:
        """Work to perform before the next checkpoint boundary."""
        remaining = self.work_s - self.done_s
        if self.policy is None:
            return remaining
        interval = self.policy.interval_s()
        if self.quantum_s is not None:
            # Round half-up (not banker's): the nearest whole number of
            # supersteps, deterministically.
            quanta = max(1, int(interval / self.quantum_s + 0.5))
            interval = quanta * self.quantum_s
        return min(remaining, interval)

    def _run(self):
        while self.done_s < self.work_s - _EPS:
            phase = "work"
            phase_t0 = self.env.now
            try:
                if self._needs_recovery:
                    phase = "recover"
                    phase_t0 = self.env.now
                    if self.tracer is not None:
                        self._phase_span = self.tracer.start_span(
                            "recovery.restore", parent=self._span)
                    yield from self._recover()
                    if self._phase_span is not None:
                        self.tracer.end_span(self._phase_span,
                                             progress=self.done_s)
                        self._phase_span = None
                    self.recovery_time_s += self.env.now - phase_t0
                    self._needs_recovery = False
                phase = "work"
                segment = self._segment_s()
                phase_t0 = self.env.now
                yield self.env.timeout(segment)
                if (self.policy is not None
                        and self.done_s + segment < self.work_s - _EPS):
                    # A crash from here on loses the segment *and* the
                    # partial write: the snapshot commits atomically at
                    # the end of store.save().
                    ckpt_t0 = self.env.now
                    if self.tracer is not None:
                        self._phase_span = self.tracer.start_span(
                            "recovery.checkpoint", parent=self._span,
                            progress=self.done_s + segment)
                    yield from self.store.save(
                        {"progress": self.done_s + segment},
                        self.checkpoint_size_mb)
                    if self._phase_span is not None:
                        self.tracer.end_span(self._phase_span)
                        self._phase_span = None
                    self.checkpoint_time_s += self.env.now - ckpt_t0
                    self.checkpoints_written += 1
                    if self.journal is not None and len(self.journal):
                        # The snapshot covers every transition journaled so
                        # far: replay cost resets at each checkpoint.
                        self.journal.truncate(
                            self.journal.records[-1].seq)
                    self.monitor.count("checkpoints", key=self.name)
                self.done_s += segment
            except Interrupt:
                self.crashes += 1
                if self._phase_span is not None:
                    self.tracer.end_span(self._phase_span,
                                         status="interrupted")
                    self._phase_span = None
                if self._span is not None:
                    self.tracer.add_event(self._span, "crash", phase=phase)
                if self.policy is not None:
                    self.policy.record_failure(self.env.now)
                if phase == "recover":
                    self.recovery_time_s += self.env.now - phase_t0
                else:
                    self.lost_work_s += self.env.now - phase_t0
                self.monitor.count("crashes", key=self.name)
                down_t0 = self.env.now
                self._repaired = self.env.event()
                if self._up:
                    # Repair raced the interrupt delivery: no wait needed.
                    self._repaired.succeed()
                yield self._repaired
                self._repaired = None
                self.downtime_s += self.env.now - down_t0
                self._needs_recovery = True
        self.finished_at = self.env.now
        if self._span is not None:
            self.tracer.end_span(self._span, crashes=self.crashes,
                                 checkpoints=self.checkpoints_written,
                                 restores=self.restores)
        self.done.succeed(self)

    def _recover(self):
        """Pay the price of coming back: restart, restore, replay."""
        if self.restart_cost_s > 0:
            yield self.env.timeout(self.restart_cost_s)
        restored = 0.0
        if self.store is not None and len(self.store) > 0:
            ckpt = yield from self.store.restore()
            if ckpt is not None:
                restored = float(ckpt.payload["progress"])
                self.restores += 1
        if restored < self.done_s - _EPS:
            # Fell back past the newest checkpoint (corruption): the work
            # between the restored snapshot and the newest one is lost too.
            self.lost_work_s += self.done_s - restored
        self.done_s = restored
        if self.journal is not None:
            replay_s = self.journal.replay_time_s()
            self.journal.replay()
            if replay_s > 0:
                yield self.env.timeout(replay_s)

    # -- accounting --------------------------------------------------------
    @property
    def corrupt_fallbacks(self) -> int:
        return self.store.corrupt_fallbacks if self.store is not None else 0

    def stats(self) -> RecoveryStats:
        if self.finished_at is None:
            raise RuntimeError(f"job {self.name} has not finished")
        return RecoveryStats(
            work_s=self.work_s,
            makespan_s=self.finished_at - self.started_at,
            crashes=self.crashes,
            lost_work_s=self.lost_work_s,
            checkpoint_time_s=self.checkpoint_time_s,
            recovery_time_s=self.recovery_time_s,
            downtime_s=self.downtime_s,
            checkpoints_written=self.checkpoints_written,
            restores=self.restores,
            corrupt_fallbacks=self.corrupt_fallbacks,
        )
