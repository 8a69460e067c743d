"""An event-driven cluster/job simulator.

Executes bags-of-tasks and workflows on a :class:`repro.cluster.Cluster`
under a :class:`repro.scheduling.policies.Policy`, producing the metric
set of the paper's scheduling studies ([121], [122]): wait time, response
time, bounded slowdown, makespan, and utilization.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.recovery.journal import Journal
from repro.scheduling.policies import FairSharePolicy, Policy, ReadyQueue
from repro.sim import Environment, Monitor
from repro.workload.task import BagOfTasks, Task, TaskState, Workflow

#: Bounded-slowdown runtime floor (the standard 10-second bound).
SLOWDOWN_BOUND_S = 10.0
#: How long a lost dispatch sits in limbo before it is requeued.
DISPATCH_TIMEOUT_S = 5.0

Job = Union[BagOfTasks, Workflow]


@dataclass
class ScheduleMetrics:
    """Aggregate metrics of one simulated schedule."""

    policy: str
    n_tasks: int
    mean_wait_s: float
    mean_response_s: float
    mean_bounded_slowdown: float
    p95_bounded_slowdown: float
    makespan_s: float
    utilization: float
    job_mean_makespan_s: float = float("nan")
    #: Fraction of submitted-and-settled tasks that completed (tasks lost
    #: to machine failures in "drop" mode count against it).
    completed_fraction: float = 1.0
    #: Core-seconds of work that finished (useful work delivered).
    goodput_core_s: float = 0.0
    #: Core-seconds burned by executions killed mid-flight by failures.
    wasted_core_s: float = 0.0
    #: Task executions restarted after machine failures.
    restarts: int = 0
    #: Dispatches lost to machines the failure detector had not yet
    #: suspected (health-aware mode only).
    misdispatches: int = 0

    def objective(self) -> float:
        """The selection objective used throughout: mean bounded slowdown."""
        return self.mean_bounded_slowdown


#: What a journal record's kind says the scheduler believed about the
#: task at append time (see :meth:`ClusterSimulator.belief_from_record`).
_BELIEF_FROM_KIND = {"submit": "ready", "requeue": "ready",
                     "dispatch": "running", "complete": "done",
                     "drop": "dropped"}


class ClusterSimulator:
    """Drives jobs through a cluster under a swappable policy.

    The policy can be replaced at runtime (``sim.policy = other``), which
    is exactly the hook the portfolio scheduler uses.
    """

    def __init__(self, env: Environment, cluster: Cluster, policy: Policy,
                 failure_mode: str = "requeue",
                 health=None,
                 journal: Optional[Journal] = None,
                 scheduler_restart_cost_s: float = 1.0,
                 tracer=None, registry=None,
                 network=None, node_name: str = "scheduler",
                 report_retry_s: float = 2.0,
                 report_retry: bool = True,
                 service_time_factor=None):
        if failure_mode not in ("requeue", "drop"):
            raise ValueError(
                f"failure_mode must be 'requeue' or 'drop', got {failure_mode!r}")
        self.env = env
        self.cluster = cluster
        self.policy = policy
        self.monitor = Monitor(env, registry=registry, namespace="scheduling")
        #: Optional :class:`~repro.observability.Tracer`: every dispatch
        #: becomes a ``scheduling.task`` span (status ok / killed / dropped
        #: / misdispatch).
        self.tracer = tracer
        if tracer is not None and tracer.env is None:
            tracer.bind(env)
        self._spans: dict[int, object] = {}
        self._span_ordinals: dict[int, int] = {}
        #: Optional failure detector (anything with ``is_suspect(name)``,
        #: e.g. :class:`repro.resilience.PhiAccrualDetector` keyed by
        #: machine name). When set, the scheduler stops reading the
        #: cluster's ground-truth machine state: it places tasks from its
        #: own bookkeeping, skips suspected machines, and a dispatch to a
        #: dead-but-not-yet-suspected machine is lost for
        #: :data:`DISPATCH_TIMEOUT_S` before being requeued (a
        #: *misdispatch*).
        self.health = health
        #: Tasks dispatched to machines that were already dead.
        self._limbo: dict[int, tuple] = {}
        #: What happens to tasks killed by a machine crash: "requeue"
        #: re-executes them elsewhere (fail-restart), "drop" loses them —
        #: the no-resilience baseline the chaos harness measures against.
        self.failure_mode = failure_mode
        #: Ready tasks in arrival order, with each policy's order kept
        #: up to date as tasks come and go (see :class:`ReadyQueue`).
        self.ready = ReadyQueue()
        #: Tasks the scheduler believes running, ``task_id -> (task,
        #: machine, start)``. Only :meth:`_track` adds or removes entries.
        self.running: dict[int, tuple[Task, Machine, float]] = {}
        #: ``running``'s estimated releases, ``(finish_est, cores,
        #: task_id)`` in ascending order, kept by :meth:`_track`.
        self.releases: list[tuple[float, int, int]] = []
        self.finished: list[Task] = []
        #: Ids of the tasks in ``finished``: the completions this
        #: scheduler has booked, which is what unlocks a successor.
        self._finished_ids: set[int] = set()
        self.failed: list[Task] = []
        self.jobs: list[Job] = []
        #: Submitted workflows by job id, so a completion unlocks its
        #: successors without scanning every job.
        self._workflows: dict[int, Workflow] = {}
        #: Optional hook invoked right before each scheduling pass (the
        #: portfolio scheduler uses it to re-select the policy on queue
        #: changes, not just on a timer).
        self.pre_schedule = None
        #: Tasks restarted after machine failures.
        self.restarts = 0
        #: Robustness accounting: useful vs. burned core-seconds.
        self.goodput_core_s = 0.0
        self.wasted_core_s = 0.0
        self._procs: dict[int, object] = {}
        #: Optional write-ahead journal of submit/dispatch/complete/requeue
        #: transitions. With one, the scheduler itself can crash and
        #: recover: see :meth:`crash_scheduler` / :meth:`recover_scheduler`.
        self.journal = journal
        self.scheduler_restart_cost_s = scheduler_restart_cost_s
        self._crashed = False
        #: Tasks that finished on their machine while the scheduler was
        #: down — the completion report the dead scheduler never saw.
        self._unreported: list[tuple[Task, float]] = []
        #: Tasks killed by machine failures while the scheduler was down —
        #: nobody alive to requeue them until recovery.
        self._orphaned: list[Task] = []
        #: Task registry for journal replay (task_id -> Task).
        self._tasks: dict[int, Task] = {}
        #: Optional :class:`~repro.sim.Network`: dispatches travel
        #: ``node_name -> machine.name`` and completion reports travel
        #: back, so a partition or gray failure between scheduler and
        #: workers loses them exactly like a crash would. Without one,
        #: both hops are instantaneous and lossless (the pre-network
        #: behavior, unchanged).
        self.network = network
        self.node_name = node_name
        #: How often a machine re-sends a completion report the network
        #: refused to carry.
        self.report_retry_s = report_retry_s
        #: ``report_retry=False`` is a deliberately plantable bug knob
        #: (for fault-injection campaigns): a lost completion report is
        #: never re-sent, so the task sits in ``_pending_reports``
        #: forever and the schedule never finishes — the liveness hole
        #: the campaign oracles exist to catch.
        self.report_retry = report_retry
        #: Optional callable ``Machine -> float`` multiplying each
        #: execution's runtime — the gray-failure hook
        #: (``lambda m: gray.service_factor(m.name)``).
        self.service_time_factor = service_time_factor
        #: Optional :class:`~repro.replication.fencing.FencingGate` (duck-
        #: typed), installed by a replicated control plane: with one,
        #: every dispatch carries the control plane's term token and is
        #: admitted machine-side against the fenced floor, and every
        #: completion report carries the machine's witnessed floor and is
        #: admitted brain-side against the current term. ``None`` keeps
        #: both hops token-free — the single-brain behavior, unchanged.
        self.fencing = None
        if network is not None:
            network.add_node(node_name)
            for machine in cluster.machines:
                network.add_node(machine.name)
        #: First arrivals (bag tasks, unlocked workflow successors,
        #: :meth:`submit_task` calls). Requeues and restarts move tasks
        #: between rooms but never mint one, so at every instant
        #: ``submitted == finished + failed + ready + running + limbo
        #: + orphaned + unreported`` (the scheduler conservation law).
        self.submitted = 0
        #: Completion reports the network refused to carry home: the task
        #: is done on its machine (ground truth) but still believed
        #: running by the scheduler until a retry gets through.
        self._pending_reports: dict[int, tuple] = {}
        #: Completions that happened during the outage, credited at recovery.
        self.recovered_completions = 0
        self._wake = env.event()
        self._done_submitting = False
        self._scheduler = env.process(self._schedule_loop())

    misdispatches = property(lambda self: self.monitor.total("misdispatches"))
    scheduler_crashes = property(
        lambda self: self.monitor.total("scheduler_crashes"))
    #: Running dispatches a recovering scheduler re-adopted.
    readopted = property(
        lambda self: self.monitor.total("readopted_dispatches"))
    #: Orphaned tasks a recovering scheduler requeued.
    orphans_requeued = property(
        lambda self: self.monitor.total("orphans_requeued"))

    def _journal(self, kind: str, task: Task) -> None:
        if self.journal is not None and not self._crashed:
            self._tasks[task.task_id] = task
            self.journal.append(kind, {"task_id": task.task_id})

    @property
    def crashed(self) -> bool:
        """Whether the scheduler brain is currently fail-stopped."""
        return self._crashed

    @staticmethod
    def belief_from_record(record) -> Optional[tuple[int, str]]:
        """``(task_id, believed-state)`` of one journal record, or None.

        The single source of truth for how a journal record updates the
        believed-state map — :meth:`recover_scheduler` replays through
        it, and a replicated control plane's journal shipping applies the
        same function record-by-record to keep hot standbys warm.
        """
        state = _BELIEF_FROM_KIND.get(record.kind)
        if state is None:
            return None
        return record.payload["task_id"], state

    def _span_start(self, task: Task, machine: Machine) -> None:
        if self.tracer is not None:
            # Tag a per-simulator ordinal, not task.task_id: task ids come
            # from a process-global counter and would make traces depend
            # on what else ran in the process.
            ordinal = self._span_ordinals.setdefault(
                task.task_id, len(self._span_ordinals))
            self._spans[task.task_id] = self.tracer.start_span(
                "scheduling.task", task=ordinal,
                machine=machine.name, cores=task.cores)

    def _span_end(self, task: Task, status: str) -> None:
        span = self._spans.pop(task.task_id, None)
        if span is not None:
            self.tracer.end_span(span, status=status)

    # -- submission -----------------------------------------------------------
    def submit_jobs(self, jobs: Sequence[Job]) -> None:
        """Register jobs; their tasks arrive at their submit times."""
        self.jobs.extend(jobs)
        for job in jobs:
            if isinstance(job, Workflow):
                self._workflows.setdefault(job.job_id, job)
        self.env.process(self._arrivals(sorted(jobs,
                                               key=lambda j: j.submit_time)))

    def _arrivals(self, jobs: Sequence[Job]):
        for job in jobs:
            delay = job.submit_time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            arrived = (job.ready_tasks() if isinstance(job, Workflow)
                       else job.tasks)
            self.ready.extend(arrived)
            self.submitted += len(arrived)
            for task in arrived:
                self._journal("submit", task)
            self._kick()
        self._done_submitting = True
        self._kick()
        return None

    def submit_task(self, task: Task) -> None:
        """Submit one task now (incremental, front-door-driven submission).

        Unlike :meth:`submit_jobs`, which registers a whole batch with its
        own arrival process, this admits tasks one at a time as an
        admission controller lets them through. Call
        :meth:`close_submissions` when the source dries up so
        ``all_done`` can become true.
        """
        if self._done_submitting:
            raise RuntimeError("submissions already closed")
        self.submitted += 1
        self.ready.append(task)
        self._journal("submit", task)
        self._kick()

    def close_submissions(self) -> None:
        """Declare that no further :meth:`submit_task` calls will come."""
        self._done_submitting = True
        self._kick()

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    # -- scheduling ----------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return (self._done_submitting and not self.ready
                and not self.running and not self._limbo
                and not self._crashed and not self._unreported
                and not self._orphaned and not self._pending_reports)

    def _schedule_loop(self):
        while True:
            self._try_schedule()
            if self.all_done:
                return
            # Structural impossibility: no machine in the cluster is big
            # enough for a ready task even when completely empty. (A
            # merely-busy or temporarily-failed cluster is not flagged —
            # the task may fit later.)
            if (self._done_submitting and self.ready and not self.running
                    and all(not any(m.cores >= t.cores
                                    and m.memory_gb >= t.memory_gb
                                    for m in self.cluster.machines)
                            for t in self.ready)):
                raise RuntimeError(
                    f"{len(self.ready)} tasks can never be placed on this "
                    "cluster (too many cores or too much memory requested)")
            self._wake = self.env.event()
            yield self._wake

    def _track(self, task: Task, machine: Optional[Machine] = None) -> None:
        """Enter ``task`` into ``running`` on ``machine`` as of now, or,
        with no machine, remove it if present; ``releases`` follows."""
        if machine is not None:
            now = self.env.now
            self.running[task.task_id] = (task, machine, now)
            insort(self.releases, (now + (task.runtime_estimate or task.work),
                                   task.cores, task.task_id))
            return
        entry = self.running.pop(task.task_id, None)
        if entry is not None:
            start = entry[2]
            releases = self.releases
            del releases[bisect_left(releases, (
                start + (task.runtime_estimate or task.work),
                task.cores, task.task_id))]

    def _earliest_head_start(self, head: Task) -> float:
        """Estimated earliest time the head task could start (for EASY)."""
        free = self.cluster.free_cores
        if free >= head.cores:
            return self.env.now
        for finish_est, cores, _ in self.releases:
            free += cores
            if free >= head.cores:
                return max(finish_est, self.env.now)
        return float("inf")

    def _believed_free(self, machine: Machine) -> tuple[int, float]:
        """Free capacity per the scheduler's own books (health-aware mode).

        Sums the demands of tasks *it* placed on the machine — running or
        in dispatch limbo — rather than reading the machine's ground-truth
        allocations, which a crash wipes before any detector could know.
        """
        used_cores, used_mem = 0, 0.0
        for task, m, _ in self.running.values():
            if m is machine:
                used_cores += task.cores
                used_mem += task.memory_gb
        for task, m in self._limbo.values():
            if m is machine:
                used_cores += task.cores
                used_mem += task.memory_gb
        return machine.cores - used_cores, machine.memory_gb - used_mem

    def _first_fit(self, cores: int, memory_gb: float) -> Optional[Machine]:
        """Placement: omniscient when no detector, believed-state with one."""
        if self.health is None:
            return self.cluster.first_fit(cores, memory_gb)
        for machine in self.cluster.machines:
            if self.health.is_suspect(machine.name):
                continue
            free_cores, free_mem = self._believed_free(machine)
            if free_cores >= cores and free_mem >= memory_gb - 1e-9:
                return machine
        return None

    def _try_schedule(self) -> None:
        if self._crashed:
            return  # a dead scheduler dispatches nothing
        if self.pre_schedule is not None and self.ready:
            self.pre_schedule()
        if not self.ready:
            return
        # Order the queue once per pass: a copy of the policy's view of
        # ``ready``, not a sort. No sort key changes inside a pass
        # (completions and fair-share charges run as their own sim
        # processes), and each key ends in the unique task id, so deleting
        # a started task from ``ordered`` leaves exactly the order a
        # re-sort of ``ready`` would give.
        policy = self.policy
        env = self.env
        first_fit = self._first_fit
        start = self._start
        earliest_head_start = self._earliest_head_start
        allows_backfill = policy.allows_backfill()
        ordered = policy.order(self.ready, env.now)
        while ordered:
            head = ordered[0]
            machine = first_fit(head.cores, head.memory_gb)
            if machine is not None:
                start(head, machine)
                del ordered[0]
                continue
            if not allows_backfill:
                return
            # EASY backfill: run a later task that fits now and (by
            # estimate) finishes before the head could possibly start.
            # A backfill changes the free capacity the shadow is computed
            # from, so the shadow and the scan are redone after each one.
            window = earliest_head_start(head) - env.now
            for i in range(1, len(ordered)):
                task = ordered[i]
                if (task.runtime_estimate or task.work) > window:
                    continue
                machine = first_fit(task.cores, task.memory_gb)
                if machine is not None:
                    start(task, machine)
                    del ordered[i]
                    break
            else:
                return

    def _start(self, task: Task, machine: Machine) -> None:
        self.ready.remove(task)
        self._journal("dispatch", task)
        if self.network is not None:
            fencing = self.fencing
            if fencing is None:
                verdict = self.network.send(self.node_name, machine.name,
                                            deliver=lambda: None,
                                            kind="dispatch")
                admitted = True
            else:
                token = fencing.dispatch_token()
                outcome: list = []
                verdict = self.network.send(
                    self.node_name, machine.name,
                    deliver=lambda m=machine.name, t=token:
                        outcome.append(fencing.admit_dispatch(m, t)),
                    kind="dispatch")
                admitted = not outcome or bool(outcome[0])
            if verdict in ("blocked", "dropped"):
                # The dispatch was lost in transit (partition, gray drop).
                # From the scheduler's seat this is indistinguishable from
                # dispatching to a dead machine: the task sits in limbo
                # until the dispatch timeout requeues it.
                self._lose_dispatch(task, machine)
                return
            if not admitted:
                # The machine's fenced floor outranks our token: a deposed
                # brain's write, refused machine-side. No work starts; the
                # dispatch timeout paces the retry exactly like a
                # misdispatch (an instant requeue would spin the loop).
                self.monitor.count("fenced_dispatches")
                self._lose_dispatch(task, machine)
                return
        if self.health is not None and not machine.is_up:
            # The detector has not suspected this machine yet, so the
            # scheduler believes it alive; the dispatch lands on a dead box
            # and is simply lost until the dispatch timeout notices.
            self._lose_dispatch(task, machine)
            return
        machine.allocate(task.cores, task.memory_gb)
        task.state = TaskState.RUNNING
        task.start_time = self.env.now
        self._track(task, machine)
        self.monitor.record("queue_length", len(self.ready))
        self._span_start(task, machine)
        self._procs[task.task_id] = self.env.process(
            self._execute(task, machine, machine.incarnation))

    def _lose_dispatch(self, task: Task, machine: Machine) -> None:
        """Send ``task`` to limbo: it looks running to the scheduler
        until the dispatch timeout requeues it."""
        task.state = TaskState.RUNNING
        self._limbo[task.task_id] = (task, machine)
        self.monitor.record("queue_length", len(self.ready))
        self._span_start(task, machine)
        self.env.process(self._misdispatch(task))

    def _misdispatch(self, task: Task):
        """A dispatch to a dead machine times out and requeues the task."""
        yield self.env.timeout(DISPATCH_TIMEOUT_S)
        self._limbo.pop(task.task_id, None)
        self.monitor.count("misdispatches")
        self._span_end(task, "misdispatch")
        task.state = TaskState.PENDING
        task.start_time = None
        if self._crashed:
            # Nobody is alive to notice the timeout; recovery requeues it.
            self._orphaned.append(task)
            return
        self.ready.append(task)
        self._journal("requeue", task)
        self._kick()

    def handle_machine_failure(self, machine: Machine) -> None:
        """Requeue every task running on a failed machine.

        Wire this as the :class:`repro.cluster.FailureInjector`'s
        ``on_failure`` callback. Victim tasks return to PENDING and
        restart from scratch elsewhere (the classic fail-restart model);
        the injector resets the machine's allocations on repair.
        """
        victims = [task for task, m, _ in self.running.values()
                   if m is machine]
        for task in victims:
            proc = self._procs.get(task.task_id)
            if proc is not None and proc.is_alive:
                proc.interrupt("machine-failure")

    def handle_machine_repair(self, machine: Machine) -> None:
        """Wake the scheduler: a repair freed capacity for queued work.

        Wire this as the failure injector's ``on_repair`` callback;
        without it, a schedule that drained to an all-down cluster would
        never notice the machines coming back.
        """
        self._kick()

    # -- scheduler crash-recovery ---------------------------------------------
    def crash_scheduler(self) -> None:
        """Fail-stop the scheduler itself (requires a journal).

        Tasks already running keep running — machines are a separate
        failure domain — but nothing new is dispatched, completion
        reports are lost until recovery, and machine-failure victims are
        orphaned instead of requeued.
        """
        if self.journal is None:
            raise RuntimeError("scheduler crash-recovery needs a journal")
        if self._crashed:
            raise RuntimeError("scheduler is already down")
        self._crashed = True
        self.monitor.count("scheduler_crashes")
        # Reports still in network retry are now reports to a dead
        # scheduler: same fate as completions that race the crash. Drain
        # them into the unreported ledger so recovery reconciles them
        # (and the retry processes, finding their entries gone, exit).
        for task_id in sorted(self._pending_reports):
            task, runtime, _ = self._pending_reports.pop(task_id)
            self._track(task)
            self._unreported.append((task, runtime))

    def recover_scheduler(self, believed: Optional[dict] = None,
                          restart_cost_s: Optional[float] = None):
        """Process: restart the scheduler and reconcile state via journal.

        Replays the journal's durable prefix to rebuild what the dead
        scheduler *believed* (ready / dispatched / done per task), then
        reconciles belief against the actual cluster:

        - a believed-running task still executing is **re-adopted** in
          place (no re-dispatch, no lost work);
        - a believed-running task that finished during the outage is
          credited as completed — completions are never lost, because the
          work itself survived the scheduler;
        - a believed-running task whose machine died during the outage is
          an **orphan**: requeued, exactly like PR 3's misdispatches.

        A replicated control plane promotes a hot standby by passing the
        ``believed`` map its shipped journal prefix already built (so no
        replay is paid) and the standby's ``restart_cost_s`` (a warm
        takeover, not a cold restart). Reconciliation is identical either
        way — that is the point: failover is recovery with the replay
        pre-paid.
        """
        if not self._crashed:
            raise RuntimeError("recover_scheduler() without a crash")
        cost = (self.scheduler_restart_cost_s if restart_cost_s is None
                else restart_cost_s)
        if cost > 0:
            yield self.env.timeout(cost)
        if believed is None:
            replay_s = self.journal.replay_time_s()
            records = self.journal.replay()
            if replay_s > 0:
                yield self.env.timeout(replay_s)
            believed = {}
            for record in records:
                entry = self.belief_from_record(record)
                if entry is not None:
                    believed[entry[0]] = entry[1]
        self._crashed = False
        still_running = set(self.running) | set(self._limbo)
        for task, runtime in self._unreported:
            # Completion raced the crash (or happened during the outage):
            # the work is done and stays done.
            self._report_completion(task, runtime)
            self.recovered_completions += 1
        self._unreported.clear()
        orphans, self._orphaned = self._orphaned, []
        for task in orphans:
            self.ready.append(task)
            self._journal("requeue", task)
            self.monitor.count("orphans_requeued")
        for task_id, state in believed.items():
            if state == "running":
                if task_id in still_running:
                    # The dispatch survived the outage: adopt, don't redo.
                    self.monitor.count("readopted_dispatches")
                elif task_id not in self._finished_ids:
                    # Believed running, not on any machine, not finished:
                    # the dispatch evaporated with the crash (e.g. its
                    # completion record was lost and the journal has no
                    # later word). Requeue defensively.
                    task = self._tasks[task_id]
                    if (task not in self.ready
                            and task.state is not TaskState.DONE
                            and task.state is not TaskState.FAILED):
                        task.state = TaskState.PENDING
                        task.start_time = None
                        self.ready.append(task)
                        self._journal("requeue", task)
                        self.monitor.count("orphans_requeued")
        self._kick()

    def _execute(self, task: Task, machine: Machine, incarnation: int):
        """Process: run ``task`` on ``machine``, which :meth:`_start`
        allocated under ``incarnation``; this process owns the release."""
        from repro.sim import Interrupt
        runtime = machine.runtime_of(task.work)
        if self.service_time_factor is not None:
            # Gray-failure hook: a degraded machine still takes work and
            # still finishes it — just slower.
            runtime *= float(self.service_time_factor(machine))
        try:
            yield self.env.timeout(runtime)
        except Interrupt:
            # Machine failed under us.
            self.wasted_core_s += (self.env.now - task.start_time) * task.cores
            self.monitor.count("killed_executions")
            self._track(task)
            del self._procs[task.task_id]
            if self.failure_mode == "drop":
                self._span_end(task, "dropped")
                task.state = TaskState.FAILED
                task.start_time = None
                self.failed.append(task)
                self._journal("drop", task)
            elif self._crashed:
                # A machine died while the scheduler was down: the victim
                # has no scheduler to requeue it — orphaned until recovery.
                self._span_end(task, "killed")
                task.state = TaskState.PENDING
                task.start_time = None
                self._orphaned.append(task)
            else:
                self._span_end(task, "killed")
                task.state = TaskState.PENDING
                task.start_time = None
                self.restarts += 1
                self.ready.append(task)
                self._journal("requeue", task)
            self._kick()
            return
        finally:
            # After a failure this release is stale and returns False: the
            # crash already wiped the allocation and bumped the incarnation
            # (see Machine.fail).
            machine.release(task.cores, task.memory_gb,
                            incarnation=incarnation)
        self.goodput_core_s += runtime * task.cores
        task.state = TaskState.DONE
        task.finish_time = self.env.now
        self._procs.pop(task.task_id, None)
        self._span_end(task, "ok")
        if self._crashed:
            # The task finished on its machine, but the completion report
            # went to a dead scheduler; recovery reconciles it — the task
            # is done (work is never redone), only the bookkeeping lags.
            self._track(task)
            self._unreported.append((task, runtime))
            return
        if self.network is not None:
            if not self._send_report(machine):
                # The report was lost in transit (or refused by a fence-
                # aware brain as stale). Ground truth moved on (machine
                # freed, task DONE) but the scheduler still *believes*
                # the task is running: it stays in ``running`` and joins
                # the pending-reports ledger until a retry gets through —
                # the exact gap the reconciliation law audits.
                self.monitor.count("lost_reports")
                self._pending_reports[task.task_id] = (task, runtime,
                                                       machine)
                if self.report_retry:
                    self.env.process(self._report_later(task))
                return
        self._track(task)
        self._report_completion(task, runtime)
        self.monitor.record("utilization", self.cluster.utilization)
        self._kick()

    def _send_report(self, machine: Machine) -> bool:
        """One completion-report hop home; True when the brain took it.

        Reads ``self.node_name`` fresh on every call, so a retry after a
        failover reaches the *new* leader. With a fencing gate, the
        report carries the machine's witnessed term floor and the brain
        refuses tokens below its current term (teaching the machine the
        live term for the next retry).
        """
        fencing = self.fencing
        if fencing is None:
            verdict = self.network.send(machine.name, self.node_name,
                                        deliver=lambda: None, kind="report")
            return verdict not in ("blocked", "dropped")
        token = fencing.report_token(machine.name)
        outcome: list = []
        verdict = self.network.send(
            machine.name, self.node_name,
            deliver=lambda m=machine.name, t=token:
                outcome.append(fencing.admit_report(m, t)),
            kind="report")
        if verdict in ("blocked", "dropped"):
            return False
        return not outcome or bool(outcome[0])

    def _report_later(self, task: Task):
        """Machine-side retry loop for a lost completion report."""
        while task.task_id in self._pending_reports:
            yield self.env.timeout(self.report_retry_s)
            entry = self._pending_reports.get(task.task_id)
            if entry is None:
                return  # a crash drained it into the unreported ledger
            _, runtime, machine = entry
            if not self._send_report(machine):
                continue
            del self._pending_reports[task.task_id]
            self._track(task)
            self._report_completion(task, runtime)
            self.monitor.record("utilization", self.cluster.utilization)
            self._kick()
            return

    def _report_completion(self, task: Task, runtime: float) -> None:
        """Scheduler-side bookkeeping of one finished task."""
        self.finished.append(task)
        self._finished_ids.add(task.task_id)
        self._journal("complete", task)
        if isinstance(self.policy, FairSharePolicy):
            self.policy.charge(task.user, task.cores * runtime)
        # Unlock this task's successors whose predecessors' completions
        # are all booked here. A predecessor that is DONE on its machine
        # while its report is still lost in the network does not count:
        # the scheduler cannot know it finished. A PENDING successor held
        # in ``_orphaned`` was already submitted and started once;
        # recovery requeues it, so unlocking it here would start it twice.
        workflow = self._workflows.get(task.job_id)
        if workflow is not None:
            for succ in workflow.unlocked_by(task, self._finished_ids):
                if (succ.state is TaskState.PENDING
                        and succ not in self.ready
                        and succ not in self._orphaned):
                    self.ready.append(succ)
                    self.submitted += 1
                    self._journal("submit", succ)

    # -- metrics --------------------------------------------------------------
    def metrics(self) -> ScheduleMetrics:
        if not self.finished:
            raise RuntimeError("no finished tasks; run the simulation first")
        waits = np.array([t.wait_time for t in self.finished])
        responses = np.array([t.response_time for t in self.finished])
        runtimes = np.array([t.runtime for t in self.finished])
        slowdowns = np.maximum(
            responses / np.maximum(runtimes, SLOWDOWN_BOUND_S), 1.0)
        first_submit = min(t.submit_time for t in self.finished)
        makespan = max(t.finish_time for t in self.finished) - first_submit
        total_work = float(
            sum(t.cores * t.runtime for t in self.finished))
        capacity = self.cluster.total_cores * makespan if makespan else 1.0
        job_makespans = [j.makespan for j in self.jobs
                         if j.makespan is not None]
        settled = len(self.finished) + len(self.failed)
        return ScheduleMetrics(
            completed_fraction=len(self.finished) / settled if settled else 0.0,
            goodput_core_s=float(self.goodput_core_s),
            wasted_core_s=float(self.wasted_core_s),
            restarts=self.restarts,
            misdispatches=self.misdispatches,
            policy=self.policy.name,
            n_tasks=len(self.finished),
            mean_wait_s=float(waits.mean()),
            mean_response_s=float(responses.mean()),
            mean_bounded_slowdown=float(slowdowns.mean()),
            p95_bounded_slowdown=float(np.percentile(slowdowns, 95)),
            makespan_s=float(makespan),
            utilization=float(total_work / capacity),
            job_mean_makespan_s=float(np.mean(job_makespans))
            if job_makespans else float("nan"),
        )


def simulate_schedule(jobs: Sequence[Job], cluster: Cluster,
                      policy: Policy) -> ScheduleMetrics:
    """Run one complete schedule and return its metrics."""
    env = Environment()
    sim = ClusterSimulator(env, cluster, policy)
    sim.submit_jobs(list(jobs))
    env.run()
    return sim.metrics()
