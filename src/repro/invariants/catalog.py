"""The law catalog: conservation identities for each stack layer.

Each factory binds one generic law to one live component and returns a
:class:`~repro.invariants.ConservationLaw` ready for an
:class:`~repro.invariants.InvariantEngine`. The catalog (mirrored by the
table in ``docs/invariants.md``, which a test parses) is the repo's
answer to the paper's call for cross-layer guarantees in composed
ecosystems: every unit of work must be somewhere, at every instant, no
matter which combination of partitions, gray failures, crashes, and
admission decisions is active.
"""

from __future__ import annotations

from typing import Iterable

from repro.invariants.laws import ConservationLaw, Term, counter_term

__all__ = [
    "checkpoint_accounting",
    "fencing_conservation",
    "front_door_conservation",
    "leader_uniqueness",
    "network_conservation",
    "scheduler_conservation",
    "scheduler_reconciliation",
    "serverless_conservation",
    "standard_laws",
]


def network_conservation(network) -> ConservationLaw:
    """Every message sent is delivered, blocked, dropped, or in flight."""
    return ConservationLaw(
        name="network.conservation",
        description="sent == delivered + blocked + dropped + in_flight",
        lhs=[Term("sent", lambda: network.sent)],
        rhs=[Term("delivered", lambda: network.delivered),
             Term("blocked", lambda: network.blocked),
             Term("dropped", lambda: network.dropped),
             Term("in_flight", lambda: network.in_flight)])


def scheduler_conservation(sim) -> ConservationLaw:
    """Every submitted task is settled or in exactly one waiting room.

    ``submitted`` counts first arrivals (bag tasks, unlocked workflow
    successors) — requeues and restarts move a task between rooms but
    never mint one.
    """
    return ConservationLaw(
        name="scheduler.conservation",
        description=("submitted == finished + failed + ready + running "
                     "+ limbo + orphaned + unreported"),
        lhs=[Term("submitted", lambda: sim.submitted)],
        rhs=[Term("finished", lambda: len(sim.finished)),
             Term("failed", lambda: len(sim.failed)),
             Term("ready", lambda: len(sim.ready)),
             Term("running", lambda: len(sim.running)),
             Term("limbo", lambda: len(sim._limbo)),
             Term("orphaned", lambda: len(sim._orphaned)),
             Term("unreported", lambda: len(sim._unreported))])


def scheduler_reconciliation(sim) -> ConservationLaw:
    """Believed-running reconciles against executions + missing reports.

    The scheduler's belief ledger (``running``) may lag ground truth only
    by completion reports the network has not yet carried home; anything
    else unaccounted is a lost or duplicated task.
    """
    return ConservationLaw(
        name="scheduler.reconciliation",
        description="believed_running == executing + pending_reports",
        lhs=[Term("believed_running", lambda: len(sim.running))],
        rhs=[Term("executing", lambda: len(sim._procs)),
             Term("pending_reports", lambda: len(sim._pending_reports))])


def serverless_conservation(platform) -> ConservationLaw:
    """Every invocation offered to the platform reaches exactly one fate.

    The served/shed/rejected/failed terms read the *metrics registry* —
    so a drift between the platform's own objects and what it reported
    is itself a violation.
    """
    registry = platform.monitor.registry

    def executing() -> int:
        return sum(1 for inv in platform.invocations
                   if inv.finish_time is None and not inv.shed
                   and not inv.rejected and not inv.failed)

    return ConservationLaw(
        name="serverless.conservation",
        description="offered == served + shed + rejected + failed "
                    "+ executing",
        lhs=[Term("offered", lambda: len(platform.invocations))],
        rhs=[counter_term(registry, "serverless.invocations", "served"),
             counter_term(registry, "serverless.shed", "shed"),
             counter_term(registry, "serverless.rejections", "rejected"),
             counter_term(registry, "serverless.failed_invocations",
                          "failed"),
             Term("executing", executing)])


def front_door_conservation(door) -> ConservationLaw:
    """Admission control never loses a request: offered == admitted + shed.

    ``door`` is anything with ``offered`` / ``admitted`` / ``shed``
    counters (e.g. the composed scenario's front door, or a
    :class:`~repro.resilience.TokenBucketAdmitter` where ``offered`` is
    ``admitted + shed`` by construction and the law guards the counters
    against future drift).
    """
    return ConservationLaw(
        name="frontdoor.conservation",
        description="offered == admitted + shed",
        lhs=[Term("offered", lambda: door.offered)],
        rhs=[Term("admitted", lambda: door.admitted),
             Term("shed", lambda: door.shed)])


def checkpoint_accounting(job) -> ConservationLaw:
    """The recovery ledger identity of one :class:`CheckpointedJob`.

    Only meaningful once the job finished (mid-run, the current phase's
    partial time is in no bucket yet), so the law guards on
    ``finished_at``.
    """
    return ConservationLaw(
        name="checkpoint.accounting",
        description=("makespan == work + checkpoint_time + lost_work "
                     "+ recovery_time + downtime"),
        when=lambda: job.finished_at is not None,
        lhs=[Term("makespan", lambda: (job.finished_at or 0.0)
                  - job.started_at)],
        rhs=[Term("work", lambda: job.work_s),
             Term("checkpoint_time", lambda: job.checkpoint_time_s),
             Term("lost_work", lambda: job.lost_work_s),
             Term("recovery_time", lambda: job.recovery_time_s),
             Term("downtime", lambda: job.downtime_s)])


def leader_uniqueness(election) -> ConservationLaw:
    """Elections never mint two leaders for one term.

    ``promotions`` counts every win (including the boot-time leader);
    ``leaders_by_term`` records the first winner per term and is only
    ever extended via ``setdefault`` — a double win at one term makes
    the left side overshoot the right, at the exact check after it
    happens.
    """
    return ConservationLaw(
        name="replication.at_most_one_leader_per_term",
        description="promotions == terms_with_a_leader",
        lhs=[Term("promotions", lambda: election.promotions)],
        rhs=[Term("terms_with_a_leader",
                  lambda: len(election.leaders_by_term))])


def fencing_conservation(control_plane) -> ConservationLaw:
    """Every stale write a deposed leader lands is rejected and counted.

    The gate's machine-side rejection counter must track the control
    plane's stale-dispatch ledger one-for-one: a gap on the left means
    a fenced machine rejected a *live* write; a gap on the right means
    a deposed leader's write was silently accepted — split-brain.
    """
    return ConservationLaw(
        name="replication.fenced_writes_rejected",
        description="fenced_writes_rejected == stale_dispatches",
        lhs=[Term("fenced_writes_rejected",
                  lambda: control_plane.gate.rejected)],
        rhs=[Term("stale_dispatches",
                  lambda: control_plane.stale_dispatches)])


def standard_laws(network=None, scheduler=None, platform=None,
                  front_door=None,
                  jobs: Iterable = (),
                  control_plane=None) -> list[ConservationLaw]:
    """Every applicable catalog law for the components actually present."""
    laws: list[ConservationLaw] = []
    if network is not None:
        laws.append(network_conservation(network))
    if scheduler is not None:
        laws.append(scheduler_conservation(scheduler))
        laws.append(scheduler_reconciliation(scheduler))
    if platform is not None:
        laws.append(serverless_conservation(platform))
    if front_door is not None:
        laws.append(front_door_conservation(front_door))
    if control_plane is not None:
        laws.append(leader_uniqueness(control_plane.election))
        laws.append(fencing_conservation(control_plane))
    for i, job in enumerate(jobs):
        law = checkpoint_accounting(job)
        if i:
            law.name = f"checkpoint.accounting.{i}"
        laws.append(law)
    return laws
