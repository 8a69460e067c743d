"""The replicated control plane: election + shipping + fencing, composed.

:class:`ReplicatedControlPlane` wraps a running scheduler brain (duck-
typed — any object with the :class:`~repro.scheduling.simulator.\
ClusterSimulator` recovery surface: ``journal``, ``node_name``,
``cluster``, ``crashed``, ``crash_scheduler``, ``recover_scheduler``,
``belief_from_record``, ``fencing``) and makes its *location* highly
available:

- a :class:`~repro.replication.election.LeaseElection` decides which
  control node holds the lease;
- a :class:`~repro.replication.shipping.JournalReplicator` keeps each
  standby's believed-state replica warm from the leader's WAL;
- a :class:`~repro.replication.fencing.FencingGate` is installed on the
  scheduler so every dispatch and report carries a term token.

On promotion the new leader fences all machines at its term, takes over
the brain, and recovers from its *shipped prefix* — no journal replay,
just the takeover cost plus the usual reconciliation against
``_pending_reports`` and in-flight work. A deposed leader that still
believes it leads keeps writing; its dispatches bounce off the fence,
are counted, and the rejections eventually teach it to step down.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.replication.election import LeaseElection
from repro.replication.fencing import FencingGate
from repro.replication.shipping import JournalReplicator
from repro.resilience.detection import PhiAccrualDetector
from repro.sim import Environment, Monitor, Network, RandomStreams

#: A deposed leader that still believes it leads sends a stale dispatch
#: to each of the first ``PROBE_BATCH`` machines every
#: ``PROBE_INTERVAL_S`` seconds.
PROBE_INTERVAL_S = 2.0
PROBE_BATCH = 3


class ReplicatedControlPlane:
    """Hot-standby replication for a journaled scheduler brain."""

    def __init__(self, env: Environment, scheduler, network: Network,
                 nodes: Iterable[str], streams: RandomStreams, *,
                 lease_ttl_s: float = 4.0,
                 renew_interval_s: float = 1.0,
                 takeover_cost_s: float = 0.5,
                 detector: Optional[PhiAccrualDetector] = None,
                 monitor: Optional[Monitor] = None,
                 tracer=None,
                 self_demote: Optional[dict] = None,
                 fence_on_failover: bool = True):
        self.env = env
        self.scheduler = scheduler
        self.network = network
        self.nodes = list(nodes)
        if scheduler.node_name != self.nodes[0]:
            raise ValueError(
                f"scheduler.node_name {scheduler.node_name!r} must be the "
                f"initial leader {self.nodes[0]!r}")
        if scheduler.journal is None:
            raise ValueError("a replicated control plane needs a journal")
        self.monitor = Monitor(env) if monitor is None else monitor
        self.tracer = tracer
        self.takeover_cost_s = takeover_cost_s
        #: ``False`` is a deliberately plantable bug knob (for fault-
        #: injection campaigns): promotion skips the machine fence
        #: broadcasts, so a deposed leader's stale writes are *accepted*
        #: — the split-brain the ``replication.fenced_writes_rejected``
        #: law exists to catch.
        self.fence_on_failover = fence_on_failover

        self.gate = FencingGate(monitor=self.monitor)
        scheduler.fencing = self.gate

        if detector is None:
            detector = PhiAccrualDetector(
                env, threshold=4.0, poll_interval_s=0.25,
                monitor=self.monitor, name="lease")
        self.detector = detector
        self.election = LeaseElection(
            env, network, self.nodes, detector, streams,
            lease_ttl_s=lease_ttl_s, renew_interval_s=renew_interval_s,
            monitor=self.monitor, tracer=tracer,
            on_promote=self._on_promote)
        if self_demote:
            self.election.self_demote.update(self_demote)
        self.replicator = JournalReplicator(
            env, network, scheduler.journal,
            leader=self.nodes[0], standbys=self.nodes[1:],
            on_apply=self._apply, monitor=self.monitor)
        self.gate.advance(self.election.term_of(self.nodes[0]))

        #: Per-standby believed task state, built record by record as
        #: the journal ships — the warm replica a promotion starts from.
        self._believed: dict[str, dict] = {n: {} for n in self.nodes}
        self.promoted_at: dict[int, float] = {}
        self.deposed_at: dict[str, float] = {}
        self.journal_records_at_failover = 0
        self.unshipped_at_promotion = 0

    failovers = property(lambda self: self.monitor.total("failovers"))
    stale_dispatches = property(
        lambda self: self.monitor.total("stale_dispatches"))
    #: Stale writes a machine *accepted* (possible only with the fence
    #: disabled) — each one is a split-brain write.
    split_brain_writes = property(
        lambda self: self.monitor.total("split_brain_writes"))

    # -- replica maintenance --------------------------------------------

    def _apply(self, standby: str, record) -> None:
        entry = self.scheduler.belief_from_record(record)
        if entry is not None:
            self._believed[standby][entry[0]] = entry[1]

    # -- failover --------------------------------------------------------

    def _on_promote(self, node: str, term: int) -> None:
        if node == self.scheduler.node_name:
            return  # the incumbent re-won; nothing moves
        self.env.process(self._failover(node, term))

    def _failover(self, node: str, term: int):
        old = self.scheduler.node_name
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "replication.failover", node=node, term=term)
        # Freeze the old brain's books. In the scenario that matters the
        # old leader is partitioned away and keeps its own (stale) copy;
        # the shared-state model below is the *cluster-visible* brain.
        if not self.scheduler.crashed:
            self.scheduler.crash_scheduler()
        # Fence every machine at the new term before the first dispatch.
        # With the bug knob thrown, the new leader never raises the epoch:
        # no broadcasts, no gate advance — the deposed leader's writes
        # stay indistinguishable from live ones at every machine.
        if self.fence_on_failover:
            for machine in self.scheduler.cluster.machines:
                self.network.send(
                    node, machine.name,
                    deliver=lambda m=machine.name, t=term:
                        self.gate.raise_floor(m, t),
                    kind="fence")
                self.monitor.count("fence_broadcasts")
            self.gate.advance(term)
        durable = self.scheduler.journal.durable_records(self.env.now)
        self.journal_records_at_failover = len(durable)
        self.unshipped_at_promotion = sum(
            1 for r in durable if r.seq > self.replicator.applied_seq(node))
        self.scheduler.node_name = node
        self.replicator.set_leader(node)
        believed = dict(self._believed[node])
        yield from self.scheduler.recover_scheduler(
            believed=believed, restart_cost_s=self.takeover_cost_s)
        self.promoted_at[term] = self.env.now
        self.monitor.count("failovers", key=node)
        if span is not None:
            self.tracer.end_span(span, status="ok")
        if self.election.believes_leader(old):
            self.env.process(self._stale_writer(old))

    def _stale_writer(self, old: str):
        """Model the deposed leader's split brain until fencing stops it.

        The old leader still believes it holds the lease, so it keeps
        trying to dispatch. Each probe round sends term-stamped dispatch
        messages at a few machines; any that get through the partition
        are rejected by the fence. The first rejection a round observes
        is the proof of a higher term — the old leader steps down.
        """
        term = self.election.term_of(old)
        machines = [m.name for m in self.scheduler.cluster.machines]
        targets = machines[:PROBE_BATCH]
        while self.election.believes_leader(old):
            rejections = []
            for target in targets:
                self.network.send(
                    old, target,
                    deliver=lambda m=target, t=term:
                        self._stale_probe(m, t, rejections),
                    kind="dispatch")
            yield self.env.timeout(PROBE_INTERVAL_S)
            if rejections:
                self.election.depose(old)
                self.deposed_at[old] = self.env.now
                break

    def _stale_probe(self, machine: str, term: int,
                     rejections: list) -> None:
        # Every delivered stale write counts; with the fence up, each is
        # rejected one-for-one (the fencing conservation law). An
        # *accepted* stale write is split-brain — the law's left side
        # stops tracking the right, and the invariant engine sees it.
        self.monitor.count("stale_dispatches")
        if not self.gate.admit_dispatch(machine, term):
            rejections.append(machine)
        else:
            self.monitor.count("split_brain_writes")
