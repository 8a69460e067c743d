"""Journal shipping: the leader streams its WAL to hot standbys.

The leader's :class:`~repro.recovery.journal.Journal` is the source of
truth; :class:`JournalReplicator` ships its *durable* records (append
cost already paid) to every standby over the network fabric in seq
order, and standbys acknowledge cumulatively. The acked window is the
durability guarantee a promotion relies on: everything at or below
``acked`` provably reached the standby before the leader died.

Delivery is at-least-once and order-tolerant: records lost to drops or
partitions are re-shipped from the cumulative ack on every tick (counted
as resends), receivers apply strictly in seq order and discard gaps and
duplicates. ``on_apply(standby, record)`` fires exactly once per record
per standby, in order — the hook a control plane uses to keep each
standby's believed-state replica warm, so promotion replays nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Callable, Iterable, Optional

from repro.recovery.journal import Journal, JournalRecord
from repro.sim import Environment, Monitor, Network

_seq = attrgetter("seq")


def _first_unacked(durable: list[JournalRecord], acked: int) -> int:
    """Index of the first durable record past the cumulative ``acked``
    seq. Seqs strictly increase, so the unacked records are the suffix
    from there."""
    return bisect_right(durable, acked, key=_seq)


class JournalReplicator:
    """Leader-to-standby WAL streaming with a cumulative acked window."""

    def __init__(self, env: Environment, network: Network, journal: Journal,
                 leader: str, standbys: Iterable[str], *,
                 ship_interval_s: float = 0.5,
                 batch: int = 16,
                 on_apply: Optional[
                     Callable[[str, JournalRecord], None]] = None,
                 monitor: Optional[Monitor] = None):
        self.env = env
        self.network = network
        self.journal = journal
        self.leader = leader
        self.standbys = [n for n in standbys if n != leader]
        self.ship_interval_s = ship_interval_s
        self.batch = batch
        self.on_apply = on_apply
        self.monitor = Monitor(env) if monitor is None else monitor

        all_nodes = [leader, *self.standbys]
        #: Highest seq ever sent to each node (resend detection).
        self._sent = {n: -1 for n in all_nodes}
        #: Highest seq each node has applied, contiguously.
        self._applied = {n: -1 for n in all_nodes}
        #: Leader's view: highest cumulatively acked seq per node.
        self.acked = {n: -1 for n in all_nodes}
        #: Each standby's replica of the shipped prefix, in seq order.
        self.replicas: dict[str, list[JournalRecord]] = {
            n: [] for n in all_nodes}

        # Ints, not views: subclasses overriding the ship loop write them.
        self.shipped_records = 0
        self.resends = 0
        self.batches = 0
        self.duplicates = 0
        self.out_of_order = 0

        self._proc = env.process(self._ship_loop())

    acks_received = property(lambda self: self.monitor.total("ship_acks"))

    def set_leader(self, node: str) -> None:
        """Promotion: ``node`` now ships to everyone else.

        The deposed leader becomes a standby and is caught up from its
        cumulative ack (its own writes — it already has them — but the
        replica/ack bookkeeping restarts honestly from what the new
        leader knows it has confirmed, which is nothing).
        """
        if node == self.leader:
            return
        previous = self.leader
        self.leader = node
        self.standbys = [n for n in [previous, *self.standbys]
                         if n != node]

    def applied_seq(self, node: str) -> int:
        """Highest journal seq ``node`` has contiguously applied."""
        return self._applied.get(node, -1)

    def lag_of(self, node: str, now: Optional[float] = None) -> int:
        """Durable records the leader holds that ``node`` has not acked."""
        durable = self.journal.durable_records(now)
        return len(durable) - _first_unacked(durable,
                                             self.acked.get(node, -1))

    def _ship_loop(self):
        while True:
            yield self.env.timeout(self.ship_interval_s)
            durable = self.journal.durable_records(self.env.now)
            for standby in self.standbys:
                acked = self.acked[standby]
                first = _first_unacked(durable, acked)
                window = durable[first:first + self.batch]
                if not window:
                    continue
                self.batches += 1
                for record in window:
                    if record.seq <= self._sent[standby]:
                        self.resends += 1
                        self.monitor.count("ship_resends")
                    else:
                        self._sent[standby] = record.seq
                    self.shipped_records += 1
                    self.monitor.count("shipped_records")
                    self.network.send(
                        self.leader, standby,
                        deliver=lambda s=standby, r=record:
                            self._receive(s, r),
                        kind="journal")
                self.monitor.record("ship_lag",
                                    float(len(durable) - 1 - acked))

    def _receive(self, standby: str, record: JournalRecord) -> None:
        leader = self.leader
        if record.seq <= self._applied[standby]:
            # Re-shipped after an ack was lost: re-ack, don't re-apply.
            self.duplicates += 1
        elif record.seq == self._applied[standby] + 1:
            self._applied[standby] = record.seq
            self.replicas[standby].append(record)
            if self.on_apply is not None:
                self.on_apply(standby, record)
        else:
            # A gap: an earlier record was dropped in flight. Discard —
            # the leader re-ships from the cumulative ack next tick.
            self.out_of_order += 1
            return
        self.network.send(
            standby, leader,
            deliver=lambda s=standby, q=self._applied[standby]:
                self._receive_ack(s, q),
            kind="journal_ack")

    def _receive_ack(self, standby: str, seq: int) -> None:
        if seq > self.acked[standby]:
            self.acked[standby] = seq
        self.monitor.count("ship_acks")
