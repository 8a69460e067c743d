"""Journal shipping: in-order apply, cumulative acks, loss recovery."""

import pytest

from repro.recovery import Journal
from repro.replication import JournalReplicator
from repro.sim import Environment, Network, RandomStreams


class ScriptedDrop:
    """Drop the next ``n`` journal messages to ``dst`` (then deliver)."""

    def __init__(self, dst):
        self.dst = dst
        self.remaining = 0

    def drops(self, src, dst, kind):
        if kind == "journal" and dst == self.dst and self.remaining > 0:
            self.remaining -= 1
            return True
        return False


def make_world(standbys=("S1",)):
    env = Environment()
    network = Network(env)
    network.add_node("L")
    for s in standbys:
        network.add_node(s)
    journal = Journal(env, append_cost_s=0.0)
    rep = JournalReplicator(env, network, journal, "L", list(standbys),
                            ship_interval_s=0.5, batch=16)
    return env, network, journal, rep


def test_ship_apply_ack_in_order():
    env, network, journal, rep = make_world()
    applied = []
    rep.on_apply = lambda s, r: applied.append((s, r.seq))
    for i in range(5):
        journal.append("submit", {"task_id": i})
    env.run(until=2.0)
    assert rep.applied_seq("S1") == 4
    assert rep.acked["S1"] == 4
    assert applied == [("S1", i) for i in range(5)]
    assert [r.seq for r in rep.replicas["S1"]] == list(range(5))
    assert rep.out_of_order == 0 and rep.duplicates == 0
    # Nothing left to ship: a fully acked standby costs no traffic.
    shipped = rep.shipped_records
    env.run(until=4.0)
    assert rep.shipped_records == shipped
    assert rep.lag_of("S1") == 0


def test_dropped_record_gaps_are_discarded_then_reshipped():
    env, network, journal, rep = make_world()
    drop = network.attach(ScriptedDrop("S1"))
    journal.append("submit", {"task_id": 0})
    journal.append("dispatch", {"task_id": 0})
    drop.remaining = 1  # eat seq 0 in flight; seq 1 arrives as a gap
    env.run(until=0.6)
    assert rep.out_of_order == 1
    assert rep.applied_seq("S1") == -1  # the gap never applied
    assert rep.acked["S1"] == -1       # and a gap is never acked
    env.run(until=2.0)
    # Next ticks re-ship from the cumulative ack: both land, in order.
    assert rep.applied_seq("S1") == 1
    assert rep.acked["S1"] == 1
    assert rep.resends >= 1
    assert [r.seq for r in rep.replicas["S1"]] == [0, 1]
    assert rep.duplicates == 0


def test_lost_ack_reships_and_deduplicates():
    env, network, journal, rep = make_world()

    class AckEater:
        eating = True

        def drops(self, src, dst, kind):
            return kind == "journal_ack" and self.eating

    eater = network.attach(AckEater())
    journal.append("submit", {"task_id": 0})
    env.run(until=1.1)
    # Applied but never acked: the leader keeps re-shipping.
    assert rep.applied_seq("S1") == 0
    assert rep.acked["S1"] == -1
    assert rep.resends >= 1
    eater.eating = False
    env.run(until=2.5)
    assert rep.acked["S1"] == 0
    # The re-shipped copies were recognized, not re-applied.
    assert rep.duplicates >= 1
    assert [r.seq for r in rep.replicas["S1"]] == [0]


def test_set_leader_swaps_the_shipping_direction():
    env, network, journal, rep = make_world(standbys=("S1", "S2"))
    journal.append("submit", {"task_id": 0})
    env.run(until=1.1)
    assert rep.acked["S1"] == 0 and rep.acked["S2"] == 0
    rep.set_leader("S1")
    assert rep.leader == "S1"
    assert sorted(rep.standbys) == ["L", "S2"]
    journal.append("dispatch", {"task_id": 0})
    env.run(until=2.5)
    # The new leader ships to everyone else, old leader included.
    assert rep.applied_seq("S2") == 1
    assert rep.acked["S2"] == 1


class SeededDrop:
    """Drop each journal message or ack with probability ``p``."""

    def __init__(self, rng, p):
        self.rng = rng
        self.p = p

    def drops(self, src, dst, kind):
        return kind.startswith("journal") and float(self.rng.random()) < self.p


class ScanReplicator(JournalReplicator):
    """The ship window and lag as full scans over the durable records:
    the reference the bisected suffix must match."""

    def lag_of(self, node, now=None):
        durable = self.journal.durable_records(now)
        return sum(1 for r in durable if r.seq > self.acked.get(node, -1))

    def _ship_loop(self):
        while True:
            yield self.env.timeout(self.ship_interval_s)
            durable = self.journal.durable_records(self.env.now)
            for standby in self.standbys:
                acked = self.acked[standby]
                window = [r for r in durable if r.seq > acked][:self.batch]
                if not window:
                    continue
                self.batches += 1
                for record in window:
                    if record.seq <= self._sent[standby]:
                        self.resends += 1
                    else:
                        self._sent[standby] = record.seq
                    self.shipped_records += 1
                    self.network.send(
                        self.leader, standby,
                        deliver=lambda s=standby, r=record:
                            self._receive(s, r),
                        kind="journal")


def run_shipping_world(cls, seed, append_cost_s):
    """A lossy three-node world with seeded appends and checkpoint
    truncations; returns the replicator and every shipped record and
    lag probe, in order."""
    streams = RandomStreams(seed)
    env = Environment()
    network = Network(env)
    for node in ("L", "S1", "S2"):
        network.add_node(node)
    network.attach(SeededDrop(streams.get("drops"), 0.3))
    journal = Journal(env, append_cost_s=append_cost_s)
    rep = cls(env, network, journal, "L", ["S1", "S2"],
              ship_interval_s=0.5, batch=4)
    shipped = []
    receive = rep._receive

    def logged_receive(standby, record):
        shipped.append((env.now, standby, record.seq))
        receive(standby, record)
    rep._receive = logged_receive
    probes = []
    rng = streams.get("ops")

    def writer():
        while env.now < 30.0:
            yield env.timeout(float(rng.choice([0.0, 0.05, 0.2, 0.7])))
            for _ in range(int(rng.integers(1, 4))):
                journal.append("e")
            if float(rng.random()) < 0.05:
                journal.truncate(min(rep.acked["S1"], rep.acked["S2"]))
            for node in ("S1", "S2"):
                for now in (None, env.now - 0.3, env.now + append_cost_s,
                            env.now + 5.0):
                    probes.append(rep.lag_of(node, now))

    env.process(writer())
    env.run(until=40.0)
    return rep, shipped, probes


@pytest.mark.parametrize("append_cost_s", [0.0, 0.3])
@pytest.mark.parametrize("seed", range(3))
def test_ship_window_and_lag_match_full_scan(seed, append_cost_s):
    rep, shipped, probes = run_shipping_world(JournalReplicator, seed,
                                              append_cost_s)
    ref, ref_shipped, ref_probes = run_shipping_world(ScanReplicator, seed,
                                                      append_cost_s)
    assert shipped == ref_shipped
    assert probes == ref_probes
    for attr in ("shipped_records", "resends", "batches", "duplicates",
                 "out_of_order", "acks_received", "acked"):
        assert getattr(rep, attr) == getattr(ref, attr), attr
    assert rep.journal.truncations > 0
    assert rep.resends > 0 and rep.batches > len(shipped) / rep.batch
    assert max(probes) > rep.batch
