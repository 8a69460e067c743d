"""Tests for the fault-aware message fabric (`repro.sim.Network`)."""

import numpy as np
import pytest

from repro.sim import Environment, Monitor, Network, RandomStreams


class Blocker:
    """Test model: blocks a fixed (src, dst) pair."""

    def __init__(self, src, dst):
        self.pair = (src, dst)

    def blocks(self, src, dst):
        return (src, dst) == self.pair


class Dropper:
    """Test model: drops every message of one kind."""

    def __init__(self, kind):
        self.kind = kind

    def drops(self, src, dst, kind):
        return kind == self.kind


class Delayer:
    """Test model: constant extra latency on every path."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def extra_latency_s(self, src, dst):
        return self.delay_s


class RngDropper:
    """Test model: drops ``data`` with probability ``rate``, recording
    every call and drawing one RNG sample per eligible message."""

    def __init__(self, rng, rate=0.5):
        self.rng = rng
        self.rate = rate
        self.calls = []

    def drops(self, src, dst, kind):
        self.calls.append((src, dst, kind))
        return kind == "data" and bool(self.rng.random() < self.rate)


class FullModel:
    """Test model speaking all three hooks, recording every call."""

    def __init__(self, blocked_pair, drop_kind, delay_s):
        self.blocked_pair = blocked_pair
        self.drop_kind = drop_kind
        self.delay_s = delay_s
        self.calls = []

    def blocks(self, src, dst):
        self.calls.append(("blocks", src, dst))
        return (src, dst) == self.blocked_pair

    def drops(self, src, dst, kind):
        self.calls.append(("drops", src, dst))
        return kind == self.drop_kind

    def extra_latency_s(self, src, dst):
        self.calls.append(("extra_latency_s", src, dst))
        return self.delay_s if src == "c" else 0.0


def make_net(*nodes):
    env = Environment()
    net = Network(env)
    net.add_nodes(nodes)
    return env, net


class TestTopology:
    def test_add_node_is_idempotent(self):
        _, net = make_net("a")
        net.add_node("a")
        assert net.nodes == ["a"]

    def test_nodes_keep_registration_order(self):
        _, net = make_net("b", "a", "c")
        assert net.nodes == ["b", "a", "c"]

    def test_unknown_node_raises(self):
        _, net = make_net("a")
        with pytest.raises(KeyError):
            net.send("a", "ghost", deliver=lambda: None)
        with pytest.raises(KeyError):
            net.allows("ghost", "a")


class TestSend:
    def test_zero_latency_delivers_synchronously(self):
        _, net = make_net("a", "b")
        seen = []
        verdict = net.send("a", "b", deliver=lambda: seen.append(1))
        assert verdict == "delivered"
        assert seen == [1]

    def test_blocked_message_never_delivers(self):
        _, net = make_net("a", "b")
        net.attach(Blocker("a", "b"))
        seen = []
        assert net.send("a", "b", deliver=lambda: seen.append(1)) == "blocked"
        assert seen == []
        # The reverse direction is unaffected.
        assert net.send("b", "a", deliver=lambda: seen.append(2)) \
            == "delivered"
        assert seen == [2]

    def test_dropped_message_never_delivers(self):
        _, net = make_net("a", "b")
        net.attach(Dropper("data"))
        seen = []
        assert net.send("a", "b", deliver=lambda: seen.append(1),
                        kind="data") == "dropped"
        assert net.send("a", "b", deliver=lambda: seen.append(2),
                        kind="heartbeat") == "delivered"
        assert seen == [2]

    def test_block_beats_drop(self):
        _, net = make_net("a", "b")
        net.attach(Dropper("data"))
        net.attach(Blocker("a", "b"))
        assert net.send("a", "b", deliver=lambda: None,
                        kind="data") == "blocked"
        assert net.dropped == 0

    def test_latency_defers_delivery(self):
        env, net = make_net("a", "b")
        net.attach(Delayer(2.5))
        seen = []
        assert net.send("a", "b", deliver=lambda: seen.append(env.now)) \
            == "in_flight"
        assert net.in_flight == 1
        env.run()
        assert seen == [2.5]
        assert net.in_flight == 0
        assert net.delivered == 1

    def test_latencies_are_additive(self):
        _, net = make_net("a", "b")
        net.attach(Delayer(1.0))
        net.attach(Delayer(0.5))
        assert net.latency_s("a", "b") == pytest.approx(1.5)


class TestHookBinding:
    """Hooks are bound once at attach; every verdict walks them in attach
    order, and a model lacking a hook is simply absent from that walk."""

    def test_models_with_partial_hooks(self):
        _, net = make_net("a", "b")
        net.attach(Dropper("data"))
        net.attach(Delayer(0.25))
        full = net.attach(FullModel(("b", "a"), "bulk", 0.5))
        assert net.allows("a", "b")
        assert not net.allows("b", "a")
        assert net.latency_s("a", "b") == 0.25
        assert net.send("a", "b", deliver=lambda: None, kind="data") \
            == "dropped"
        # The earlier drop short-circuits the later model's drop hook.
        assert full.calls == [("blocks", "a", "b"), ("blocks", "b", "a"),
                              ("extra_latency_s", "a", "b"),
                              ("blocks", "a", "b")]
        assert net.send("a", "b", deliver=lambda: None, kind="bulk") \
            == "dropped"
        assert full.calls[-1] == ("drops", "a", "b")
        assert net.dropped == 2

    def test_earlier_block_skips_later_drop_and_its_rng_draw(self):
        _, net = make_net("a", "b")
        net.attach(Blocker("a", "b"))
        rng = RandomStreams(5).get("drops")
        dropper = net.attach(RngDropper(rng, rate=0.5))
        state = rng.bit_generator.state
        for _ in range(5):
            assert net.send("a", "b", deliver=lambda: None,
                            kind="data") == "blocked"
        assert dropper.calls == []
        assert rng.bit_generator.state == state
        net.send("b", "a", deliver=lambda: None, kind="data")
        assert dropper.calls == [("b", "a", "data")]
        assert rng.bit_generator.state != state

    def test_drops_run_in_attach_order(self):
        _, net = make_net("a", "b")
        first = net.attach(RngDropper(np.random.default_rng(1), rate=1.0))
        second = net.attach(RngDropper(np.random.default_rng(2), rate=1.0))
        assert net.send("a", "b", deliver=lambda: None,
                        kind="data") == "dropped"
        assert first.calls == [("a", "b", "data")]
        assert second.calls == []

    def test_allows_and_latency_agree_with_send(self):
        env, net = make_net("a", "b", "c")
        net.attach(Blocker("a", "b"))
        net.attach(Dropper("data"))
        net.attach(Delayer(0.0))
        net.attach(FullModel(("c", "a"), "bulk", 1.5))
        for src in ("a", "b", "c"):
            for dst in ("a", "b", "c"):
                for kind in ("message", "data", "bulk"):
                    arrived = []
                    allowed = net.allows(src, dst)
                    latency = net.latency_s(src, dst)
                    sent_at = env.now
                    verdict = net.send(
                        src, dst, deliver=lambda: arrived.append(env.now),
                        kind=kind)
                    if not allowed:
                        assert verdict == "blocked"
                    elif kind in ("data", "bulk"):
                        assert verdict == "dropped"
                    elif latency > 0:
                        assert verdict == "in_flight"
                        env.run()
                        assert arrived == [sent_at + latency]
                    else:
                        assert verdict == "delivered"
                        assert arrived == [sent_at]
        assert net.sent == net.delivered + net.blocked + net.dropped
        assert net.blocked == 6


class TestConservation:
    def test_ledger_balances_through_mixed_outcomes(self):
        env, net = make_net("a", "b", "c")
        net.attach(Blocker("a", "b"))
        net.attach(Dropper("data"))
        net.attach(Delayer(1.0))
        net.send("a", "b", deliver=lambda: None)            # blocked
        net.send("a", "c", deliver=lambda: None, kind="data")  # dropped
        net.send("b", "c", deliver=lambda: None)            # in flight
        net.send("c", "a", deliver=lambda: None)            # in flight
        assert net.sent == 4
        assert net.sent == (net.delivered + net.blocked + net.dropped
                            + net.in_flight)
        env.run()
        assert net.in_flight == 0
        assert net.sent == net.delivered + net.blocked + net.dropped

    def test_by_kind_breakdown(self):
        _, net = make_net("a", "b")
        net.attach(Dropper("data"))
        net.send("a", "b", deliver=lambda: None, kind="data")
        net.send("a", "b", deliver=lambda: None, kind="heartbeat")
        assert net.by_kind["data"]["sent"] == 1
        assert net.by_kind["data"]["dropped"] == 1
        assert net.by_kind["heartbeat"]["delivered"] == 1

    def test_monitor_counts_by_kind(self):
        env = Environment()
        monitor = Monitor(env, namespace="network")
        net = Network(env, monitor=monitor)
        net.add_nodes(["a", "b"])
        net.send("a", "b", deliver=lambda: None, kind="report")
        assert monitor.counters["sent"].by_key["report"] == 1
        assert monitor.counters["delivered"].by_key["report"] == 1


def test_default_latency_validation():
    with pytest.raises(ValueError):
        Network(Environment(), default_latency_s=-1.0)


# -- reference oracle: the triple-booked ledger ------------------------------
class TripleBookNetwork:
    """The fabric's earlier bookkeeping, kept as an oracle.

    Every message is booked three times, through two ``_book`` calls per
    send: in an attribute counter, in ``by_kind`` and in the monitor.
    Routing is the same as :class:`Network`'s (no default latency).
    """

    def __init__(self, env, monitor=None):
        self.env = env
        self.monitor = monitor
        self._nodes = {}
        self._blocks, self._drops, self._latencies = [], [], []
        self.sent = self.delivered = self.blocked = self.dropped = 0
        self.in_flight = 0
        self.by_kind = {}

    def add_nodes(self, names):
        for name in names:
            self._nodes[str(name)] = None

    def attach(self, model):
        for hooks, name in ((self._blocks, "blocks"), (self._drops, "drops"),
                            (self._latencies, "extra_latency_s")):
            hook = getattr(model, name, None)
            if hook is not None:
                hooks.append(hook)
        return model

    def _book(self, outcome, kind):
        per_kind = self.by_kind.get(kind)
        if per_kind is None:
            per_kind = self.by_kind[kind] = {
                "sent": 0, "delivered": 0, "blocked": 0, "dropped": 0}
        per_kind[outcome] += 1
        if self.monitor is not None:
            self.monitor.count(outcome, key=kind)

    def send(self, src, dst, deliver, kind="message"):
        assert src in self._nodes and dst in self._nodes
        self.sent += 1
        self._book("sent", kind)
        for blocks in self._blocks:
            if blocks(src, dst):
                self.blocked += 1
                self._book("blocked", kind)
                return "blocked"
        for drops in self._drops:
            if drops(src, dst, kind):
                self.dropped += 1
                self._book("dropped", kind)
                return "dropped"
        delay = 0.0
        for extra in self._latencies:
            delay += float(extra(src, dst))
        if delay <= 0:
            self.delivered += 1
            self._book("delivered", kind)
            deliver()
            return "delivered"
        self.in_flight += 1
        self.env.process(self._deliver_later(deliver, delay, kind))
        return "in_flight"

    def _deliver_later(self, deliver, delay, kind):
        yield self.env.timeout(delay)
        self.in_flight -= 1
        self.delivered += 1
        self._book("delivered", kind)
        deliver()


NODES = ["s", "w0", "w1", "w2", "w3", "w4"]
KINDS = ["heartbeat", "journal", "report", "dispatch"]


def drive_mix(net_cls, seed, mix, with_monitor=True, n_messages=300):
    """Send a seeded random message mix through ``net_cls`` under the
    fault models named in ``mix``; returns what an observer can see."""
    from repro.faults import (GrayFailureModel, NetworkPartitionModel,
                              PartitionEpisode, ScheduledMessageLoss)
    from repro.sim import MetricsRegistry

    env = Environment()
    streams = RandomStreams(seed)
    registry = MetricsRegistry()
    monitor = (Monitor(env, registry=registry, namespace="network")
               if with_monitor else None)
    net = net_cls(env, monitor=monitor)
    net.add_nodes(NODES)
    if "partition" in mix:
        net.attach(NetworkPartitionModel(
            env, groups={"minority": ["w3", "w4"]},
            episodes=[PartitionEpisode(10.0, 40.0, "minority"),
                      PartitionEpisode(60.0, 80.0, "minority", "outbound"),
                      PartitionEpisode(95.0, 110.0, "minority", "inbound")],
            monitor=Monitor(env, registry=registry, namespace="partition")))
    if "gray" in mix:
        net.attach(GrayFailureModel(
            env, streams.get("gray"), drop_rate=0.3, extra_latency_s=0.2,
            episodes={"w1": [(20.0, 70.0)], "w2": [(50.0, 120.0)]},
            monitor=Monitor(env, registry=registry, namespace="gray")))
    if "loss" in mix:
        net.attach(ScheduledMessageLoss(
            env, streams.get("loss"), [(30.0, 90.0, 0.25)],
            monitor=Monitor(env, registry=registry, namespace="loss")))
    rng = streams.get("driver")
    trace = []

    def driver():
        for _ in range(n_messages):
            yield env.timeout(float(rng.exponential(0.4)))
            src, dst = (NODES[int(i)] for i in
                        rng.choice(len(NODES), size=2, replace=False))
            kind = KINDS[int(rng.integers(len(KINDS)))]
            verdict = net.send(
                src, dst, kind=kind,
                deliver=lambda k=kind, s=src: trace.append(
                    ("arrive", env.now, s, k)))
            trace.append((verdict, env.now, net.sent, net.delivered,
                          net.blocked, net.dropped, net.in_flight))

    env.process(driver())
    env.run()
    counters = ({} if monitor is None else
                {name: (c.total, dict(c.by_key))
                 for name, c in monitor.counters.items()})
    return {"trace": trace,
            "ledger": (net.sent, net.delivered, net.blocked, net.dropped,
                       net.in_flight),
            "by_kind": net.by_kind,
            "counters": counters,
            "snapshot": registry.snapshot()}


MIXES = [("partition", "gray", "loss"), ("partition",), ("gray",), ()]


class TestSingleLedgerOracle:
    """The single ledger reads the same as the triple-booked one."""

    @pytest.mark.parametrize("seed", [3, 17, 401])
    @pytest.mark.parametrize("mix", MIXES, ids=lambda m: "+".join(m) or "calm")
    def test_matches_triple_book(self, seed, mix):
        got = drive_mix(Network, seed, mix)
        want = drive_mix(TripleBookNetwork, seed, mix)
        assert got == want
        assert list(got["by_kind"]) == list(want["by_kind"])  # first sent
        # Only counters something was booked in exist.
        verdicts = {step[0] for step in want["trace"]
                    if step[0] != "arrive"}
        booked = {"sent"} | (verdicts - {"in_flight"})
        if "in_flight" in verdicts:
            booked.add("delivered")
        assert set(got["counters"]) == booked
        assert {name.split(".")[1] for name in got["snapshot"]
                if name.startswith("network.")} == booked

    def test_mixes_cover_every_verdict(self):
        verdicts = {step[0] for step in drive_mix(Network, 3, MIXES[0])[
            "trace"]}
        assert verdicts == {"blocked", "dropped", "delivered", "in_flight",
                            "arrive"}
        assert "dropped" not in drive_mix(Network, 3, ("partition",))[
            "counters"]

    @pytest.mark.parametrize("mix", MIXES[:2])
    def test_without_a_monitor(self, mix):
        got = drive_mix(Network, 17, mix, with_monitor=False)
        want = drive_mix(TripleBookNetwork, 17, mix, with_monitor=False)
        for key in ("trace", "ledger", "by_kind", "snapshot"):
            assert got[key] == want[key]
        # The private monitor books into its own registry, not the world's.
        assert not any(name.startswith("network.") for name in got["snapshot"])

    def test_views_are_read_only(self):
        _, net = make_net("a", "b")
        net.send("a", "b", deliver=lambda: None)
        with pytest.raises(AttributeError):
            net.sent = 0
        net.by_kind["message"]["sent"] = 99
        assert net.by_kind == {"message": {"sent": 1, "delivered": 1,
                                           "blocked": 0, "dropped": 0}}
