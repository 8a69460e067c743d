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

    def test_remove_node(self):
        _, net = make_net("a", "b")
        net.remove_node("b")
        assert net.nodes == ["a"]


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
