"""Tests for partition episodes, the partition model, and gray failures."""

import pytest

from repro.faults import (
    CorrelatedBurst,
    GrayFailureModel,
    NetworkPartitionModel,
    PartitionEpisode,
)
from repro.sim import Environment, Network, RandomStreams


class TestPartitionEpisode:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionEpisode(10.0, 5.0, "g")
        with pytest.raises(ValueError):
            PartitionEpisode(-1.0, 5.0, "g")
        with pytest.raises(ValueError):
            PartitionEpisode(0.0, 5.0, "g", direction="sideways")

    def test_active_is_half_open(self):
        ep = PartitionEpisode(10.0, 20.0, "g")
        assert not ep.active(9.9)
        assert ep.active(10.0)
        assert ep.active(19.9)
        assert not ep.active(20.0)

    def test_both_severs_either_direction(self):
        ep = PartitionEpisode(0.0, 10.0, "g")
        assert ep.severs(5.0, True, False)
        assert ep.severs(5.0, False, True)
        assert not ep.severs(5.0, True, True)
        assert not ep.severs(5.0, False, False)

    def test_one_way_directions(self):
        out = PartitionEpisode(0.0, 10.0, "g", direction="outbound")
        assert out.severs(5.0, True, False)       # inside -> out: cut
        assert not out.severs(5.0, False, True)   # outside -> in: flows
        inb = PartitionEpisode(0.0, 10.0, "g", direction="inbound")
        assert not inb.severs(5.0, True, False)
        assert inb.severs(5.0, False, True)


def make_partitioned(env, episodes):
    net = Network(env)
    net.add_nodes(["s", "w1", "w2", "w3"])
    model = net.attach(NetworkPartitionModel(
        env, groups={"minority": ["w2", "w3"]}, episodes=episodes))
    return net, model


class TestNetworkPartitionModel:
    def test_unknown_group_in_episode_rejected(self):
        with pytest.raises(ValueError):
            NetworkPartitionModel(Environment(), groups={"g": ["a"]},
                                  episodes=[PartitionEpisode(0, 1, "other")])

    def test_blocks_only_across_the_cut_while_active(self):
        env = Environment()
        net, model = make_partitioned(
            env, [PartitionEpisode(10.0, 20.0, "minority")])
        # Before the split everything flows.
        assert net.allows("s", "w2")
        env.run(until=15.0)
        assert not net.allows("s", "w2")    # across the cut
        assert not net.allows("w2", "s")
        assert net.allows("s", "w1")        # both on the majority side
        assert net.allows("w2", "w3")       # both inside the minority
        env.run(until=25.0)
        assert net.allows("s", "w2")        # healed

    def test_allows_during_a_cut_changes_no_counter(self):
        # blocks() is a pure function of sim time: asking whether a
        # message would pass must not book it as refused traffic.
        env = Environment()
        net, model = make_partitioned(
            env, [PartitionEpisode(0.0, 10.0, "minority")])
        env.run(until=5.0)

        def ledger():
            return (net.sent, net.delivered, net.blocked, net.dropped,
                    net.in_flight, {k: dict(v) for k, v in net.by_kind.items()})

        before_net, before_model = ledger(), dict(vars(model))
        assert not net.allows("s", "w2")
        assert not net.allows("s", "w2")
        assert net.allows("s", "w1")
        assert ledger() == before_net
        assert vars(model) == before_model
        assert net.sent == 0

    def test_one_way_partition_is_asymmetric(self):
        env = Environment()
        net, _ = make_partitioned(
            env, [PartitionEpisode(0.0, 10.0, "minority",
                                   direction="outbound")])
        assert not net.allows("w2", "s")    # its announcements vanish
        assert net.allows("s", "w2")        # but it still hears the world

    def test_blocks_agrees_with_episode_severs(self):
        # blocks() walks the episodes itself; it must answer as the
        # episodes' own severs() does, for every direction and pair.
        env = Environment()
        groups = {"minority": ["w2", "w3"], "edge": ["w1"]}
        episodes = [PartitionEpisode(1.0, 4.0, "minority", "inbound"),
                    PartitionEpisode(3.0, 6.0, "edge", "outbound"),
                    PartitionEpisode(5.0, 8.0, "minority", "both")]
        model = NetworkPartitionModel(env, groups=groups, episodes=episodes)
        group_of = {n: g for g, members in groups.items() for n in members}
        nodes = ["s", "w1", "w2", "w3"]
        for until in (0.5, 1.0, 2.0, 3.5, 4.0, 5.5, 7.0, 8.0, 9.0):
            env.run(until=until)
            for src in nodes:
                for dst in nodes:
                    expected = any(
                        e.severs(env.now, group_of.get(src) == e.isolate,
                                 group_of.get(dst) == e.isolate)
                        for e in episodes)
                    assert model.blocks(src, dst) == expected, (until, src,
                                                                dst)

    def test_timeline_counts_and_hooks(self):
        env = Environment()
        seen = []
        model = NetworkPartitionModel(
            env, groups={"g": ["a"]},
            episodes=[PartitionEpisode(5.0, 8.0, "g"),
                      PartitionEpisode(12.0, 14.0, "g")],
            on_split=lambda ep: seen.append(("split", env.now)),
            on_heal=lambda ep: seen.append(("heal", env.now)))
        env.run(until=20.0)
        assert model.splits == 2
        assert model.heals == 2
        assert seen == [("split", 5.0), ("heal", 8.0),
                        ("split", 12.0), ("heal", 14.0)]

    def test_simultaneous_edges_count_and_cut_both_groups(self):
        # Two episodes that start and end at the same instant: the
        # timeline orders edges by time and kind, never by episode.
        env = Environment()
        net = Network(env)
        net.add_nodes(["a", "b", "c"])
        model = net.attach(NetworkPartitionModel(
            env, groups={"east": ["a"], "west": ["b"]},
            episodes=[PartitionEpisode(5.0, 10.0, "east"),
                      PartitionEpisode(5.0, 10.0, "west")]))
        env.run(until=7.0)
        assert not net.allows("a", "c")
        assert not net.allows("b", "c")
        env.run(until=20.0)
        assert model.splits == model.heals == 2
        assert net.allows("a", "c") and net.allows("b", "c")

    def test_isolated_nodes(self):
        env = Environment()
        _, model = make_partitioned(
            env, [PartitionEpisode(0.0, 10.0, "minority")])
        assert model.isolated() == ["w2", "w3"]
        env.run(until=10.0)
        assert model.isolated() == []

    def test_random_episodes_are_reproducible(self):
        def draw():
            rng = RandomStreams(11).get("partition-episodes")
            return NetworkPartitionModel.random_episodes(
                rng, ["g1", "g2"], n=5, horizon_s=100.0,
                mean_duration_s=10.0, one_way_p=0.5)
        a, b = draw(), draw()
        assert a == b
        assert all(0.0 <= ep.start_s < ep.end_s for ep in a)


class TestGrayFailureModel:
    def make(self, env=None, **kwargs):
        env = env or Environment()
        rng = RandomStreams(3).get("gray")
        defaults = dict(slowdown=3.0, error_rate=0.5, drop_rate=0.5)
        defaults.update(kwargs)
        return env, GrayFailureModel(env, rng, **defaults)

    def test_validation(self):
        env = Environment()
        rng = RandomStreams(0).get("gray")
        with pytest.raises(ValueError):
            GrayFailureModel(env, rng, slowdown=0.5)
        with pytest.raises(ValueError):
            GrayFailureModel(env, rng, error_rate=1.5)
        with pytest.raises(ValueError):
            GrayFailureModel(env, rng, drop_rate=1.0)
        with pytest.raises(ValueError):
            GrayFailureModel(env, rng, episodes={"n": [(5.0, 2.0)]})

    def test_scheduled_episodes_drive_grayness(self):
        env, gray = self.make(episodes={"n1": [(10.0, 20.0)]})
        assert not gray.is_gray("n1")
        env.run(until=15.0)
        assert gray.is_gray("n1")
        assert gray.gray_nodes() == ["n1"]
        env.run(until=20.0)
        assert not gray.is_gray("n1")

    def test_is_gray_over_several_half_open_spans(self):
        env, gray = self.make(episodes={"n1": [(2.0, 4.0), (6.0, 8.0)],
                                        "n2": []})
        verdicts = []
        for t in (0.0, 2.0, 3.9, 4.0, 5.0, 6.0, 7.9, 8.0, 9.0):
            if t > env.now:
                env.run(until=t)
            verdicts.append((gray.is_gray("n1"), gray.is_gray("n2"),
                             gray.is_gray("n3")))
        assert [v[0] for v in verdicts] == [False, True, True, False, False,
                                            True, True, False, False]
        assert not any(v[1] or v[2] for v in verdicts)

    def test_manual_degrade_restore(self):
        _, gray = self.make()
        gray.degrade("n1")
        gray.degrade("n1")  # idempotent
        assert gray.is_gray("n1")
        assert gray.degradations == 1
        gray.restore("n1")
        gray.restore("n1")
        assert not gray.is_gray("n1")
        assert gray.restorations == 1

    def test_service_factor_only_while_gray(self):
        _, gray = self.make()
        assert gray.service_factor("n1") == 1.0
        gray.degrade("n1")
        assert gray.service_factor("n1") == 3.0
        assert gray.slowed_operations == 1

    def test_no_rng_drawn_while_healthy(self):
        """Baseline comparability: a healthy fleet never touches the RNG."""
        env = Environment()
        rng = RandomStreams(3).get("gray")
        gray = GrayFailureModel(env, rng, error_rate=0.5, drop_rate=0.5)
        state_before = rng.bit_generator.state["state"]["state"]
        for _ in range(50):
            assert not gray.should_error("n1")
            assert not gray.drops("a", "n1", "data")
        assert rng.bit_generator.state["state"]["state"] == state_before

    def test_heartbeats_are_protected_from_drops(self):
        _, gray = self.make(drop_rate=0.999999)
        gray.degrade("n1")
        for _ in range(20):
            assert not gray.drops("n1", "s", "heartbeat")
        assert any(gray.drops("n1", "s", "data") for _ in range(20))

    def test_drops_fire_for_either_gray_endpoint(self):
        _, gray = self.make(drop_rate=0.999999)
        gray.degrade("n1")
        assert gray.drops("s", "n1", "data")   # gray receiver
        assert gray.drops("n1", "s", "data")   # gray sender

    def test_extra_latency_only_while_gray(self):
        _, gray = self.make(extra_latency_s=0.5, drop_rate=0.0,
                            error_rate=0.0)
        assert gray.extra_latency_s("a", "n1") == 0.0
        gray.degrade("n1")
        assert gray.extra_latency_s("a", "n1") == 0.5
        assert gray.extra_latency_s("n1", "a") == 0.5
        assert gray.extra_latency_s("a", "b") == 0.0

    def test_should_error_rate(self):
        _, gray = self.make(error_rate=1.0, drop_rate=0.0)
        gray.degrade("n1")
        assert gray.should_error("n1")
        assert gray.injected_errors == 1

    def test_target_adapter_flips_with_gray_state(self):
        _, gray = self.make()
        target = gray.target("n1")
        assert target.is_up
        target.fail()
        assert gray.is_gray("n1") and not target.is_up
        target.repair()
        assert not gray.is_gray("n1") and target.is_up

    def test_target_adapter_composes_with_correlated_burst(self):
        """A burst pointed at gray targets grays nodes instead of crashing."""
        env = Environment()
        streams = RandomStreams(5)
        gray = GrayFailureModel(env, streams.get("gray"), slowdown=2.0)
        targets = [gray.target(f"n{i}") for i in range(8)]
        burst = CorrelatedBurst(env, targets, streams.get("burst"),
                                mean_interval_s=20.0, fraction=0.5,
                                mttr_s=10.0)
        env.run(until=300.0)
        assert burst.bursts > 0
        # Every burst victim was grayed, not crashed, and repairs restore.
        assert gray.degradations == burst.victims > 0
        assert gray.restorations > 0
