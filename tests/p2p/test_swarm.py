"""Tests for peers, trackers, and the swarm simulation."""

import pytest

from repro.p2p import (
    ContentDescriptor,
    PEER_CLASSES,
    Peer,
    SpamTracker,
    Swarm,
    SwarmConfig,
    Tracker,
    run_swarm,
)
from repro.sim import Environment, RandomStreams
from repro.workload.arrivals import PoissonArrivals, FlashcrowdArrivals


def content(size=100.0):
    return ContentDescriptor(content_key="movie-x", format="x264-720p",
                             size_mb=size)


@pytest.fixture
def rng():
    return RandomStreams(seed=17).get("p2p")


class TestPeerClasses:
    def test_adsl_is_asymmetric(self):
        assert PEER_CLASSES["adsl"].asymmetry == 8.0
        assert PEER_CLASSES["symmetric"].asymmetry == 1.0

    def test_torrent_id(self):
        assert content().torrent_id == "movie-x/x264-720p"


class TestTracker:
    def test_announce_returns_other_active_peers(self, rng):
        tracker = Tracker("tpb")
        p1 = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
        p2 = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
        assert tracker.announce("t1", p1) == []
        others = tracker.announce("t1", p2)
        assert others == [p1]

    def test_departed_peers_not_returned(self):
        tracker = Tracker("tpb")
        p1 = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
        p2 = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
        tracker.announce("t1", p1)
        p1.departed_at = 10.0
        assert tracker.announce("t1", p2) == []

    def test_scrape_counts_seeds_and_leechers(self):
        tracker = Tracker("tpb")
        seed = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0,
                    is_seed=True)
        leecher = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
        tracker.announce("t1", seed)
        tracker.announce("t1", leecher)
        stats = tracker.scrape("t1", time=5.0)
        assert (stats.seeders, stats.leechers) == (1, 1)
        assert stats.swarm_size == 2

    def test_max_peers_cap(self, rng):
        tracker = Tracker("tpb")
        peers = [Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
                 for _ in range(60)]
        for p in peers:
            tracker.announce("t1", p)
        newcomer = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
        assert len(tracker.announce("t1", newcomer, rng)) == 50

    def test_spam_tracker_fabricates_stats(self, rng):
        spam = SpamTracker("evil", rng, inflation=10)
        stats = spam.scrape("anything", time=0)
        assert stats.swarm_size >= 1000  # fabricated, inflated
        assert spam.is_spam
        assert not Tracker("honest").is_spam

    def test_spam_tracker_returns_no_peers_but_logs(self, rng):
        spam = SpamTracker("evil", rng)
        p = Peer(peer_class=PEER_CLASSES["adsl"], arrival_time=0)
        assert spam.announce("t1", p) == []
        assert spam.announce_count == 1


class TestSwarmConfig:
    def test_peer_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SwarmConfig(content=content(), peer_mix=(("adsl", 0.5),))

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            SwarmConfig(content=content(), efficiency=0)


class TestSwarmSimulation:
    def test_leechers_complete_and_become_seeds(self, rng):
        config = SwarmConfig(content=content(50), initial_seeds=2,
                             horizon_s=3600 * 8, seed_linger_s=600)
        arrivals = PoissonArrivals(rate=1 / 300.0, rng=rng)
        result = run_swarm(config, Tracker("t"), rng, arrivals)
        assert result.completed, "no peer ever completed"
        assert all(p.is_seed for p in result.completed)
        assert all(t > 0 for t in result.download_times)

    def test_seeds_linger_then_depart(self, rng):
        config = SwarmConfig(content=content(20), initial_seeds=2,
                             horizon_s=3600 * 6, seed_linger_s=300)
        arrivals = PoissonArrivals(rate=1 / 600.0, rng=rng)
        result = run_swarm(config, Tracker("t"), rng, arrivals)
        departed = [p for p in result.peers if p.departed_at is not None]
        assert departed, "no seed departed despite short linger"
        for p in departed:
            assert p.departed_at - p.completed_at >= p.seed_linger_s - 1e-9

    def test_upload_limited_by_asymmetry(self):
        """All-ADSL swarms are upload-limited: mean download rate stays well
        below the download link capacity."""
        streams = RandomStreams(seed=23)
        config = SwarmConfig(content=content(100),
                             peer_mix=(("adsl", 1.0),),
                             initial_seeds=1, seed_class="adsl",
                             horizon_s=3600 * 10, seed_linger_s=60.0)
        arrivals = PoissonArrivals(rate=1 / 120.0, rng=streams.get("arr"))
        result = run_swarm(config, Tracker("t"), streams.get("swarm"),
                           arrivals)
        assert result.completed
        # Link-limited time would be size / download capacity.
        link_limited = 100 / (PEER_CLASSES["adsl"].download_kbps / 1024)
        assert result.mean_download_time > 2 * link_limited

    def test_symmetric_peers_download_faster_than_adsl(self):
        streams = RandomStreams(seed=29)
        results = {}
        for mix_name, mix in [("adsl", (("adsl", 1.0),)),
                              ("symmetric", (("symmetric", 1.0),))]:
            config = SwarmConfig(content=content(80), peer_mix=mix,
                                 initial_seeds=1, seed_class=mix_name,
                                 horizon_s=3600 * 10, seed_linger_s=120.0)
            arrivals = PoissonArrivals(rate=1 / 180.0,
                                       rng=streams.get(f"a-{mix_name}"))
            results[mix_name] = run_swarm(
                config, Tracker("t"), streams.get(f"s-{mix_name}"), arrivals)
        assert results["symmetric"].mean_download_time < (
            results["adsl"].mean_download_time)

    def test_monitor_series_recorded(self, rng):
        config = SwarmConfig(content=content(30), horizon_s=3600)
        arrivals = PoissonArrivals(rate=1 / 60.0, rng=rng)
        result = run_swarm(config, Tracker("t"), rng, arrivals)
        assert "swarm_size" in result.monitor
        assert result.peak_swarm_size() >= config.initial_seeds

    def test_add_peer_manual(self, rng):
        env = Environment()
        config = SwarmConfig(content=content(10), horizon_s=100)
        swarm = Swarm(env, config, Tracker("t"), rng)
        peer = swarm.add_peer(PEER_CLASSES["cable"])
        assert peer in swarm.active_peers()
        assert not peer.is_seed

    def test_flashcrowd_degrades_download_times(self):
        """Peers arriving during a flashcrowd wait longer — the negative
        phenomenon [66] documents."""
        streams = RandomStreams(seed=37)
        burst_at = 3600.0
        config = SwarmConfig(content=content(60),
                             peer_mix=(("adsl", 1.0),),
                             initial_seeds=2, seed_class="adsl",
                             horizon_s=3600 * 12, seed_linger_s=300.0)
        arrivals = FlashcrowdArrivals(
            base_rate=1 / 400.0, rng=streams.get("arr"),
            burst_times=[burst_at], burst_factor=60, burst_decay_s=1200)
        result = run_swarm(config, Tracker("t"), streams.get("swarm"),
                           arrivals)
        from repro.p2p.analytics import mean_download_slowdown_during
        slowdown = mean_download_slowdown_during(
            result, burst_at, burst_at + 2400)
        assert slowdown > 1.1, f"flashcrowd slowdown only {slowdown}"
