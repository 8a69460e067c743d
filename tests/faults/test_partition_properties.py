"""Property tests for randomized partition-episode generation.

The campaign's :func:`~repro.campaign.generate_schedule` is the one
generator of randomized partition episodes; the schedule it returns
holds them normalized by :func:`~repro.faults.episodes.normalize_episodes`.
Many seeds, three properties: the same named stream always yields the
identical timeline; episodes survive a JSON round trip; and half-open
``[start, end)`` windows of an exclusive kind never overlap.
"""

import json

import pytest

from repro.campaign import ScheduleEnvelope, generate_schedule
from repro.faults.episodes import Episode
from repro.sim import RandomStreams

EXCLUSIVE = ("partition", "crash")


def draw(seed, index=0, **envelope):
    """One schedule's normalized episodes from root stream ``seed``."""
    return generate_schedule(
        RandomStreams(seed), ScheduleEnvelope(**envelope), index=index,
        seed=0).episodes


def partitions(seed, **envelope):
    return [e for e in draw(seed, **envelope) if e.kind == "partition"]


class TestSameStreamSameTimeline:
    @pytest.mark.parametrize("seed", range(10))
    def test_identical_across_regenerations(self, seed):
        assert draw(seed) == draw(seed)

    def test_different_seeds_differ(self):
        timelines = {json.dumps([e.as_dict() for e in draw(seed)])
                     for seed in range(10)}
        assert len(timelines) == 10

    def test_stream_name_matters(self):
        # Each schedule index draws from its own named stream.
        assert draw(4, index=0) != draw(4, index=1)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_episodes_round_trip(self, seed):
        for episode in draw(seed):
            wire = json.dumps(episode.as_dict(), sort_keys=True)
            restored = Episode.from_dict(json.loads(wire))
            assert restored == episode

    def test_directions_survive(self):
        episodes = [e for seed in range(30) for e in partitions(seed)]
        directions = {e.params["direction"] for e in episodes}
        assert directions == {"both", "outbound", "inbound"}
        for episode in episodes:
            assert Episode.from_dict(episode.as_dict()).params["direction"] \
                == episode.params["direction"]


class TestNoSameGroupOverlap:
    @pytest.mark.parametrize("seed", range(25))
    def test_half_open_windows_disjoint_within_group(self, seed):
        episodes = draw(seed, max_episodes=20, horizon_s=200.0)
        for kind in EXCLUSIVE:
            ordered = sorted((e for e in episodes if e.kind == kind),
                             key=lambda e: e.start_s)
            for prev, cur in zip(ordered, ordered[1:]):
                # [start, end) half-open: touching at the boundary is
                # fine, strict overlap is not.
                assert prev.end_s <= cur.start_s

    @pytest.mark.parametrize("seed", range(25))
    def test_no_instant_is_doubly_claimed(self, seed):
        episodes = draw(seed, max_episodes=20, horizon_s=200.0)
        for kind in EXCLUSIVE:
            mine = [e for e in episodes if e.kind == kind]
            for t in range(0, 300):
                active = [e for e in mine if e.start_s <= t < e.end_s]
                assert len(active) <= 1


class TestUpToN:
    @pytest.mark.parametrize("seed", range(10))
    def test_returns_at_most_n_valid_episodes(self, seed):
        episodes = draw(seed, max_episodes=15, horizon_s=100.0)
        assert 1 <= len(episodes) <= 15
        for episode in episodes:
            assert 0.0 <= episode.start_s < episode.end_s

    def test_crowded_horizon_drops_swallowed_episodes(self):
        # A tiny horizon with windows of very different lengths forces
        # normalization to drop some of the drawn partitions. The episode
        # count is the schedule stream's first draw.
        envelope = dict(max_episodes=30, horizon_s=5.0, min_duration_s=10.0,
                        max_duration_s=90.0,
                        kind_weights=(("partition", 1.0),))
        dropped = 0
        for seed in range(10):
            rng = RandomStreams(seed).get("schedule-000000")
            drawn = int(rng.integers(1, envelope["max_episodes"] + 1))
            kept = len(draw(seed, **envelope))
            assert kept <= drawn
            dropped += drawn - kept
        assert dropped > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ScheduleEnvelope(max_episodes=0)
        with pytest.raises(ValueError):
            generate_schedule(
                RandomStreams(0),
                ScheduleEnvelope(kind_weights=(("partition", 0.0),)),
                index=0)
