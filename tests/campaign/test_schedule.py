"""Tests for fault-schedule serialization, identity, and generation."""

import json

import pytest

from repro.campaign import (
    EPISODE_KINDS,
    Episode,
    FaultSchedule,
    KINDS_BY_WORLD,
    ScheduleEnvelope,
    derive_seed,
    generate_schedule,
    normalize_episodes,
)
from repro.sim import RandomStreams


def episode(kind="partition", start=10.0, end=20.0, **params):
    defaults = {"loss": {"rate": 0.1}, "burst": {"fraction": 0.3},
                "overload": {"factor": 2.0}}
    merged = dict(defaults.get(kind, {}))
    merged.update(params)
    return Episode(kind=kind, start_s=start, end_s=end, params=merged)


class TestEpisode:
    def test_validation_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            episode(start=20.0, end=10.0)
        with pytest.raises(ValueError):
            episode(start=-1.0, end=10.0)
        with pytest.raises(ValueError):
            episode(start=10.0, end=10.0)

    def test_validation_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Episode(kind="meteor", start_s=0.0, end_s=1.0)

    @pytest.mark.parametrize("kind,params", [
        ("partition", {"direction": "sideways"}),
        ("gray", {"role": "janitor"}),
        ("loss", {"rate": 1.5}),
        ("loss", {}),
        ("burst", {"fraction": 0.0}),
        ("overload", {"factor": 0.5}),
    ])
    def test_validation_rejects_bad_params(self, kind, params):
        with pytest.raises(ValueError):
            Episode(kind=kind, start_s=0.0, end_s=1.0, params=params)

    def test_round_trips_through_dict(self):
        for kind in EPISODE_KINDS:
            original = episode(kind=kind)
            assert Episode.from_dict(original.as_dict()) == original


class TestNormalizeEpisodes:
    def test_sorts_by_start(self):
        late = episode(start=50.0, end=60.0)
        early = episode(kind="gray", start=5.0, end=15.0)
        assert normalize_episodes([late, early]) == (early, late)

    def test_clips_overlapping_partitions(self):
        a = episode(start=10.0, end=30.0)
        b = episode(start=20.0, end=40.0)
        out = normalize_episodes([a, b])
        assert out[0] == a
        assert out[1].start_s == 30.0 and out[1].end_s == 40.0

    def test_drops_swallowed_exclusive_episodes(self):
        a = episode(kind="crash", start=10.0, end=40.0)
        b = episode(kind="crash", start=15.0, end=35.0)
        assert normalize_episodes([a, b]) == (a,)

    def test_overlap_allowed_for_additive_kinds(self):
        a = episode(kind="gray", start=10.0, end=30.0)
        b = episode(kind="gray", start=20.0, end=40.0)
        assert normalize_episodes([a, b]) == (a, b)

    def test_crash_and_partition_clip_independently(self):
        part = episode(start=10.0, end=30.0)
        crash = episode(kind="crash", start=15.0, end=20.0)
        assert normalize_episodes([part, crash]) == (part, crash)


class TestFaultSchedule:
    def test_rejects_unknown_world(self):
        with pytest.raises(ValueError):
            FaultSchedule(world="narnia", seed=0, sim_budget_s=100.0)

    def test_rejects_world_incompatible_kind(self):
        with pytest.raises(ValueError):
            FaultSchedule(world="failover", seed=0, sim_budget_s=100.0,
                          episodes=(episode(kind="crash"),))

    def test_json_round_trip_preserves_digest(self):
        schedule = FaultSchedule(
            world="partition", seed=42, sim_budget_s=300.0,
            episodes=(episode(), episode(kind="loss", start=50.0,
                                         end=80.0)))
        text = json.dumps(schedule.as_dict())
        loaded = FaultSchedule.from_dict(json.loads(text))
        assert loaded == schedule
        assert loaded.digest() == schedule.digest()

    def test_canonical_json_is_key_sorted_and_compact(self):
        schedule = FaultSchedule(world="partition", seed=1,
                                 sim_budget_s=60.0)
        canonical = schedule.canonical_json()
        assert ": " not in canonical
        assert json.loads(canonical)["world"] == "partition"

    def test_digest_changes_with_any_field(self):
        base = FaultSchedule(world="partition", seed=1, sim_budget_s=60.0,
                             episodes=(episode(),))
        assert base.digest() != FaultSchedule(
            world="partition", seed=2, sim_budget_s=60.0,
            episodes=(episode(),)).digest()
        assert base.digest() != FaultSchedule(
            world="partition", seed=1, sim_budget_s=60.0,
            episodes=(episode(end=21.0),)).digest()


class TestEnvelope:
    def test_rejects_unsupported_kind_for_world(self):
        with pytest.raises(ValueError):
            ScheduleEnvelope(world="failover",
                             kind_weights=(("crash", 1.0),))

    @pytest.mark.parametrize("overrides", [
        {"horizon_s": float("nan")},
        {"horizon_s": 0.0},
        {"sim_budget_s": float("nan")},
        {"sim_budget_s": -1.0},
        {"min_duration_s": 90.0, "max_duration_s": 10.0},
        {"min_crash_outage_s": float("nan")},
        {"min_duration_s": 0.0001, "max_duration_s": 0.0002},
        {"min_crash_outage_s": 0.0},
        {"min_loss_rate": -0.1},
        {"max_overload_factor": float("nan")},
        {"min_burst_fraction": 0.5, "max_burst_fraction": 0.2},
    ])
    def test_rejects_nan_non_positive_and_inverted_numbers(self, overrides):
        with pytest.raises(ValueError):
            ScheduleEnvelope.for_world("partition", **overrides)

    def test_schedule_rejects_nan_budget(self):
        with pytest.raises(ValueError, match="sim_budget_s"):
            FaultSchedule(world="partition", seed=0,
                          sim_budget_s=float("nan"))

    def test_for_world_drops_unsupported_kinds(self):
        envelope = ScheduleEnvelope.for_world("failover")
        kinds = {kind for kind, _ in envelope.kind_weights}
        assert "crash" not in kinds
        assert kinds <= KINDS_BY_WORLD["failover"]


class TestGeneration:
    def test_same_stream_same_schedule(self):
        envelope = ScheduleEnvelope.for_world("partition")
        a = generate_schedule(RandomStreams(7), envelope, index=3, seed=11)
        b = generate_schedule(RandomStreams(7), envelope, index=3, seed=11)
        assert a == b
        assert a.digest() == b.digest()

    def test_different_indices_differ(self):
        streams = RandomStreams(7)
        envelope = ScheduleEnvelope.for_world("partition")
        a = generate_schedule(streams, envelope, index=0, seed=1)
        b = generate_schedule(streams, envelope, index=1, seed=1)
        assert a.digest() != b.digest()

    def test_generated_schedules_are_valid_and_bounded(self):
        streams = RandomStreams(13)
        for world in ("partition", "failover"):
            envelope = ScheduleEnvelope.for_world(world)
            for index in range(20):
                schedule = generate_schedule(
                    streams, envelope, index=index,
                    seed=derive_seed(13, index))
                assert 1 <= len(schedule.episodes) <= envelope.max_episodes
                allowed = KINDS_BY_WORLD[world]
                for ep in schedule.episodes:
                    assert ep.kind in allowed
                    assert 0 <= ep.start_s < ep.end_s
                # Round-trip through JSON preserves identity.
                assert FaultSchedule.from_dict(json.loads(json.dumps(
                    schedule.as_dict()))).digest() == schedule.digest()

    def test_derive_seed_is_stable_and_spread(self):
        seeds = [derive_seed(0, i) for i in range(50)]
        assert seeds == [derive_seed(0, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert all(0 <= s < 2 ** 31 for s in seeds)
