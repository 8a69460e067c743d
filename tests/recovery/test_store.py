"""Tests for the checkpoint store: costs, retention, corruption fallback."""

import pytest

from repro.recovery import CHECKPOINT_TIERS, CheckpointStore, CheckpointTier
from repro.sim import Environment, RandomStreams


def run_combinator(env, gen):
    """Drive a sim-process combinator to completion, returning its value."""
    result = {}

    def wrapper():
        result["value"] = yield from gen
    env.run(until=env.process(wrapper()))
    return result["value"]


class TestCostModel:
    def test_write_and_read_time(self):
        env = Environment()
        store = CheckpointStore(env, tier="local")
        tier = CHECKPOINT_TIERS["local"]
        assert store.write_time_s(600.0) == pytest.approx(
            tier.latency_s + 600.0 / tier.write_mb_per_s)
        assert store.read_time_s(600.0) == pytest.approx(
            tier.latency_s + 600.0 / tier.read_mb_per_s)

    def test_remote_tier_is_slower(self):
        env = Environment()
        local = CheckpointStore(env, tier="local")
        remote = CheckpointStore(env, tier="remote")
        assert remote.write_time_s(100.0) > local.write_time_s(100.0)
        assert remote.read_time_s(100.0) > local.read_time_s(100.0)

    def test_custom_tier(self):
        env = Environment()
        tier = CheckpointTier("nvme", latency_s=0.001,
                              write_mb_per_s=5000.0, read_mb_per_s=7000.0)
        store = CheckpointStore(env, tier=tier)
        assert store.write_time_s(5000.0) == pytest.approx(1.001)

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError):
            CheckpointStore(Environment(), tier="tape")

    def test_invalid_tier_params(self):
        with pytest.raises(ValueError):
            CheckpointTier("bad", latency_s=-1, write_mb_per_s=1,
                           read_mb_per_s=1)
        with pytest.raises(ValueError):
            CheckpointTier("bad", latency_s=0, write_mb_per_s=0,
                           read_mb_per_s=1)


class TestSaveRestore:
    def test_save_advances_sim_time_and_commits(self):
        env = Environment()
        store = CheckpointStore(env, tier="local")
        ckpt = run_combinator(env, store.save({"progress": 10.0}, 120.0))
        assert env.now == pytest.approx(store.write_time_s(120.0))
        assert ckpt.payload == {"progress": 10.0}
        assert len(store) == 1
        assert store.checkpoints[-1] is ckpt
        assert store.writes == 1

    def test_restore_returns_newest(self):
        env = Environment()
        store = CheckpointStore(env, tier="local")
        for progress in (10.0, 20.0, 30.0):
            run_combinator(env, store.save({"progress": progress}, 50.0))
        t0 = env.now
        ckpt = run_combinator(env, store.restore())
        assert ckpt.payload["progress"] == 30.0
        assert env.now - t0 == pytest.approx(store.read_time_s(50.0))

    def test_restore_empty_store_returns_none(self):
        env = Environment()
        store = CheckpointStore(env)
        assert run_combinator(env, store.restore()) is None
        assert store.failed_restores == 1

    def test_invalid_size(self):
        env = Environment()
        store = CheckpointStore(env)
        with pytest.raises(ValueError):
            run_combinator(env, store.save({}, 0.0))


class TestRetention:
    def test_keep_last_k_evicts_oldest(self):
        env = Environment()
        store = CheckpointStore(env, keep_last=2)
        for progress in (1.0, 2.0, 3.0, 4.0):
            run_combinator(env, store.save({"progress": progress}, 10.0))
        assert len(store) == 2
        assert store.evictions == 2
        kept = [c.payload["progress"] for c in store.checkpoints]
        assert kept == [3.0, 4.0]

    def test_keep_last_validated(self):
        with pytest.raises(ValueError):
            CheckpointStore(Environment(), keep_last=0)


class TestCorruption:
    def test_corruption_requires_rng(self):
        with pytest.raises(ValueError):
            CheckpointStore(Environment(), corruption_p=0.1)

    def test_corrupt_restore_falls_back_to_older(self):
        env = Environment()
        rng = RandomStreams(0).get("corrupt")
        store = CheckpointStore(env, corruption_p=0.0, rng=rng)
        run_combinator(env, store.save({"progress": 1.0}, 10.0))
        run_combinator(env, store.save({"progress": 2.0}, 10.0))
        # Force the newest snapshot corrupt: deterministic fallback.
        store.checkpoints[-1].corrupt = True
        t0 = env.now
        ckpt = run_combinator(env, store.restore())
        assert ckpt.payload["progress"] == 1.0
        assert store.corrupt_fallbacks == 1
        # Paid the read cost twice: once for the corrupt attempt.
        assert env.now - t0 == pytest.approx(2 * store.read_time_s(10.0))
        # The corrupt snapshot is discarded, not retried forever.
        assert len(store) == 1

    def test_keep_last_one_corrupt_raises_typed_error(self):
        """keep_last=1 made a durability bet: losing it is an error, not
        a None that reads like "never checkpointed"."""
        from repro.recovery import CheckpointCorruptionError
        env = Environment()
        store = CheckpointStore(env, keep_last=1, name="solo")
        run_combinator(env, store.save({"progress": 1.0}, 10.0))
        run_combinator(env, store.save({"progress": 2.0}, 10.0))
        bad_seq = store.checkpoints[-1].seq
        store.checkpoints[-1].corrupt = True
        with pytest.raises(CheckpointCorruptionError) as exc:
            run_combinator(env, store.restore())
        # The typed error names the corrupted key.
        assert exc.value.seq == bad_seq
        assert exc.value.store_name == "solo"
        assert "seq=1" in str(exc.value)
        assert store.failed_restores == 1
        assert len(store) == 0

    def test_keep_last_one_valid_snapshot_still_restores(self):
        env = Environment()
        store = CheckpointStore(env, keep_last=1)
        run_combinator(env, store.save({"progress": 1.0}, 10.0))
        ckpt = run_combinator(env, store.restore())
        assert ckpt.payload["progress"] == 1.0
        assert store.failed_restores == 0

    def test_all_corrupt_restore_fails(self):
        env = Environment()
        store = CheckpointStore(env)
        run_combinator(env, store.save({"progress": 1.0}, 10.0))
        store.checkpoints[-1].corrupt = True
        assert run_combinator(env, store.restore()) is None
        assert store.failed_restores == 1
        assert len(store) == 0

    def test_corruption_rate_statistical(self):
        env = Environment()
        rng = RandomStreams(7).get("corrupt")
        store = CheckpointStore(env, keep_last=1000, corruption_p=0.2,
                                rng=rng)
        for i in range(1000):
            run_combinator(env, store.save({"progress": float(i)}, 1.0))
        corrupt = sum(1 for c in store.checkpoints if c.corrupt)
        assert 150 < corrupt < 250
