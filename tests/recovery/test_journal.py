"""Tests for the write-ahead journal."""

import pytest

from repro.recovery import Journal
from repro.sim import Environment, RandomStreams


class TestAppendDurability:
    def test_append_is_nonblocking_but_durability_is_windowed(self):
        env = Environment()
        journal = Journal(env, append_cost_s=0.5)
        record = journal.append("step_done", {"step": "s0"})
        assert env.now == 0.0  # group commit: the writer does not wait
        assert record.durable_at == 0.5
        # A crash inside the fsync window loses the record.
        assert journal.durable_records(now=0.4) == []
        assert journal.durable_records(now=0.5) == [record]

    def test_zero_cost_is_immediately_durable(self):
        env = Environment()
        journal = Journal(env)
        record = journal.append("x")
        assert journal.durable_records() == [record]

    def test_invalid_costs(self):
        with pytest.raises(ValueError):
            Journal(Environment(), append_cost_s=-1)
        with pytest.raises(ValueError):
            Journal(Environment(), replay_cost_per_record_s=-0.1)


class TestReplay:
    def test_replay_returns_durable_prefix_in_order(self):
        env = Environment()
        journal = Journal(env)
        records = [journal.append("e", i) for i in range(5)]
        assert journal.replay() == records
        assert journal.replays == 1

    def test_replay_cost_is_per_record(self):
        env = Environment()
        journal = Journal(env, replay_cost_per_record_s=0.01)
        for i in range(30):
            journal.append("e", i)
        assert journal.replay_time_s() == pytest.approx(0.3)

    def test_seq_is_monotone(self):
        env = Environment()
        journal = Journal(env)
        seqs = [journal.append("e").seq for _ in range(10)]
        assert seqs == sorted(seqs) == list(range(10))


class TestTruncation:
    def test_truncate_on_checkpoint_bounds_replay(self):
        env = Environment()
        journal = Journal(env, replay_cost_per_record_s=0.01)
        records = [journal.append("e", i) for i in range(100)]
        # A checkpoint at seq 59 covers the first 60 records.
        dropped = journal.truncate(records[59].seq)
        assert dropped == 60
        assert len(journal) == 40
        assert journal.replay_time_s() == pytest.approx(0.4)
        assert journal.truncated_records == 60
        # Replay after truncation starts past the checkpoint.
        assert journal.replay()[0].payload == 60

    def test_truncate_everything(self):
        env = Environment()
        journal = Journal(env)
        last = [journal.append("e") for _ in range(5)][-1]
        assert journal.truncate(last.seq) == 5
        assert len(journal) == 0
        assert journal.replay() == []


class TestDurablePrefixMatchesScan:
    @pytest.mark.parametrize("append_cost_s", [0.0, 0.002, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_append_truncate_sequences(self, append_cost_s, seed):
        """``durable_records(now)`` equals the full scan for ``now`` in
        the past, the present and the future, across appends at equal
        and increasing times and truncations below, inside and past the
        live records."""
        env = Environment()
        journal = Journal(env, append_cost_s=append_cost_s,
                          replay_cost_per_record_s=0.01)
        rng = RandomStreams(seed).get("journal-ops")
        probes = 0
        for _ in range(300):
            op = int(rng.integers(8))
            if op <= 2:
                for _ in range(int(rng.integers(1, 4))):
                    journal.append("e")
            elif op == 3:
                gap = float(rng.choice([0.001, append_cost_s, 0.3]))
                if gap > 0:
                    env.run(until=env.now + gap)
            elif op == 4 and journal.records:
                seqs = [r.seq for r in journal.records]
                journal.truncate(int(rng.integers(seqs[0] - 2,
                                                  seqs[-1] + 2)))
            nows = [None, env.now, env.now - 0.4, env.now + 0.4,
                    env.now + append_cost_s,
                    env.now + float(rng.uniform(-1.0, 1.0))]
            if journal.records:
                record = journal.records[int(rng.integers(
                    len(journal.records)))]
                nows.append(record.durable_at)
            for now in nows:
                at = env.now if now is None else now
                expected = [r for r in journal.records if r.durable_at <= at]
                assert journal.durable_records(now) == expected
                assert journal.replay_time_s(now) == 0.01 * len(expected)
                probes += 1
        assert journal.truncations > 0 and probes > 0
