"""A write-ahead journal: incremental durability between checkpoints.

Checkpoints snapshot whole state at coarse intervals; the journal makes
*individual* state transitions durable as they happen — the
scheduler's "task dispatched". Recovery
replays the journal over the last checkpoint, which is why replay cost is
bounded: :meth:`truncate` discards everything a checkpoint already covers.

Durability is not instantaneous: a record becomes durable
``append_cost_s`` after the append (the group-commit/fsync window). A
crash inside that window loses the record — the source of the duplicate
executions that at-least-once semantics admit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from typing import Any, Optional

from repro.sim import Environment, Monitor


@dataclass(frozen=True)
class JournalRecord:
    """One appended transition."""

    seq: int
    kind: str
    payload: Any
    appended_at: float
    #: Sim time at which the record survives a crash (fsync horizon).
    durable_at: float


_durable_at = attrgetter("durable_at")


class Journal:
    """Append-only log with bounded, truncatable replay.

    Appends are non-blocking (the writer does not wait for the fsync —
    group commit), but a record only *counts* once ``env.now`` reaches
    its ``durable_at``. :meth:`replay` therefore returns the durable
    prefix as of a crash, exactly what a recovering process can trust.
    """

    def __init__(self, env: Environment, append_cost_s: float = 0.0,
                 replay_cost_per_record_s: float = 0.0,
                 monitor: Optional[Monitor] = None,
                 name: str = "journal"):
        if append_cost_s < 0 or replay_cost_per_record_s < 0:
            raise ValueError("journal costs must be non-negative")
        self.env = env
        self.append_cost_s = append_cost_s
        self.replay_cost_per_record_s = replay_cost_per_record_s
        self.monitor = Monitor(env) if monitor is None else monitor
        self.name = name
        self._seq = count()
        self.records: list[JournalRecord] = []
        self.truncated_records = 0

    appended = property(lambda self: self.monitor.total(f"{self.name}_appends"))
    replays = property(lambda self: self.monitor.total(f"{self.name}_replays"))
    truncations = property(
        lambda self: self.monitor.total(f"{self.name}_truncations"))

    def append(self, kind: str, payload: Any = None) -> JournalRecord:
        """Append one record; durable ``append_cost_s`` from now."""
        record = JournalRecord(seq=next(self._seq), kind=kind,
                               payload=payload, appended_at=self.env.now,
                               durable_at=self.env.now + self.append_cost_s)
        self.records.append(record)
        self.monitor.count(f"{self.name}_appends", key=kind)
        return record

    def durable_records(self, now: Optional[float] = None
                        ) -> list[JournalRecord]:
        """The records a crash at ``now`` (default: sim now) would keep."""
        now = self.env.now if now is None else now
        # A fixed append cost over a never-decreasing clock keeps
        # ``durable_at`` sorted in append order: the durable set is a prefix.
        records = self.records
        return records[:bisect_right(records, now, key=_durable_at)]

    def replay_time_s(self, now: Optional[float] = None) -> float:
        """Cost of replaying the durable prefix (bounded by truncation)."""
        return self.replay_cost_per_record_s * len(self.durable_records(now))

    def replay(self) -> list[JournalRecord]:
        """The durable prefix now, in append order; counts the replay."""
        self.monitor.count(f"{self.name}_replays")
        return self.durable_records()

    def truncate(self, upto_seq: int) -> int:
        """Drop records with ``seq <= upto_seq`` (covered by a checkpoint).

        Returns how many records were discarded. This is what keeps
        replay cost bounded: journal growth is reset at every checkpoint.
        """
        kept = [r for r in self.records if r.seq > upto_seq]
        dropped = len(self.records) - len(kept)
        self.records = kept
        self.truncated_records += dropped
        self.monitor.count(f"{self.name}_truncations")
        return dropped

    def __len__(self) -> int:
        return len(self.records)
