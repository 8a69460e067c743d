"""A checkpoint store: where durable state goes and what that costs.

Checkpoints are not free *or* reliable: a write pays latency plus
size-proportional transfer time on its tier (local NVMe vs. a remote
object store), retention keeps only the last *k* snapshots, and a
checkpoint may be silently corrupt — discovered only at restore time,
when the restore falls back to the next-older snapshot (each attempt
paying its read cost). These are exactly the levers the Young/Daly
trade-off prices, so the store exposes ``write_time_s`` for policies to
consume as the checkpoint cost ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Optional, Union

import numpy as np

from repro.sim import Environment, Monitor


@dataclass(frozen=True)
class CheckpointTier:
    """One storage destination's cost profile."""

    name: str
    #: Fixed per-operation latency (metadata round trip), seconds.
    latency_s: float
    #: Write bandwidth, MB/s — transfer time is size-proportional.
    write_mb_per_s: float
    #: Read (restore) bandwidth, MB/s.
    read_mb_per_s: float

    def __post_init__(self):
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.write_mb_per_s <= 0 or self.read_mb_per_s <= 0:
            raise ValueError("bandwidths must be positive")


#: Stylized tiers: node-local scratch vs. a remote replicated store
#: (bandwidths in the same spirit as :mod:`repro.serverless.storage`).
CHECKPOINT_TIERS: dict[str, CheckpointTier] = {
    "local": CheckpointTier("local", latency_s=0.02,
                            write_mb_per_s=1200.0, read_mb_per_s=2000.0),
    "remote": CheckpointTier("remote", latency_s=0.25,
                             write_mb_per_s=150.0, read_mb_per_s=300.0),
}


@dataclass
class Checkpoint:
    """One durable snapshot (possibly silently corrupt)."""

    seq: int
    payload: Any
    size_mb: float
    written_at: float
    #: Latent write corruption — unknown to the writer, discovered only
    #: when a restore reads the snapshot back.
    corrupt: bool = False


class CheckpointCorruptionError(RuntimeError):
    """The only retained snapshot is corrupt and no fallback exists.

    Raised by :meth:`CheckpointStore.restore` when ``keep_last == 1``:
    retention has already evicted every older snapshot, so the corrupt
    one *is* the whole fallback chain. With ``keep_last > 1`` the same
    discovery silently falls back to the next-older snapshot (or returns
    ``None`` once the chain is exhausted) — but a store configured with
    no chain at all has made an explicit durability bet, and losing it
    deserves a typed error naming the corrupted key, not a ``None`` that
    reads like "never checkpointed".
    """

    def __init__(self, store_name: str, seq: int):
        self.store_name = store_name
        #: The corrupted checkpoint's key (its store-assigned seq).
        self.seq = seq
        super().__init__(
            f"checkpoint store {store_name!r}: only retained snapshot "
            f"(seq={seq}) is corrupt and keep_last=1 leaves no fallback")


class CheckpointStore:
    """Keep-last-k checkpoint storage with modeled I/O cost.

    :meth:`save` and :meth:`restore` are sim-process combinators
    (``ckpt = yield from store.save(state, size_mb)``): they advance sim
    time by the tier's transfer cost, so a crash mid-write simply
    interrupts the caller and the snapshot is never committed.
    """

    def __init__(self, env: Environment,
                 tier: Union[str, CheckpointTier] = "local",
                 keep_last: int = 3,
                 corruption_p: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 monitor: Optional[Monitor] = None,
                 name: str = "ckpt-store"):
        if isinstance(tier, str):
            if tier not in CHECKPOINT_TIERS:
                raise KeyError(f"unknown tier {tier!r}; known: "
                               f"{sorted(CHECKPOINT_TIERS)}")
            tier = CHECKPOINT_TIERS[tier]
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        if not 0.0 <= corruption_p < 1.0:
            raise ValueError(f"corruption_p {corruption_p} not in [0, 1)")
        if corruption_p > 0.0 and rng is None:
            raise ValueError("corruption_p > 0 needs a seeded rng")
        self.env = env
        self.tier = tier
        self.keep_last = keep_last
        self.corruption_p = corruption_p
        self.rng = rng
        self.monitor = Monitor(env) if monitor is None else monitor
        self.name = name
        self._seq = count()
        self.checkpoints: list[Checkpoint] = []
        #: Restore attempts; an int, as ``_restores`` counts only successes.
        self.restores = 0
        #: Restores that found no readable snapshot at all.
        self.failed_restores = 0
        self.evictions = 0
        self.write_time_total_s = 0.0
        self.read_time_total_s = 0.0

    writes = property(lambda self: self.monitor.total(f"{self.name}_writes"))
    #: Restores that had to skip a corrupt snapshot and fall back.
    corrupt_fallbacks = property(
        lambda self: self.monitor.total(f"{self.name}_corrupt_fallbacks"))

    # -- cost model --------------------------------------------------------
    def write_time_s(self, size_mb: float) -> float:
        return self.tier.latency_s + size_mb / self.tier.write_mb_per_s

    def read_time_s(self, size_mb: float) -> float:
        return self.tier.latency_s + size_mb / self.tier.read_mb_per_s

    # -- operations --------------------------------------------------------
    def save(self, payload: Any, size_mb: float):
        """Combinator: write a snapshot, paying the tier's write cost.

        Retention evicts beyond ``keep_last`` *after* the new snapshot
        commits, so a restore always has the freshest k to fall back
        through.
        """
        if size_mb <= 0:
            raise ValueError("size_mb must be positive")
        cost = self.write_time_s(size_mb)
        yield self.env.timeout(cost)
        corrupt = (self.corruption_p > 0.0
                   and bool(self.rng.random() < self.corruption_p))
        ckpt = Checkpoint(seq=next(self._seq), payload=payload,
                          size_mb=float(size_mb), written_at=self.env.now,
                          corrupt=corrupt)
        self.checkpoints.append(ckpt)
        self.write_time_total_s += cost
        while len(self.checkpoints) > self.keep_last:
            self.checkpoints.pop(0)
            self.evictions += 1
        self.monitor.count(f"{self.name}_writes")
        return ckpt

    def restore(self):
        """Combinator: read back the newest *valid* snapshot.

        Tries newest to oldest; every attempt pays its read cost, and a
        corrupt snapshot is discarded (it can never become valid) before
        falling back to the next-older one. Returns the
        :class:`Checkpoint`, or ``None`` when no readable snapshot
        remains — the caller restarts from scratch.

        Exception: with ``keep_last == 1`` a corrupt snapshot raises
        :class:`CheckpointCorruptionError` instead, because the fallback
        chain is empty *by configuration*, not by bad luck — see the
        error's docstring.
        """
        self.restores += 1
        while self.checkpoints:
            candidate = self.checkpoints[-1]
            cost = self.read_time_s(candidate.size_mb)
            yield self.env.timeout(cost)
            self.read_time_total_s += cost
            if not candidate.corrupt:
                self.monitor.count(f"{self.name}_restores")
                return candidate
            if self.keep_last == 1:
                self.checkpoints.pop()
                self.failed_restores += 1
                raise CheckpointCorruptionError(self.name, candidate.seq)
            self.checkpoints.pop()
            self.monitor.count(f"{self.name}_corrupt_fallbacks")
        self.failed_restores += 1
        return None

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.checkpoints)

    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None
