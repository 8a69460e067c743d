"""Trackers: swarm membership directories, honest and spammy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.p2p.peer import Peer

#: Most peers one announce returns.
MAX_PEERS = 50

@dataclass
class TrackerStats:
    """A scrape response: seeders/leechers per torrent at a moment."""

    torrent_id: str
    time: float
    seeders: int
    leechers: int

    @property
    def swarm_size(self) -> int:
        return self.seeders + self.leechers


class Tracker:
    """An honest tracker: tracks peers per torrent, answers announces
    and scrapes truthfully."""

    def __init__(self, name: str):
        self.name = name
        self._swarms: dict[str, dict[int, Peer]] = {}
        self.announce_count = 0
        self.scrape_count = 0

    def __repr__(self) -> str:
        return f"<Tracker {self.name}: {len(self._swarms)} torrents>"

    @property
    def is_spam(self) -> bool:
        return False

    def torrents(self) -> list[str]:
        return sorted(self._swarms)

    def announce(self, torrent_id: str, peer: Peer,
                 rng: Optional[np.random.Generator] = None) -> list[Peer]:
        """Register the peer; return up to :data:`MAX_PEERS` other peers."""
        self.announce_count += 1
        swarm = self._swarms.setdefault(torrent_id, {})
        swarm[peer.peer_id] = peer
        others = [p for pid, p in swarm.items()
                  if pid != peer.peer_id and p.active]
        if len(others) > MAX_PEERS:
            if rng is None:
                others = others[:MAX_PEERS]
            else:
                idx = rng.choice(len(others), size=MAX_PEERS, replace=False)
                others = [others[int(i)] for i in idx]
        return others

    def depart(self, torrent_id: str, peer: Peer) -> None:
        swarm = self._swarms.get(torrent_id, {})
        swarm.pop(peer.peer_id, None)

    def scrape(self, torrent_id: str, time: float) -> TrackerStats:
        self.scrape_count += 1
        swarm = self._swarms.get(torrent_id, {})
        active = [p for p in swarm.values() if p.active]
        seeders = sum(1 for p in active if p.is_seed)
        return TrackerStats(torrent_id=torrent_id, time=time,
                            seeders=seeders,
                            leechers=len(active) - seeders)


class SpamTracker(Tracker):
    """A spam tracker ([63]): reports inflated, fabricated swarm statistics
    and returns fake peer lists — inserted 'by unidentified entities to
    presumably mislead and track BT-users'."""

    def __init__(self, name: str, rng: np.random.Generator,
                 inflation: float = 20.0):
        super().__init__(name)
        if inflation < 1:
            raise ValueError("inflation must be >= 1")
        self.rng = rng
        self.inflation = inflation

    @property
    def is_spam(self) -> bool:
        return True

    def scrape(self, torrent_id: str, time: float) -> TrackerStats:
        self.scrape_count += 1
        # Fabricate statistics regardless of real membership.
        fake_total = int(self.rng.integers(100, 1000) * self.inflation)
        fake_seeders = int(fake_total * float(self.rng.uniform(0.3, 0.7)))
        return TrackerStats(torrent_id=torrent_id, time=time,
                            seeders=fake_seeders,
                            leechers=fake_total - fake_seeders)

    def announce(self, torrent_id: str, peer: Peer,
                 rng: Optional[np.random.Generator] = None) -> list[Peer]:
        """Returns an empty (useless) peer list; still logs the announce —
        the tracking part of the spam."""
        self.announce_count += 1
        self._swarms.setdefault(torrent_id, {})[peer.peer_id] = peer
        return []
