"""Tribler-style social P2P: friends power collaborative downloads ([69]).

Tribler was "the first socially aware P2P system"; 2fast was one of its
three pillars. The social layer's job for downloads: when a member wants
content, recruit *idle online friends* as 2fast helpers. This module
models the social overlay (friendship graph + online/idle state) and the
helper-recruitment policy, and quantifies the [69] effect: download
speedup grows with the size and availability of one's social circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

from repro.p2p.peer import PEER_CLASSES, PeerClass
from repro.p2p.twofast import (RECIPROCITY, SEED_ALTRUISM_KBPS,
                               collector_rate_mbps)


@dataclass
class SocialPeer:
    """A member of the social overlay."""

    name: str
    peer_class: PeerClass
    online: bool = True
    #: A busy friend is downloading for itself and cannot help.
    busy: bool = False

    @property
    def can_help(self) -> bool:
        return self.online and not self.busy


class SocialOverlay:
    """The friendship graph with member state."""

    def __init__(self):
        self.graph = nx.Graph()
        self.members: dict[str, SocialPeer] = {}

    def add_member(self, peer: SocialPeer) -> SocialPeer:
        if peer.name in self.members:
            raise ValueError(f"member {peer.name!r} already present")
        self.members[peer.name] = peer
        self.graph.add_node(peer.name)
        return peer

    def befriend(self, a: str, b: str) -> None:
        if a not in self.members or b not in self.members:
            raise KeyError("both members must exist")
        if a == b:
            raise ValueError("cannot befriend oneself")
        self.graph.add_edge(a, b)

    def friends_of(self, name: str) -> list[SocialPeer]:
        if name not in self.members:
            raise KeyError(name)
        return [self.members[f] for f in sorted(self.graph.neighbors(name))]

    def recruit_helpers(self, collector: str,
                        max_helpers: int = 8) -> list[SocialPeer]:
        """Idle online friends, best upload links first — the incentive
        that 'does not need immediate repay' makes them willing."""
        available = [f for f in self.friends_of(collector) if f.can_help]
        available.sort(key=lambda p: (-p.peer_class.upload_kbps, p.name))
        return available[:max_helpers]

    def download_rate_mbps(self, collector: str,
                           max_helpers: int = 8) -> float:
        """The collector's achievable rate with recruited friends.

        Helpers contribute their own upload capacity (they may differ in
        class); the result is capped by the collector's download link.
        """
        member = self.members[collector]
        helpers = self.recruit_helpers(collector, max_helpers)
        group_upload = member.peer_class.upload_kbps + sum(
            h.peer_class.upload_kbps for h in helpers)
        earned = group_upload * RECIPROCITY + SEED_ALTRUISM_KBPS
        return min(earned, member.peer_class.download_kbps) / 1024.0

    def social_speedup(self, collector: str,
                       max_helpers: int = 8) -> float:
        """Download-rate gain over going solo."""
        solo = collector_rate_mbps(self.members[collector].peer_class, 0)
        social = self.download_rate_mbps(collector, max_helpers)
        return social / solo


def social_circle_study(rng: np.random.Generator,
                        circle_sizes: Sequence[int] = (0, 2, 4, 8, 16),
                        online_fraction: float = 0.6,
                        busy_fraction: float = 0.3
                        ) -> list[dict[str, float]]:
    """The [69] effect: speedup vs social-circle size.

    Builds, per circle size, a star of ADSL friends around one ADSL
    collector with the given availability, and measures the achieved
    speedup.
    """
    rows = []
    for size in circle_sizes:
        overlay = SocialOverlay()
        overlay.add_member(SocialPeer(
            "collector", PEER_CLASSES["adsl"]))
        for i in range(size):
            overlay.add_member(SocialPeer(
                f"friend-{i:02d}", PEER_CLASSES["adsl"],
                online=bool(rng.random() < online_fraction),
                busy=bool(rng.random() < busy_fraction)))
            overlay.befriend("collector", f"friend-{i:02d}")
        helpers = overlay.recruit_helpers("collector", max_helpers=16)
        rows.append({
            "circle_size": float(size),
            "available_helpers": float(len(helpers)),
            "speedup": overlay.social_speedup("collector",
                                              max_helpers=16),
        })
    return rows
