"""Peers and content descriptors."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

_peer_ids = count()


@dataclass(frozen=True)
class PeerClass:
    """A bandwidth class of peers.

    The [62] study's headline finding is the large upload/download
    imbalance after ADSL adoption; the default classes encode it.
    Bandwidths are in KB/s.
    """

    name: str
    download_kbps: float
    upload_kbps: float

    @property
    def asymmetry(self) -> float:
        """Download/upload ratio (>1 means asymmetric, ADSL-like)."""
        return self.download_kbps / self.upload_kbps


#: Stylized 2005-era access-link mix: mostly ADSL, some symmetric links.
PEER_CLASSES: dict[str, PeerClass] = {
    "adsl": PeerClass("adsl", download_kbps=1024.0, upload_kbps=128.0),
    "cable": PeerClass("cable", download_kbps=2048.0, upload_kbps=256.0),
    "symmetric": PeerClass("symmetric", download_kbps=1024.0,
                           upload_kbps=1024.0),
    "university": PeerClass("university", download_kbps=8192.0,
                            upload_kbps=8192.0),
}


@dataclass(frozen=True)
class ContentDescriptor:
    """What a swarm shares.

    ``content_key`` identifies the underlying media; ``format`` the
    packaging (codec, resolution, rip group). Two descriptors with equal
    ``content_key`` but different formats are *aliased media* ([61]).
    """

    content_key: str
    format: str
    size_mb: float

    @property
    def torrent_id(self) -> str:
        return f"{self.content_key}/{self.format}"


@dataclass
class Peer:
    """One participant of a swarm (flow-level model; no per-message state)."""

    peer_class: PeerClass
    arrival_time: float
    peer_id: int = field(default_factory=lambda: next(_peer_ids))
    #: MB downloaded so far; a peer with downloaded >= content size seeds.
    downloaded_mb: float = 0.0
    uploaded_mb: float = 0.0
    is_seed: bool = False
    #: Seeds linger this long after completing before leaving.
    seed_linger_s: float = 1800.0
    completed_at: Optional[float] = None
    departed_at: Optional[float] = None
    #: True when churn made the peer abort before completing.
    aborted: bool = False

    @property
    def active(self) -> bool:
        return self.departed_at is None

    @property
    def download_time(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival_time

    def remaining_mb(self, content_size_mb: float) -> float:
        return max(0.0, content_size_mb - self.downloaded_mb)
