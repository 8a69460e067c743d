"""2fast: collaborative downloads in P2P networks (the paper's [68]).

In a reciprocity-driven (tit-for-tat) swarm, a peer's achievable download
rate is roughly what its upload contribution earns plus a small altruistic
share from seeds. Under ADSL asymmetry the upload link is the binding
constraint — the [62] phenomenon that motivated 2fast.

2fast lets a *collector* enlist *helpers* whose incentive to share "does
not need immediate repay": helpers spend their own upload capacity on the
collector's behalf, so the group contribution (and hence the earned
download rate) grows with every helper, until the collector's download
link saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.p2p.peer import PEER_CLASSES, PeerClass
from repro.sim import Environment

#: Upload earned back per unit of upload given (tit-for-tat), the altruistic
#: upload seeds give every collector, and the simulation round.
RECIPROCITY = 1.0
SEED_ALTRUISM_KBPS = 32.0
ROUND_S = 10.0

@dataclass
class TwoFastResult:
    """Download times for a collector with 0..max_helpers helpers."""

    content_size_mb: float
    peer_class: PeerClass
    download_times: list[float]  # index = number of helpers

    @property
    def solo_time(self) -> float:
        return self.download_times[0]

    def speedup(self, helpers: int) -> float:
        return self.solo_time / self.download_times[helpers]

    @property
    def max_speedup(self) -> float:
        return self.solo_time / min(self.download_times)

    @property
    def saturation_helpers(self) -> int:
        """First helper count at which adding helpers stops paying (<2%)."""
        for k in range(1, len(self.download_times)):
            if self.download_times[k] > self.download_times[k - 1] * 0.98:
                return k - 1
        return len(self.download_times) - 1


def collector_rate_mbps(peer_class: PeerClass, helpers: int) -> float:
    """Achievable download rate of a collector with ``helpers`` helpers.

    Earned rate = group upload × reciprocity + altruism, capped by the
    collector's download link. All helpers share the collector's class.
    """
    if helpers < 0:
        raise ValueError("helpers must be >= 0")
    group_upload_kbps = peer_class.upload_kbps * (1 + helpers)
    earned_kbps = group_upload_kbps * RECIPROCITY + SEED_ALTRUISM_KBPS
    return min(earned_kbps, peer_class.download_kbps) / 1024.0


def run_2fast_experiment(content_size_mb: float = 700.0,
                         peer_class_name: str = "adsl",
                         max_helpers: int = 10) -> TwoFastResult:
    """Simulate collector downloads with 0..max_helpers helpers.

    Each configuration runs as a DES process accumulating content at the
    earned rate; returns per-helper-count download times.
    """
    if content_size_mb <= 0:
        raise ValueError("content size must be positive")
    peer_class = PEER_CLASSES[peer_class_name]
    times: list[float] = []
    for helpers in range(max_helpers + 1):
        env = Environment()
        rate = collector_rate_mbps(peer_class, helpers)
        done = {}

        def download(env, rate=rate, done=done):
            fetched = 0.0
            while fetched < content_size_mb:
                yield env.timeout(ROUND_S)
                fetched += rate * ROUND_S
            done["time"] = env.now

        env.process(download(env))
        env.run()
        times.append(done["time"])
    return TwoFastResult(content_size_mb=content_size_mb,
                         peer_class=peer_class, download_times=times)
