"""BitTorrent-style P2P ecosystem (paper §6.1, Table 5).

A flow-level swarm simulator with the mechanisms the paper's P2P studies
measured or designed:

- :mod:`repro.p2p.peer` — peers with asymmetric (ADSL) bandwidth, seeds and
  leechers, content descriptors with *aliased media* (the same content in
  several formats, the [61] discovery);
- :mod:`repro.p2p.tracker` — trackers (including the spam trackers the
  BTWorld study [63] uncovered);
- :mod:`repro.p2p.swarm` — the swarm simulation: piece exchange, choking,
  flashcrowd arrivals, seed lingering, per-peer download times;
- :mod:`repro.p2p.twofast` — the 2fast collaborative-download protocol
  [68]: helpers donate idle upload capacity to a collector;
- :mod:`repro.p2p.monitor` — a BTWorld-style global monitor sampling
  trackers, plus the sampling-bias meta-analysis of [65];
- :mod:`repro.p2p.analytics` — ecosystem analytics: aliased-media
  detection, bandwidth-asymmetry measurement, flashcrowd identification,
  giant-swarm statistics.
"""

from repro.p2p.peer import ContentDescriptor, Peer, PeerClass, PEER_CLASSES
from repro.p2p.tracker import SpamTracker, Tracker, TrackerStats
from repro.p2p.swarm import Swarm, SwarmConfig, SwarmResult, run_swarm
from repro.p2p.twofast import TwoFastResult, run_2fast_experiment
from repro.p2p.monitor import BTWorldMonitor, SamplingBiasReport, bias_study
from repro.p2p.analytics import (
    AliasGroup,
    bandwidth_asymmetry,
    detect_aliased_media,
    detect_flashcrowds,
    giant_swarms,
)

__all__ = [
    "AliasGroup",
    "BTWorldMonitor",
    "ContentDescriptor",
    "PEER_CLASSES",
    "Peer",
    "PeerClass",
    "SamplingBiasReport",
    "SpamTracker",
    "Swarm",
    "SwarmConfig",
    "SwarmResult",
    "Tracker",
    "TrackerStats",
    "TwoFastResult",
    "bandwidth_asymmetry",
    "bias_study",
    "detect_aliased_media",
    "detect_flashcrowds",
    "giant_swarms",
    "run_2fast_experiment",
    "run_swarm",
]
