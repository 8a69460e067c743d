"""The swarm simulation: flow-level BitTorrent piece exchange.

The model is flow-level (bandwidth shares, not per-message): each round,
the aggregate *useful* upload capacity of seeds and partially-complete
leechers is allocated to downloading leechers, capped by their download
links. This reproduces the system-level phenomena the paper's studies
report — upload-limited swarms under ADSL asymmetry, slow downloads during
flashcrowds until enough peers convert to seeds, and post-completion seed
lingering sustaining the swarm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.p2p.peer import ContentDescriptor, Peer, PeerClass, PEER_CLASSES
from repro.p2p.tracker import Tracker
from repro.sim import Environment, Monitor
from repro.workload.arrivals import ArrivalProcess


@dataclass
class SwarmConfig:
    """Parameters of one swarm simulation."""

    content: ContentDescriptor
    #: (class name, probability) mix of arriving peers.
    peer_mix: Sequence[tuple[str, float]] = (
        ("adsl", 0.7), ("cable", 0.2), ("symmetric", 0.08),
        ("university", 0.02))
    initial_seeds: int = 2
    #: Bandwidth class of the origin seeds (a modest home seeder by
    #: default; use "university" for a well-provisioned publisher).
    seed_class: str = "cable"
    round_s: float = 10.0
    #: Protocol efficiency: fraction of raw bandwidth turned into payload.
    efficiency: float = 0.9
    seed_linger_s: float = 1800.0
    horizon_s: float = 4 * 3600.0
    #: A leecher with fraction f of the content uploads at
    #: upload * min(1, f / useful_fraction); models piece availability.
    useful_fraction: float = 0.25
    #: Mean leecher session length before churn aborts the download
    #: (None = no churn). Exponential sessions, drawn per round.
    mean_session_s: Optional[float] = None

    def __post_init__(self):
        total = sum(p for _, p in self.peer_mix)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"peer_mix probabilities sum to {total}, not 1")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.mean_session_s is not None and self.mean_session_s <= 0:
            raise ValueError("mean_session_s must be positive")


@dataclass
class SwarmResult:
    """Everything a study needs after a swarm run."""

    config: SwarmConfig
    peers: list[Peer]
    monitor: Monitor
    completed: list[Peer] = field(default_factory=list)

    @property
    def download_times(self) -> list[float]:
        return [p.download_time for p in self.completed]

    @property
    def mean_download_time(self) -> float:
        times = self.download_times
        return float(np.mean(times)) if times else float("nan")

    @property
    def completion_rate(self) -> float:
        leechers = [p for p in self.peers if not p.arrival_time < 0]
        if not leechers:
            return 0.0
        return len(self.completed) / len(leechers)

    @property
    def churned_count(self) -> int:
        return sum(1 for p in self.peers if p.aborted)

    def peak_swarm_size(self) -> int:
        series = self.monitor.series.get("swarm_size")
        return int(max(series.values)) if series and series.values else 0


class Swarm:
    """A single-torrent swarm running on the DES kernel."""

    def __init__(self, env: Environment, config: SwarmConfig,
                 tracker: Tracker, rng: np.random.Generator,
                 arrivals: Optional[ArrivalProcess] = None,
                 tracer=None, registry=None):
        self.env = env
        self.config = config
        self.tracker = tracker
        self.rng = rng
        self.arrivals = arrivals
        self.monitor = Monitor(env, registry=registry, namespace="p2p")
        #: Optional :class:`~repro.observability.Tracer`: the whole run is
        #: a ``p2p.swarm`` span; every leecher a ``p2p.download`` child
        #: (status ok / churned / incomplete).
        self.tracer = tracer
        if tracer is not None and tracer.env is None:
            tracer.bind(env)
        self._root_span = (tracer.start_span("p2p.swarm",
                                             torrent=config.content.torrent_id)
                           if tracer is not None else None)
        self._peer_spans: dict[int, object] = {}
        self.peers: list[Peer] = []
        self.completed: list[Peer] = []
        #: Leechers that churned out before completing.
        self.churned = 0
        self._class_names = [name for name, _ in config.peer_mix]
        self._class_probs = [p for _, p in config.peer_mix]
        # Initial seeds: negative arrival time marks them as origin seeds.
        for _ in range(config.initial_seeds):
            seed = Peer(peer_class=PEER_CLASSES[config.seed_class],
                        arrival_time=-1.0,
                        downloaded_mb=config.content.size_mb,
                        is_seed=True,
                        seed_linger_s=float("inf"))
            self.peers.append(seed)
            self.tracker.announce(config.content.torrent_id, seed)
        self.process = env.process(self._run())

    # -- public ----------------------------------------------------------------
    def add_peer(self, peer_class: Optional[PeerClass] = None) -> Peer:
        """Admit one leecher now."""
        if peer_class is None:
            name = self.rng.choice(self._class_names, p=self._class_probs)
            peer_class = PEER_CLASSES[str(name)]
        peer = Peer(peer_class=peer_class, arrival_time=self.env.now,
                    seed_linger_s=self.config.seed_linger_s)
        self.peers.append(peer)
        if self.tracer is not None:
            self._peer_spans[id(peer)] = self.tracer.start_span(
                "p2p.download", parent=self._root_span,
                peer=len(self.peers) - 1,
                peer_class=peer.peer_class.name)
        self.tracker.announce(self.config.content.torrent_id, peer, self.rng)
        return peer

    def active_peers(self) -> list[Peer]:
        return [p for p in self.peers if p.active]

    # -- internals ----------------------------------------------------------
    def _run(self):
        cfg = self.config
        pending_arrivals = []
        if self.arrivals is not None:
            pending_arrivals = list(self.arrivals.times(cfg.horizon_s))
        arrival_idx = 0
        while self.env.now < cfg.horizon_s:
            # Admit peers that arrived since the last round.
            while (arrival_idx < len(pending_arrivals)
                   and pending_arrivals[arrival_idx] <= self.env.now):
                self.add_peer()
                arrival_idx += 1
            self._exchange_round(cfg.round_s)
            self._departures()
            self._record()
            yield self.env.timeout(cfg.round_s)

    def _exchange_round(self, dt: float) -> None:
        cfg = self.config
        size = cfg.content.size_mb
        active = self.active_peers()
        leechers = [p for p in active if not p.is_seed]
        if not leechers:
            return
        # Useful upload capacity (KB/s -> MB/s = /1024).
        supply_mbps = 0.0
        for peer in active:
            up = peer.peer_class.upload_kbps / 1024.0
            if peer.is_seed:
                supply_mbps += up
            else:
                fraction = peer.downloaded_mb / size
                supply_mbps += up * min(1.0, fraction / cfg.useful_fraction)
        supply_mbps *= cfg.efficiency
        # Demand: each leecher can take at most its download link.
        demands = np.array([
            min(p.peer_class.download_kbps / 1024.0,
                p.remaining_mb(size) / dt)
            for p in leechers
        ])
        total_demand = demands.sum()
        if total_demand <= 0:
            return
        scale = min(1.0, supply_mbps / total_demand)
        rates = demands * scale
        uploaded_total = float(rates.sum()) * dt
        # Charge uploads to contributors proportionally to their supply.
        uploaders = [(p, (p.peer_class.upload_kbps / 1024.0)
                      * (1.0 if p.is_seed else min(
                          1.0, (p.downloaded_mb / size) / cfg.useful_fraction)))
                     for p in active]
        supply_sum = sum(s for _, s in uploaders) or 1.0
        for peer, share in uploaders:
            peer.uploaded_mb += uploaded_total * share / supply_sum
        for peer, rate in zip(leechers, rates):
            peer.downloaded_mb = min(size, peer.downloaded_mb + rate * dt)
            if peer.downloaded_mb >= size - 1e-9 and not peer.is_seed:
                peer.is_seed = True
                peer.completed_at = self.env.now + dt
                self.completed.append(peer)
                span = self._peer_spans.pop(id(peer), None)
                if span is not None:
                    self.tracer.end_span(span, t=peer.completed_at,
                                         status="ok")

    def _departures(self) -> None:
        now = self.env.now
        cfg = self.config
        churn_p = (1.0 - float(np.exp(-cfg.round_s / cfg.mean_session_s))
                   if cfg.mean_session_s is not None else 0.0)
        for peer in self.active_peers():
            if (peer.is_seed and peer.completed_at is not None
                    and now - peer.completed_at >= peer.seed_linger_s):
                peer.departed_at = now
                self.tracker.depart(cfg.content.torrent_id, peer)
            elif (churn_p > 0.0 and not peer.is_seed
                    and peer.arrival_time >= 0
                    and self.rng.random() < churn_p):
                # Churn: the leecher gives up mid-download and leaves.
                peer.aborted = True
                peer.departed_at = now
                self.churned += 1
                self.monitor.count("churned")
                span = self._peer_spans.pop(id(peer), None)
                if span is not None:
                    self.tracer.end_span(span, status="churned")
                self.tracker.depart(cfg.content.torrent_id, peer)

    def _record(self) -> None:
        active = self.active_peers()
        seeds = sum(1 for p in active if p.is_seed)
        self.monitor.record("swarm_size", len(active))
        self.monitor.record("seeders", seeds)
        self.monitor.record("leechers", len(active) - seeds)

    def result(self) -> SwarmResult:
        if self.tracer is not None:
            # Close what the horizon cut off: leechers still downloading
            # and the run-root span itself.
            for peer in self.peers:
                span = self._peer_spans.pop(id(peer), None)
                if span is not None:
                    self.tracer.end_span(span, status="incomplete")
            if self._root_span is not None and not self._root_span.finished:
                self.tracer.end_span(self._root_span,
                                     completed=len(self.completed),
                                     churned=self.churned)
        return SwarmResult(config=self.config, peers=self.peers,
                           monitor=self.monitor, completed=self.completed)


def run_swarm(config: SwarmConfig, tracker: Tracker,
              rng: np.random.Generator,
              arrivals: Optional[ArrivalProcess] = None,
              env: Optional[Environment] = None,
              tracer=None, registry=None) -> SwarmResult:
    """Convenience wrapper: build, run to the horizon, return the result."""
    env = env or Environment()
    swarm = Swarm(env, config, tracker, rng, arrivals,
                  tracer=tracer, registry=registry)
    env.run(until=config.horizon_s)
    return swarm.result()
