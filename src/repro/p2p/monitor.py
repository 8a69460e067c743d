"""BTWorld: a global-scale monitor of BT ecosystems, and its bias study.

BTWorld ([63]) periodically scrapes many trackers and aggregates swarm
statistics; the follow-up meta-analysis ([65]) quantified the *sampling
bias* such instruments introduce: partial tracker coverage, finite
sampling intervals, and spam trackers all distort the observed ecosystem.
This module implements both the instrument and the bias analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.p2p.tracker import Tracker, TrackerStats
from repro.sim import Environment
from repro.workload.trace import TraceArchive


class BTWorldMonitor:
    """Scrapes a set of trackers every ``interval_s`` and logs the results.

    ``coverage`` < 1 models observing only a subset of the ecosystem's
    trackers (the dominant source of bias in the meta-analysis).
    """

    def __init__(self, env: Environment, trackers: Sequence[Tracker],
                 interval_s: float = 300.0,
                 coverage: float = 1.0,
                 rng: Optional[np.random.Generator] = None,
                 filter_spam: bool = False,
                 max_samples: int = 100_000):
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.env = env
        self.interval_s = interval_s
        self.filter_spam = filter_spam
        all_trackers = list(trackers)
        n_observed = max(1, int(round(coverage * len(all_trackers))))
        if rng is not None and n_observed < len(all_trackers):
            idx = rng.choice(len(all_trackers), size=n_observed,
                             replace=False)
            self.observed = [all_trackers[int(i)] for i in sorted(idx)]
        else:
            self.observed = all_trackers[:n_observed]
        self.samples: list[TrackerStats] = []
        #: Retention cap: beyond this the monitor keeps a sliding window.
        self.max_samples = int(max_samples)
        self.archive = TraceArchive(
            name="btworld", domain="p2p", instrument="btworld-monitor",
            provenance=f"interval={interval_s}s coverage={coverage}")
        self.process = env.process(self._run())

    def _run(self):
        while True:
            for tracker in self.observed:
                if self.filter_spam and tracker.is_spam:
                    continue
                for torrent_id in tracker.torrents():
                    stats = tracker.scrape(torrent_id, self.env.now)
                    if len(self.samples) >= self.max_samples:
                        # Evict the oldest scrape so week-long sims do
                        # not grow without bound (simlint SL010); the
                        # aggregate views then reflect a sliding window.
                        self.samples.pop(0)
                        self.archive.records.pop(0)
                    self.samples.append(stats)
                    self.archive.add(
                        self.env.now, "scrape", entity=tracker.name,
                        torrent=torrent_id, seeders=stats.seeders,
                        leechers=stats.leechers)
            yield self.env.timeout(self.interval_s)

    # -- aggregate views -----------------------------------------------------

    def total_samples(self) -> int:
        return len(self.samples)


@dataclass
class SamplingBiasReport:
    """The [65]-style bias characterization of one monitor configuration."""

    interval_s: float
    coverage: float
    true_peak: float
    observed_peak: float
    includes_spam: bool = False
    spam_inflation: float = 0.0

    @property
    def peak_bias(self) -> float:
        """Relative error of the observed peak (negative = underestimate)."""
        if self.true_peak == 0:
            return 0.0
        return (self.observed_peak - self.true_peak) / self.true_peak


def bias_study(true_series_times: Sequence[float],
               true_series_sizes: Sequence[float],
               intervals_s: Sequence[float],
               coverages: Sequence[float]) -> list[SamplingBiasReport]:
    """Quantify bias of (interval, coverage) choices on a known signal.

    Given the *true* swarm-size signal, subsample it at each interval and
    scale by each coverage (a fraction of trackers sees a fraction of the
    swarm, in expectation) and report observed-vs-true peaks. Slow sampling
    misses short peaks; partial coverage scales everything down — the two
    bias sources the paper catalogs.
    """
    times = np.asarray(true_series_times, dtype=float)
    sizes = np.asarray(true_series_sizes, dtype=float)
    if times.shape != sizes.shape or times.size == 0:
        raise ValueError("times and sizes must be equal-length, non-empty")
    true_peak = float(sizes.max())
    reports = []
    for interval in intervals_s:
        sample_times = np.arange(times[0], times[-1] + 1e-9, interval)
        idx = np.searchsorted(times, sample_times, side="right") - 1
        idx = np.clip(idx, 0, times.size - 1)
        sampled = sizes[idx]
        for coverage in coverages:
            observed = sampled * coverage
            reports.append(SamplingBiasReport(
                interval_s=float(interval), coverage=float(coverage),
                true_peak=true_peak,
                observed_peak=float(observed.max()) if observed.size else 0.0))
    return reports
