"""CAMEO: continuous gaming analytics on cloud resources ([79]).

CAMEO combined NoSQL and cloud technology to compute gaming analytics
continuously, *within a budget*: the operator picks how much cloud
capacity to rent, which bounds how much data each analysis pass can
touch; sampling covers the rest. This module provides:

- a session-log generator with power-law player activity (heavy gamers
  dominate events — the reason naive sampling biases KPIs);
- the exact KPI: daily active users (DAU);
- :class:`CameoAnalytics`: sampled continuous analysis with a cloud cost
  model and the budget → sampling-fraction planning knob, plus the
  accuracy-vs-budget trade-off the paper's design navigates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DAY_S = 86400.0


@dataclass(frozen=True)
class SessionRecord:
    """One play session of one player."""

    player: str
    start: float
    end: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("session must end after it starts")

    @property
    def day(self) -> int:
        return int(self.start // DAY_S)


def generate_sessions(rng: np.random.Generator,
                      n_players: int = 500,
                      days: int = 7,
                      churn_per_day: float = 0.03) -> list[SessionRecord]:
    """Power-law player activity with gradual churn.

    Player i's activity weight follows a Zipf-like 1/(i+1)^0.8 around a
    mean of 1.2 sessions a day, each lasting 60 s plus an exponential
    with mean 1800 s; each day a ``churn_per_day`` fraction of the
    still-active population quits for good.
    """
    if n_players < 1 or days < 1:
        raise ValueError("need at least one player and one day")
    weights = np.array([1.0 / (i + 1) ** 0.8 for i in range(n_players)])
    weights /= weights.mean()
    active = np.ones(n_players, dtype=bool)
    sessions: list[SessionRecord] = []
    for day in range(days):
        quitters = rng.random(n_players) < churn_per_day
        active &= ~quitters
        for player_idx in np.nonzero(active)[0]:
            lam = 1.2 * weights[player_idx]
            n_sessions = rng.poisson(lam)
            for _ in range(n_sessions):
                start = day * DAY_S + float(rng.uniform(0, DAY_S))
                duration = float(rng.exponential(1800.0)) + 60.0
                sessions.append(SessionRecord(
                    player=f"p{player_idx:04d}", start=start,
                    end=start + duration))
    sessions.sort(key=lambda s: s.start)
    return sessions


# -- exact KPIs ---------------------------------------------------------------
def dau(sessions: Sequence[SessionRecord], day: int) -> int:
    """Distinct players with a session starting on ``day``."""
    return len({s.player for s in sessions if s.day == day})


# -- CAMEO: sampled continuous analytics under budget ------------------------
@dataclass
class AnalyticsReport:
    """One continuous-analytics configuration's output and cost."""

    sampling_fraction: float
    dau_estimates: dict[int, float]
    dau_exact: dict[int, int]
    events_processed: int
    cloud_cost: float

    @property
    def mean_relative_error(self) -> float:
        errors = []
        for day, exact in self.dau_exact.items():
            if exact == 0:
                continue
            errors.append(abs(self.dau_estimates[day] - exact) / exact)
        return float(np.mean(errors)) if errors else float("nan")


class CameoAnalytics:
    """Continuous analytics with player-level sampling.

    ``cost_per_event`` is the cloud cost of ingesting + analyzing one
    session record (CAMEO's per-analysis cloud bill, normalized).
    Sampling is by *player* (hash-based), so a player's sessions are all
    in or all out — the unbiased design for per-user KPIs.
    """

    def __init__(self, cost_per_event: float = 0.0005):
        if cost_per_event <= 0:
            raise ValueError("cost_per_event must be positive")
        self.cost_per_event = cost_per_event

    def _sampled(self, sessions: Sequence[SessionRecord],
                 fraction: float) -> list[SessionRecord]:
        if not 0 < fraction <= 1:
            raise ValueError("sampling fraction must be in (0, 1]")
        import zlib
        buckets = 10_000
        cutoff = fraction * buckets
        # Stable (cross-process) player hash, unlike built-in hash().
        return [s for s in sessions
                if (zlib.crc32(s.player.encode()) % buckets) < cutoff]

    def analyze(self, sessions: Sequence[SessionRecord],
                fraction: float = 1.0) -> AnalyticsReport:
        sample = self._sampled(sessions, fraction)
        days = sorted({s.day for s in sessions})
        estimates = {
            day: dau(sample, day) / fraction for day in days
        }
        exact = {day: dau(sessions, day) for day in days}
        return AnalyticsReport(
            sampling_fraction=fraction,
            dau_estimates=estimates,
            dau_exact=exact,
            events_processed=len(sample),
            cloud_cost=len(sample) * self.cost_per_event,
        )

    def max_fraction_for_budget(self, sessions: Sequence[SessionRecord],
                                budget: float) -> float:
        """The CAMEO knob: the largest sampling fraction the budget buys."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        full_cost = len(sessions) * self.cost_per_event
        return min(1.0, budget / full_cost) if full_cost > 0 else 1.0

    def analyze_within_budget(self, sessions: Sequence[SessionRecord],
                              budget: float) -> AnalyticsReport:
        fraction = self.max_fraction_for_budget(sessions, budget)
        report = self.analyze(sessions, fraction)
        assert report.cloud_cost <= budget * 1.05  # sampling granularity
        return report
