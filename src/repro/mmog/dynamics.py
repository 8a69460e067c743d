"""Player population dynamics: the longitudinal studies of Table 6.

The [71] (Runescape/MMORPG), [72] (MOBA), and [73] (online-social) studies
uncovered short-term (diurnal) and long-term (growth/decline) dynamics and
genre-specific session behaviour. :data:`GENRE_PROFILES` encodes the
stylized differences; :func:`simulate_population` produces the population
signal the provisioning experiments consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.workload.arrivals import DiurnalArrivals


@dataclass(frozen=True)
class GenreProfile:
    """Stylized dynamics of one game genre."""

    name: str
    #: Mean session length, seconds.
    mean_session_s: float
    #: Lognormal sigma of session length.
    session_sigma: float
    #: Diurnal amplitude of arrivals in [0, 1].
    diurnal_amplitude: float
    #: Long-term daily growth rate (can be negative: declining title).
    daily_growth: float
    #: Weekend arrival multiplier.
    weekend_boost: float


GENRE_PROFILES: dict[str, GenreProfile] = {
    # MMORPGs: long sessions, strong diurnal cycle, steady growth.
    "mmorpg": GenreProfile("mmorpg", mean_session_s=2.5 * 3600,
                           session_sigma=0.9, diurnal_amplitude=0.8,
                           daily_growth=0.004, weekend_boost=1.4),
    # MOBAs: match-length sessions, very strong evening peaks.
    "moba": GenreProfile("moba", mean_session_s=40 * 60,
                         session_sigma=0.4, diurnal_amplitude=0.9,
                         daily_growth=0.008, weekend_boost=1.6),
    # Online-social games: short, frequent sessions, flatter cycle.
    "social": GenreProfile("social", mean_session_s=12 * 60,
                           session_sigma=0.6, diurnal_amplitude=0.5,
                           daily_growth=0.012, weekend_boost=1.1),
    # A declining classic title.
    "declining": GenreProfile("declining", mean_session_s=2 * 3600,
                              session_sigma=0.9, diurnal_amplitude=0.8,
                              daily_growth=-0.01, weekend_boost=1.3),
}


@dataclass
class PopulationTrace:
    """Concurrent-player signal sampled on a regular grid."""

    genre: str
    times: np.ndarray
    population: np.ndarray
    arrivals: list[float] = field(default_factory=list)

    @property
    def peak(self) -> float:
        return float(self.population.max())

    @property
    def trough(self) -> float:
        return float(self.population.min())

    @property
    def peak_to_trough(self) -> float:
        return self.peak / max(self.trough, 1.0)

    def daily_peaks(self) -> np.ndarray:
        """Peak concurrent players per day (long-term trend signal)."""
        day = 86400.0
        n_days = int(math.ceil(self.times[-1] / day)) if len(self.times) else 0
        peaks = []
        for d in range(n_days):
            mask = (self.times >= d * day) & (self.times < (d + 1) * day)
            if mask.any():
                peaks.append(float(self.population[mask].max()))
        return np.asarray(peaks)

    def long_term_growth(self) -> float:
        """Fitted daily growth rate of the log of daily peaks."""
        peaks = self.daily_peaks()
        if peaks.size < 3:
            return float("nan")
        days = np.arange(peaks.size)
        valid = peaks > 0
        slope = np.polyfit(days[valid], np.log(peaks[valid]), 1)[0]
        return float(slope)


def simulate_population(rng: np.random.Generator,
                        genre: str = "mmorpg",
                        days: int = 7,
                        base_arrivals_per_s: float = 0.05) -> PopulationTrace:
    """Simulate session arrivals/departures; return the population signal,
    sampled every 300 s.

    Arrivals follow a diurnal non-homogeneous Poisson process whose base
    rate compounds daily at the genre's growth rate (and gets the weekend
    boost on days 5-6 of each week); sessions last lognormal durations.
    """
    if genre not in GENRE_PROFILES:
        raise KeyError(f"unknown genre {genre!r}; known: "
                       f"{sorted(GENRE_PROFILES)}")
    profile = GENRE_PROFILES[genre]
    day = 86400.0
    arrivals: list[float] = []
    for d in range(days):
        rate = base_arrivals_per_s * (1 + profile.daily_growth) ** d
        if d % 7 in (5, 6):
            rate *= profile.weekend_boost
        process = DiurnalArrivals(
            base_rate=rate, rng=rng,
            amplitude=profile.diurnal_amplitude, period_s=day,
            start=d * day)
        arrivals.extend(t for t in process.times((d + 1) * day))
    arrivals.sort()
    mu = math.log(profile.mean_session_s) - profile.session_sigma**2 / 2
    durations = rng.lognormal(mu, profile.session_sigma,
                              size=len(arrivals))
    departures = np.asarray(arrivals) + durations
    grid = np.arange(0.0, days * day + 300.0 / 2, 300.0)
    starts = np.searchsorted(np.asarray(arrivals), grid, side="right")
    ends = np.searchsorted(np.sort(departures), grid, side="right")
    population = (starts - ends).astype(float)
    return PopulationTrace(genre=genre, times=grid, population=population,
                           arrivals=arrivals)
