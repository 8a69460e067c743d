"""Arrival processes: Poisson, diurnal, and flashcrowd.

The paper debunks Poisson-arrival assumptions for P2P ecosystems (§6.1,
Pouwelse et al. follow-ups) and designs a flashcrowd model [66]; all the
alternatives live here so experiments can contrast them.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np


class ArrivalProcess:
    """Base class: iterate to get successive absolute arrival times."""

    def times(self, horizon: float) -> Iterator[float]:
        """Yield arrival times strictly below ``horizon``, increasing."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process with the given rate (arrivals/second)."""

    def __init__(self, rate: float, rng: np.random.Generator,
                 start: float = 0.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.rng = rng
        self.start = start

    def times(self, horizon: float) -> Iterator[float]:
        t = self.start
        while True:
            t += float(self.rng.exponential(1.0 / self.rate))
            if t >= horizon:
                return
            yield t


class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson with a sinusoidal day/night rate.

    Rate at time ``t`` is ``base * (1 + amplitude * sin(2π t / period))``,
    clipped at a small positive floor. MMOG player arrivals (§6.2) follow
    this shape.
    """

    def __init__(self, base_rate: float, rng: np.random.Generator,
                 amplitude: float = 0.8, period_s: float = 86400.0,
                 phase: float = 0.0, start: float = 0.0):
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0 <= amplitude <= 1:
            raise ValueError("amplitude must lie in [0, 1]")
        self.base_rate = base_rate
        self.amplitude = amplitude
        self.period_s = period_s
        self.phase = phase
        self.rng = rng
        self.start = start

    def rate_at(self, t: float) -> float:
        modulation = 1.0 + self.amplitude * math.sin(
            2 * math.pi * t / self.period_s + self.phase)
        return max(self.base_rate * modulation, self.base_rate * 1e-3)

    def times(self, horizon: float) -> Iterator[float]:
        # Thinning (Lewis-Shedler): sample at the max rate, accept w.p.
        # rate(t)/max_rate.
        max_rate = self.base_rate * (1 + self.amplitude)
        t = self.start
        while True:
            t += float(self.rng.exponential(1.0 / max_rate))
            if t >= horizon:
                return
            if self.rng.random() <= self.rate_at(t) / max_rate:
                yield t


class FlashcrowdArrivals(ArrivalProcess):
    """A baseline Poisson process with superimposed flashcrowd bursts.

    Each flashcrowd multiplies the rate by ``burst_factor`` with an
    exponential decay — the shape identified for BitTorrent flashcrowds
    in the paper's [66].
    """

    def __init__(self, base_rate: float, rng: np.random.Generator,
                 burst_times: Sequence[float] = (),
                 burst_factor: float = 50.0,
                 burst_decay_s: float = 1800.0,
                 start: float = 0.0):
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        self.base_rate = base_rate
        self.rng = rng
        self.burst_times = sorted(burst_times)
        self.burst_factor = burst_factor
        self.burst_decay_s = burst_decay_s
        self.start = start

    def rate_at(self, t: float) -> float:
        rate = self.base_rate
        for burst_at in self.burst_times:
            if t >= burst_at:
                boost = (self.burst_factor - 1) * math.exp(
                    -(t - burst_at) / self.burst_decay_s)
                rate += self.base_rate * boost
        return rate

    def times(self, horizon: float) -> Iterator[float]:
        max_rate = self.base_rate * self.burst_factor * (
            1 + max(0, len(self.burst_times) - 1) * 0.5)
        t = self.start
        while True:
            t += float(self.rng.exponential(1.0 / max_rate))
            if t >= horizon:
                return
            if self.rng.random() <= self.rate_at(t) / max_rate:
                yield t

    def is_flashcrowd_at(self, t: float, threshold: float = 5.0) -> bool:
        """Flashcrowd detector: instantaneous rate above threshold×base."""
        return self.rate_at(t) >= threshold * self.base_rate
