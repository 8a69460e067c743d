"""A calibrated synthetic publication corpus.

Calibration targets (from the paper's Figures 1–2 narrative):

- "design" is a common keyword in top systems venues, with a share that
  grows over the decades;
- design-article counts per 5-year block increase, with "a marked
  increase in design articles accepted for publication since 2000";
- some venues started after 1980 (censored early blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Venue:
    name: str
    first_year: int
    #: Mean accepted papers per year (grows mildly over time).
    base_papers_per_year: int


#: Stylized top systems venues (start years approximate reality).
VENUES: dict[str, Venue] = {v.name: v for v in [
    Venue("ICDCS", 1979, 60),
    Venue("SOSP", 1980, 20),          # biennial in reality; simplified
    Venue("OSDI", 1994, 22),
    Venue("NSDI", 2004, 30),
    Venue("EuroSys", 2006, 30),
    Venue("HPDC", 1992, 25),
    Venue("CCGrid", 2001, 45),
    Venue("SC", 1988, 60),
]}

#: Keyword inventory with era-dependent base frequencies.
KEYWORDS: dict[str, tuple[float, float]] = {
    # keyword: (frequency in 1980, frequency in 2018) — linear in between.
    "design": (0.10, 0.38),
    "performance": (0.30, 0.45),
    "distributed": (0.25, 0.50),
    "scalability": (0.02, 0.30),
    "scheduling": (0.10, 0.18),
    "cloud": (0.00, 0.35),
    "fault-tolerance": (0.08, 0.12),
    "energy": (0.01, 0.10),
}


@dataclass
class Paper:
    venue: str
    year: int
    keywords: frozenset[str]
    is_design: bool


def design_share(year: int) -> float:
    """Calibrated share of design articles: slow growth until 2000, then
    a marked increase (a logistic ramp centered on 2003)."""
    base = 0.08 + 0.002 * max(year - 1980, 0)
    ramp = 0.25 / (1.0 + math.exp(-(year - 2003) / 3.0))
    return min(base + ramp, 0.6)


def _keyword_frequency(keyword: str, year: int) -> float:
    f0, f1 = KEYWORDS[keyword]
    alpha = (year - 1980) / (2018 - 1980)
    return f0 + (f1 - f0) * max(0.0, min(alpha, 1.0))


def generate_corpus(rng: np.random.Generator,
                    first_year: int = 1980,
                    last_year: int = 2018) -> list[Paper]:
    """The synthetic corpus: venue × year × papers."""
    if last_year < first_year:
        raise ValueError("last_year must be >= first_year")
    venue_objs = [VENUES[name] for name in sorted(VENUES)]
    papers: list[Paper] = []
    for venue in venue_objs:
        for year in range(max(first_year, venue.first_year), last_year + 1):
            growth = 1.0 + 0.02 * (year - venue.first_year)
            n_papers = max(1, int(rng.poisson(
                venue.base_papers_per_year * growth)))
            share = design_share(year)
            for _ in range(n_papers):
                is_design = bool(rng.random() < share)
                kws = set()
                for keyword in KEYWORDS:
                    freq = _keyword_frequency(keyword, year)
                    if keyword == "design":
                        # Design papers carry the keyword far more often.
                        freq = 0.9 if is_design else freq * 0.4
                    if rng.random() < freq:
                        kws.add(keyword)
                papers.append(Paper(venue=venue.name, year=year,
                                    keywords=frozenset(kws),
                                    is_design=is_design))
    return papers
