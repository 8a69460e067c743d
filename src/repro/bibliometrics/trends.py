"""Figure 2: design-article counts per venue per 5-year block since 1980."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.bibliometrics.corpus import VENUES, Paper


@dataclass(frozen=True)
class FiveYearBlock:
    start: int

    @property
    def label(self) -> str:
        return f"{self.start}-{self.start + 4}"

    def contains(self, year: int) -> bool:
        return self.start <= year <= self.start + 4


def blocks_since(first_year: int = 1980,
                 last_year: int = 2018) -> list[FiveYearBlock]:
    return [FiveYearBlock(start)
            for start in range(first_year, last_year + 1, 5)]


def design_articles_per_block(papers: Sequence[Paper]
                              ) -> dict[str, dict[str, Optional[int]]]:
    """The Figure 2 matrix, 1980 to 2018: ``{venue: {block_label:
    count-or-None}}``.

    ``None`` marks censored blocks — blocks fully before the venue
    existed ("some of the venues have started earlier, so for them only
    censured data is available"). The last block is typically incomplete
    (it simply counts what exists, as the figure notes).
    """
    if not papers:
        raise ValueError("empty corpus")
    blocks = blocks_since()
    venues = sorted({p.venue for p in papers})
    table: dict[str, dict[str, Optional[int]]] = {}
    for venue in venues:
        venue_first = VENUES[venue].first_year if venue in VENUES else (
            min(p.year for p in papers if p.venue == venue))
        row: dict[str, Optional[int]] = {}
        for block in blocks:
            if block.start + 4 < venue_first:
                row[block.label] = None  # censored: venue did not exist
                continue
            row[block.label] = sum(
                1 for p in papers
                if p.venue == venue and p.is_design
                and block.contains(p.year))
        table[venue] = row
    return table


def trend_is_increasing(row: dict[str, Optional[int]]) -> bool:
    """Whether a venue shows the accumulating-design-articles trend:
    the mean of the later half of (non-censored, complete) blocks exceeds
    the mean of the earlier half, over at least four blocks."""
    counts = [v for v in row.values() if v is not None]
    if len(counts) < 4:
        return False
    # Drop the final (incomplete) block from the comparison.
    counts = counts[:-1]
    half = len(counts) // 2
    if half == 0:
        return False
    early = sum(counts[:half]) / half
    late = sum(counts[half:]) / (len(counts) - half)
    return late > early


def marked_increase_since(papers: Sequence[Paper],
                          pivot_year: int = 2000) -> float:
    """Ratio of yearly design-article volume after vs. before the pivot —
    the 'marked increase ... since 2000' observation."""
    before_years = {p.year for p in papers if p.year < pivot_year}
    after_years = {p.year for p in papers if p.year >= pivot_year}
    if not before_years or not after_years:
        raise ValueError("corpus must span the pivot year")
    before = sum(1 for p in papers if p.is_design and p.year < pivot_year)
    after = sum(1 for p in papers if p.is_design and p.year >= pivot_year)
    return (after / len(after_years)) / max(before / len(before_years),
                                            1e-9)
