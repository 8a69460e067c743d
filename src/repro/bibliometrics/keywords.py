"""Figure 1: presence of selected keywords in top systems venues."""

from __future__ import annotations

from typing import Sequence

from repro.bibliometrics.corpus import Paper


def keyword_presence(papers: Sequence[Paper],
                     by: str = "venue") -> dict[str, dict[str, float]]:
    """Fraction of papers mentioning each keyword any paper carries,
    grouped by venue or by decade (``by`` in {"venue", "decade"}).

    Returns ``{group: {keyword: fraction}}`` — the Figure 1 matrix.
    """
    if not papers:
        raise ValueError("empty corpus")
    if by not in ("venue", "decade"):
        raise ValueError("by must be 'venue' or 'decade'")
    keywords = sorted({k for p in papers for k in p.keywords})

    def group_of(paper: Paper) -> str:
        if by == "venue":
            return paper.venue
        return f"{paper.year // 10 * 10}s"

    counts: dict[str, int] = {}
    hits: dict[str, dict[str, int]] = {}
    for paper in papers:
        group = group_of(paper)
        counts[group] = counts.get(group, 0) + 1
        row = hits.setdefault(group, {k: 0 for k in keywords})
        for keyword in keywords:
            if keyword in paper.keywords:
                row[keyword] += 1
    return {
        group: {k: hits[group][k] / counts[group] for k in keywords}
        for group in sorted(counts)
    }


def design_rank_among_keywords(presence: dict[str, dict[str, float]]
                               ) -> dict[str, int]:
    """Per group, the rank of 'design' among all keywords (1 = most
    frequent) — Figure 1's claim that design is a common keyword."""
    ranks = {}
    for group, row in presence.items():
        ordered = sorted(row, key=lambda k: (-row[k], k))
        ranks[group] = ordered.index("design") + 1
    return ranks
