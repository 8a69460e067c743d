"""Figure 3: review-score distributions at a top venue.

The real data is confidential; the generator is calibrated to the
distributional facts the paper reports:

- scores are integers 1–4 for three aspects: overall *merit*, approach
  *quality*, and *topic* fit;
- each paper has 3+ reviewers; the reported score per aspect is the mean;
- (finding 1) design articles have a slightly better merit distribution
  (higher median, mean, IQR);
- (finding 2) a significant share of design articles still scores well
  below 3 — professionals struggle to produce and self-assess designs;
- (Fig. 3 right) topic scores are high across the board — submissions
  match the Call for Papers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.monitor import summarize

ASPECTS = ("merit", "quality", "topic")


@dataclass(frozen=True)
class Review:
    merit: int
    quality: int
    topic: int

    def __post_init__(self):
        for aspect in ASPECTS:
            value = getattr(self, aspect)
            if not 1 <= value <= 4:
                raise ValueError(f"{aspect} score {value} outside 1..4")


@dataclass
class ReviewedPaper:
    paper_id: int
    is_design: bool
    reviews: list[Review]
    accepted: bool = False

    def score(self, aspect: str) -> float:
        if aspect not in ASPECTS:
            raise KeyError(f"unknown aspect {aspect!r}")
        return float(np.mean([getattr(r, aspect) for r in self.reviews]))


def _sample_score(rng: np.random.Generator, mean: float) -> int:
    raw = rng.normal(mean, 0.8)
    return int(np.clip(round(raw), 1, 4))


def generate_review_corpus(rng: np.random.Generator,
                           n_papers: int = 500) -> list[ReviewedPaper]:
    """The synthetic review corpus with the calibrated offsets: 35% design
    papers, 3 to 5 reviews each, the top 20% by merit accepted."""
    papers = []
    for pid in range(n_papers):
        is_design = bool(rng.random() < 0.35)
        # Calibration: design papers get a small merit/quality bump;
        # everyone matches the topic well.
        merit_mean = 2.35 if is_design else 2.2
        quality_mean = 2.3 if is_design else 2.2
        topic_mean = 3.3
        # Paper-level latent quality shifts all its reviews together.
        latent = float(rng.normal(0.0, 0.45))
        n_reviews = int(rng.integers(3, 5 + 1))
        reviews = [
            Review(
                merit=_sample_score(rng, merit_mean + latent),
                quality=_sample_score(rng, quality_mean + latent),
                topic=_sample_score(rng, topic_mean + latent * 0.3),
            )
            for _ in range(n_reviews)
        ]
        papers.append(ReviewedPaper(paper_id=pid, is_design=is_design,
                                    reviews=reviews))
    # Accept the top papers by merit (a top-tier venue's selectivity).
    ranked = sorted(papers, key=lambda p: -p.score("merit"))
    for paper in ranked[: int(round(0.2 * n_papers))]:
        paper.accepted = True
    return papers


def review_score_distributions(papers: Sequence[ReviewedPaper]
                               ) -> dict[str, dict[str, dict[str, float]]]:
    """The Figure 3 statistics: per aspect, per group (design /
    non-design / accepted / rejected), the violin summary (mean, median,
    IQR, whiskers)."""
    if not papers:
        raise ValueError("no papers")
    groups = {
        "design": [p for p in papers if p.is_design],
        "non-design": [p for p in papers if not p.is_design],
        "accepted": [p for p in papers if p.accepted],
        "rejected": [p for p in papers if not p.accepted],
    }
    result: dict[str, dict[str, dict[str, float]]] = {}
    for aspect in ASPECTS:
        result[aspect] = {
            group: summarize([p.score(aspect) for p in members])
            for group, members in groups.items() if members
        }
    return result


def score_findings(papers: Sequence[ReviewedPaper]) -> dict[str, object]:
    """Extract the paper's two numbered findings from a corpus.

    Finding 1: design articles have a slightly better merit distribution
    (median and mean). Finding 2: a significant percentage of design
    articles score well below 3 on merit or quality.
    """
    dists = review_score_distributions(papers)
    design_merit = dists["merit"].get("design", {})
    plain_merit = dists["merit"].get("non-design", {})
    design = [p for p in papers if p.is_design]
    below3 = [
        p for p in design
        if p.score("merit") < 2.75 or p.score("quality") < 2.75
    ]
    return {
        "finding1_design_merit_better": (
            design_merit.get("mean", 0) >= plain_merit.get("mean", 0)
            and design_merit.get("median", 0) >= plain_merit.get("median", 0)
        ),
        "design_merit_mean": design_merit.get("mean", float("nan")),
        "non_design_merit_mean": plain_merit.get("mean", float("nan")),
        "finding2_share_below_3": len(below3) / len(design) if design
        else float("nan"),
        "topic_scores_high": all(
            stats["median"] >= 3.0
            for stats in dists["topic"].values()),
    }
