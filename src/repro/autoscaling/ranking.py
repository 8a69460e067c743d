"""Ranking and grading autoscalers ([126]'s two ranking methods and
[127]'s combined grade).

- :func:`pairwise_wins` — head-to-head: for every pair of autoscalers,
  count the metrics on which each wins; rank by total pairwise wins.
- :func:`fractional_scores` — per metric, score each autoscaler by
  best/value (value/best for higher-is-better), then average across
  metrics; robust to metric scale.
- :func:`grade_autoscalers` — the combined grade: a weighted blend of the
  fractional elasticity score, an SLA score, and a cost score.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.autoscaling.experiment import AutoscalingResult
from repro.autoscaling.metrics import (
    ELASTICITY_METRIC_NAMES,
    HIGHER_IS_BETTER,
    metric_is_better,
)


def pairwise_wins(results: Mapping[str, AutoscalingResult]) -> dict[str, int]:
    """Total head-to-head metric wins per autoscaler."""
    if len(results) < 2:
        raise ValueError("need at least two autoscalers to rank")
    names = sorted(results)
    wins = {name: 0 for name in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for metric in ELASTICITY_METRIC_NAMES:
                va = results[a].metrics[metric]
                vb = results[b].metrics[metric]
                if metric_is_better(metric, va, vb):
                    wins[a] += 1
                elif metric_is_better(metric, vb, va):
                    wins[b] += 1
    return wins


def fractional_scores(results: Mapping[str, AutoscalingResult]
                      ) -> dict[str, float]:
    """Mean of per-metric fractional scores in (0, 1], 1 = best on all."""
    if not results:
        raise ValueError("no results to score")
    names = sorted(results)
    scores = {name: [] for name in names}
    for metric in ELASTICITY_METRIC_NAMES:
        values = {n: results[n].metrics[metric] for n in names}
        if metric in HIGHER_IS_BETTER:
            best = max(values.values())
            for n in names:
                scores[n].append(values[n] / best if best > 0 else 1.0)
        else:
            best = min(values.values())
            for n in names:
                value = values[n]
                scores[n].append(best / value if value > 0 else 1.0)
    return {n: float(np.mean(s)) for n, s in scores.items()}


def grade_autoscalers(results: Mapping[str, AutoscalingResult],
                      elasticity_weight: float = 0.5,
                      sla_weight: float = 0.3,
                      cost_weight: float = 0.2) -> dict[str, float]:
    """Combined grade in [0, 1] (the [127] method: combine the scores
    judiciously — elasticity, SLA compliance, and cost)."""
    total = elasticity_weight + sla_weight + cost_weight
    if abs(total - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    if not results:
        raise ValueError("no results to grade")
    elasticity = fractional_scores(results)
    names = sorted(results)
    costs = {n: results[n].cost_continuous for n in names}
    best_cost = min(costs.values())
    grades = {}
    for n in names:
        sla_score = 1.0 - results[n].sla_violation_rate
        cost_score = best_cost / costs[n] if costs[n] > 0 else 1.0
        grades[n] = (elasticity_weight * elasticity[n]
                     + sla_weight * sla_score
                     + cost_weight * cost_score)
    return grades
