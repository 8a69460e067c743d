"""Grade10: performance models fitted from benchmark runs ([108]).

The Graphalytics ecosystem's question: "How to use the deep results to
obtain model systems, without (much) effort?" Grade10's answer: fit a
per-platform performance model from the observed phase breakdowns, then
*predict* unseen (algorithm, dataset) cells and attribute bottlenecks
without re-running.

The model mirrors the platform cost structure (setup + load×edges +
compute×edge-visits + barrier×iterations) but its coefficients are
*learned* by least squares from :class:`PlatformRun` observations —
so it works for platforms whose true cost model is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphalytics.platforms import PlatformRun


@dataclass
class FittedPlatformModel:
    """Learned cost coefficients of one platform."""

    platform: str
    setup_s: float
    load_per_edge_s: float
    compute_per_edge_visit_s: float
    per_iteration_s: float
    #: Mean relative error on the training runs.
    training_error: float

    def predict(self, n_edges: float, edges_visited: float,
                iterations: float) -> float:
        return (self.setup_s
                + self.load_per_edge_s * n_edges
                + self.compute_per_edge_visit_s * edges_visited
                + self.per_iteration_s * iterations)


@dataclass(frozen=True)
class Observation:
    """One training observation: features plus measured time."""

    platform: str
    n_edges: float
    edges_visited: float
    iterations: float
    time_s: float


def observations_from_runs(runs: Sequence[PlatformRun],
                           work_scale: float = 300.0) -> list[Observation]:
    """Extract training observations from benchmark runs."""
    obs = []
    for run in runs:
        if run.failed:
            continue
        # The load phase divided by its (unknown) coefficient is not
        # recoverable; use the kernel's own work accounting, which any
        # Granula-instrumented run exposes.
        obs.append(Observation(
            platform=run.platform,
            n_edges=run.result.edges_visited / max(run.result.iterations,
                                                   1) * work_scale,
            edges_visited=run.result.edges_visited * work_scale,
            iterations=float(run.result.iterations),
            time_s=run.modeled_time_s,
        ))
    return obs


def fit_platform_model(observations: Sequence[Observation],
                       platform: str) -> FittedPlatformModel:
    """Non-negative least-squares fit of the four-term cost model."""
    rows = [o for o in observations if o.platform == platform]
    if len(rows) < 4:
        raise ValueError(
            f"need at least 4 observations for {platform!r}, got "
            f"{len(rows)}")
    X = np.array([[1.0, o.n_edges, o.edges_visited, o.iterations]
                  for o in rows])
    y = np.array([o.time_s for o in rows])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    coef = np.maximum(coef, 0.0)  # cost coefficients are non-negative
    model = FittedPlatformModel(
        platform=platform,
        setup_s=float(coef[0]),
        load_per_edge_s=float(coef[1]),
        compute_per_edge_visit_s=float(coef[2]),
        per_iteration_s=float(coef[3]),
        training_error=0.0,
    )
    predictions = X @ coef
    rel_err = np.abs(predictions - y) / np.maximum(y, 1e-9)
    return FittedPlatformModel(
        platform=platform, setup_s=model.setup_s,
        load_per_edge_s=model.load_per_edge_s,
        compute_per_edge_visit_s=model.compute_per_edge_visit_s,
        per_iteration_s=model.per_iteration_s,
        training_error=float(rel_err.mean()),
    )


def cross_validate(observations: Sequence[Observation], platform: str
                   ) -> float:
    """Leave-one-out mean relative prediction error — how well the
    fitted model generalizes to unseen (A, D) cells."""
    rows = [o for o in observations if o.platform == platform]
    if len(rows) < 5:
        raise ValueError("need at least 5 observations to cross-validate")
    errors = []
    for held_out in range(len(rows)):
        train = [o for i, o in enumerate(rows) if i != held_out]
        model = fit_platform_model(train, platform)
        target = rows[held_out]
        predicted = model.predict(target.n_edges, target.edges_visited,
                                  target.iterations)
        errors.append(abs(predicted - target.time_s)
                      / max(target.time_s, 1e-9))
    return float(np.mean(errors))
