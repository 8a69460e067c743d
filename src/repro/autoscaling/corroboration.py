"""Independent corroboration of experiment results ([128], [130]).

§6.7: "We found interesting discrepancies between the real-world software
of the initial in vitro experiments and the software of the simulator,
which we have developed independently; these discrepancies have allowed
us to correct in time the real-world results, and emphasize the need for
*independent corroboration* in the community."

The in-silico analog implemented here: run the same autoscaling
experiment through independently-parameterized evaluations (different
time discretizations of the same ground truth) and flag every metric
whose values disagree beyond a tolerance — exactly the signal that sent
the paper's authors back to their real-world results.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

from repro.autoscaling.autoscalers import Autoscaler
from repro.autoscaling.experiment import (
    ExperimentConfig,
    run_autoscaling_experiment,
)
from repro.autoscaling.metrics import ELASTICITY_METRIC_NAMES


@dataclass
class CorroborationReport:
    """Per-metric agreement between independent evaluations."""

    autoscaler: str
    step_sizes: tuple[float, ...]
    values: dict[str, tuple[float, ...]]
    tolerance: float

    def discrepancy(self, metric: str) -> float:
        """Max relative spread of a metric across evaluations."""
        vals = self.values[metric]
        lo, hi = min(vals), max(vals)
        scale = max(abs(hi), abs(lo), 1e-9)
        return (hi - lo) / scale

    @property
    def disagreeing_metrics(self) -> list[str]:
        return sorted(m for m in self.values
                      if self.discrepancy(m) > self.tolerance)

    @property
    def corroborated(self) -> bool:
        return not self.disagreeing_metrics


def corroborate(workflows, autoscaler_factory,
                step_sizes: Sequence[float] = (15.0, 30.0, 60.0),
                tolerance: float = 0.25,
                metrics: Sequence[str] = ELASTICITY_METRIC_NAMES
                ) -> CorroborationReport:
    """Run the experiment once per step size; compare the metrics.

    ``autoscaler_factory()`` must return a *fresh* autoscaler per run
    (stateful autoscalers must not leak learning between evaluations).
    The provisioning delay is held at 60 s of wall-clock time so the
    evaluations model the same system.

    Metrics tied to the discretization itself (per-step counts like
    jitter/instability, and raw volumes that scale with step count) are
    excluded by default via ``metrics`` when callers pass the robust
    subset; the full set is compared otherwise.
    """
    if len(step_sizes) < 2:
        raise ValueError("corroboration needs at least two evaluations")
    values: dict[str, list[float]] = {m: [] for m in metrics}
    name = None
    for step in step_sizes:
        delay_steps = max(1, round(60.0 / step))
        config = ExperimentConfig(step_s=step,
                                  provisioning_delay_steps=delay_steps)
        autoscaler = autoscaler_factory()
        if not isinstance(autoscaler, Autoscaler):
            raise TypeError("autoscaler_factory must return an Autoscaler")
        name = autoscaler.name
        result = run_autoscaling_experiment(copy.deepcopy(workflows),
                                            autoscaler, config)
        for metric in metrics:
            values[metric].append(result.metrics[metric])
    return CorroborationReport(
        autoscaler=name,
        step_sizes=tuple(step_sizes),
        values={m: tuple(v) for m, v in values.items()},
        tolerance=tolerance,
    )


#: Metrics whose definition is discretization-independent (normalized
#: accuracies and time shares), suitable for cross-evaluation comparison.
ROBUST_METRICS: tuple[str, ...] = (
    "accuracy_under", "accuracy_over", "timeshare_under",
    "timeshare_over", "avg_supply", "avg_utilization",
)
