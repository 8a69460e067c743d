"""Cost models for cloud resources.

Reproduces the cost-analysis dimension of the autoscaling experiments
(§6.7: "an analysis of cost metrics based on several real-world cost
models"). The autoscaling experiment prices its resource-seconds under
continuous and hourly billing from one :class:`CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Pricing for one instance type.

    Parameters
    ----------
    name:
        Human-readable scheme name.
    price_per_hour:
        Price of one instance-hour.
    """

    name: str
    price_per_hour: float


#: Classic on-demand pricing (the model most of the paper's era used;
#: e.g., EC2 m3-class instances).
ON_DEMAND_PRICING = CostModel(name="on-demand-hourly", price_per_hour=0.28)
