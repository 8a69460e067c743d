"""Datacenter substrate: machines, clusters, failures, and cost.

The paper's Table 9 Env column (CL, CD, G+CD, MCD, GDC) is realized as
flat clusters of heterogeneous machines in
:data:`repro.scheduling.experiments.ENVIRONMENTS`; a :class:`Cluster` is
the one scheduling domain every experiment places work on.
"""

from repro.cluster.machine import Machine, MachineState
from repro.cluster.cluster import Cluster
from repro.cluster.cost import CostModel, ON_DEMAND_PRICING
from repro.cluster.failures import FailureInjector

__all__ = [
    "Cluster",
    "CostModel",
    "FailureInjector",
    "Machine",
    "MachineState",
    "ON_DEMAND_PRICING",
]
