"""Datacenter scheduling and portfolio scheduling (paper §6.6, Table 9).

- :mod:`repro.scheduling.policies` — the scheduling policies a portfolio
  selects among: FCFS, SJF, LJF, Fair-Share, and EASY-style
  backfilling;
- :mod:`repro.scheduling.simulator` — an event-driven cluster/job
  simulator executing bags-of-tasks and workflows under a policy, with
  the standard metrics (wait, response, bounded slowdown, utilization);
- :mod:`repro.scheduling.portfolio` — the portfolio scheduler: online
  simulation-based policy selection, the active-set limitation of [115],
  and the simulation-overhead accounting that motivated it;
- :mod:`repro.scheduling.experiments` — the Table 9 grid: workloads ×
  environments, portfolio vs. static policies.
"""

from repro.scheduling.policies import (
    POLICIES,
    BackfillPolicy,
    FairSharePolicy,
    FCFSPolicy,
    LJFPolicy,
    Policy,
    SJFPolicy,
)
from repro.scheduling.simulator import (
    ClusterSimulator,
    ScheduleMetrics,
    simulate_schedule,
)
from repro.scheduling.portfolio import (
    PortfolioScheduler,
    PortfolioConfig,
    PortfolioStats,
)
from repro.scheduling.learning import LearningPortfolioScheduler
from repro.scheduling.experiments import (
    ENVIRONMENTS,
    GridCell,
    run_table9_cell,
)

__all__ = [
    "BackfillPolicy",
    "ClusterSimulator",
    "ENVIRONMENTS",
    "FCFSPolicy",
    "FairSharePolicy",
    "GridCell",
    "LJFPolicy",
    "LearningPortfolioScheduler",
    "POLICIES",
    "Policy",
    "PortfolioConfig",
    "PortfolioScheduler",
    "PortfolioStats",
    "SJFPolicy",
    "ScheduleMetrics",
    "run_table9_cell",
    "simulate_schedule",
]
