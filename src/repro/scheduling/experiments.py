"""The Table 9 grid: portfolio scheduling across workloads × environments.

Each cell regenerates one row's *finding*: is portfolio scheduling (PS)
useful — i.e., does it track the per-workload best static policy without
knowing it in advance? Environments follow Table 9's acronyms: CL (own
cluster), CD (public cloud), G+CD (grid plus cloud), MCD (multi-cluster),
GDC (geo-distributed datacenters) — realized as clusters of different
size, speed mix, and heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.scheduling.policies import make_policy
from repro.scheduling.portfolio import (
    PortfolioConfig,
    PortfolioScheduler,
    PortfolioStats,
)
from repro.scheduling.simulator import (
    ClusterSimulator,
    ScheduleMetrics,
)
from repro.sim import Environment, RandomStreams
from repro.workload.generators import generate_domain_workload


def _cluster_cl() -> Cluster:
    return Cluster.homogeneous("cl", 16, cores=8, speed=1.0)


def _cluster_cd() -> Cluster:
    return Cluster.homogeneous("cd", 48, cores=4, speed=0.9)


def _cluster_grid_cloud() -> Cluster:
    machines = [Machine(f"grid-{i}", cores=8, speed=0.7)
                for i in range(12)]
    machines += [Machine(f"cloud-{i}", cores=4, speed=1.1)
                 for i in range(24)]
    return Cluster("g+cd", machines)


def _cluster_mcd() -> Cluster:
    machines = []
    for c, speed in enumerate([1.0, 0.8, 1.2, 0.9]):
        machines += [Machine(f"c{c}-m{i}", cores=8, speed=speed)
                     for i in range(6)]
    return Cluster("mcd", machines)


def _cluster_gdc() -> Cluster:
    machines = []
    for site, speed in [("ams", 1.0), ("nyc", 1.0), ("sgp", 0.6)]:
        machines += [Machine(f"{site}-m{i}", cores=8, speed=speed)
                     for i in range(8)]
    return Cluster("gdc", machines)


#: The policies a Table 9 portfolio selects among.
TABLE9_POLICIES = ("fcfs", "sjf", "ljf", "backfill", "fair-share")

ENVIRONMENTS: dict[str, Callable[[], Cluster]] = {
    "CL": _cluster_cl,
    "CD": _cluster_cd,
    "G+CD": _cluster_grid_cloud,
    "MCD": _cluster_mcd,
    "GDC": _cluster_gdc,
}

#: The Table 9 rows: (workload domain, environment).
TABLE9_ROWS: list[tuple[str, str]] = [
    ("synthetic", "CL"),
    ("scientific", "G+CD"),
    ("gaming", "CL"),
    ("computer-engineering", "GDC"),
    ("business-critical", "MCD"),
    ("industrial", "CD"),
    ("bigdata", "CL"),
]


@dataclass
class GridCell:
    """Results of one Table 9 cell."""

    workload: str
    environment: str
    static_results: dict[str, float]  # policy -> mean bounded slowdown
    portfolio_result: float
    portfolio_stats: PortfolioStats

    @property
    def best_static(self) -> tuple[str, float]:
        name = min(self.static_results,
                   key=lambda k: (self.static_results[k], k))
        return name, self.static_results[name]

    @property
    def worst_static(self) -> tuple[str, float]:
        name = max(self.static_results,
                   key=lambda k: (self.static_results[k], k))
        return name, self.static_results[name]

    def ps_is_useful(self, tolerance: float = 0.25) -> bool:
        """The paper's per-row finding: PS tracks the best static policy
        (within ``tolerance``) without knowing the workload in advance."""
        _, best = self.best_static
        return self.portfolio_result <= best * (1 + tolerance) + 1e-9

    def ps_regret(self) -> float:
        """Portfolio objective over best-static objective (1.0 = perfect)."""
        _, best = self.best_static
        return self.portfolio_result / best if best else float("inf")


def rescale_to_load(jobs, cluster: Cluster, target_load: float = 2.5):
    """Rescale job submit times so the offered load over the submission
    window hits ``target_load`` of the cluster's effective capacity.

    Different Table 9 domains offer wildly different loads; the paper's
    studies tune each experiment to a contended-but-feasible regime (a
    scheduler is only interesting when queues form).
    """
    if not jobs:
        return jobs
    if target_load <= 0:
        raise ValueError("target_load must be positive")
    capacity = sum(m.cores * m.speed for m in cluster.machines)
    total_work = sum(t.work * t.cores for j in jobs for t in j.tasks)
    first = min(j.submit_time for j in jobs)
    old_window = max(j.submit_time for j in jobs) - first
    new_window = total_work / (target_load * capacity)
    scale = new_window / old_window if old_window > 0 else 1.0
    for job in jobs:
        new_submit = first + (job.submit_time - first) * scale
        job.submit_time = new_submit
        for task in job.tasks:
            task.submit_time = new_submit
    return jobs


def _fresh_jobs(domain: str, seed: int, n_jobs: int,
                cluster: Optional[Cluster] = None):
    rng = RandomStreams(seed).get(f"wl:{domain}")
    jobs = generate_domain_workload(rng, domain, n_jobs=n_jobs,
                                    horizon_s=90 * 86400)
    if cluster is not None:
        rescale_to_load(jobs, cluster)
    return jobs


def run_static(domain: str, environment: str, policy_name: str,
               seed: int = 0, n_jobs: int = 30) -> ScheduleMetrics:
    """One static-policy run on a fresh copy of the cell's workload."""
    cluster = ENVIRONMENTS[environment]()
    jobs = _fresh_jobs(domain, seed, n_jobs, cluster)
    env = Environment()
    policy = make_policy(policy_name)
    sim = ClusterSimulator(env, cluster, policy)
    sim.submit_jobs(jobs)
    env.run()
    return sim.metrics()


def run_portfolio(domain: str, environment: str,
                  policy_names: Sequence[str] = TABLE9_POLICIES,
                  seed: int = 0, n_jobs: int = 30,
                  config: Optional[PortfolioConfig] = None
                  ) -> tuple[ScheduleMetrics, PortfolioStats]:
    """One portfolio run on a fresh copy of the cell's workload."""
    cluster = ENVIRONMENTS[environment]()
    jobs = _fresh_jobs(domain, seed, n_jobs, cluster)
    env = Environment()
    policies = [make_policy(name) for name in policy_names]
    sim = ClusterSimulator(env, cluster, policies[0])
    portfolio = PortfolioScheduler(env, sim, policies, config)
    sim.submit_jobs(jobs)
    env.run()
    metrics = sim.metrics()
    metrics.policy = "portfolio"
    return metrics, portfolio.stats


def run_table9_cell(domain: str, environment: str, seed: int = 0,
                    n_jobs: int = 30) -> GridCell:
    """The portfolio of :data:`TABLE9_POLICIES` vs. each of them alone, on
    identical workload copies."""
    static = {}
    for name in TABLE9_POLICIES:
        static[name] = run_static(domain, environment, name, seed,
                                  n_jobs).objective()
    metrics, stats = run_portfolio(domain, environment, TABLE9_POLICIES,
                                   seed, n_jobs)
    return GridCell(workload=domain, environment=environment,
                    static_results=static,
                    portfolio_result=metrics.objective(),
                    portfolio_stats=stats)
