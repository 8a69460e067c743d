"""Domain workload generators for the Table 9 grid.

Table 9's portfolio-scheduling studies span workloads labelled Syn
(synthetic), Sci (scientific), Sci+Gam, CE (computer engineering), BC
(business-critical), Ind (industrial IoT analytics), and BD (big data).
Each domain gets a parameterized generator with the distributional
signature the corresponding study describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.arrivals import PoissonArrivals
from repro.workload.task import BagOfTasks, MapReduceJob, Task, Workflow


@dataclass(frozen=True)
class WorkloadSpec:
    """Distributional parameters of one workload domain."""

    name: str
    #: Mean tasks per bag (BoT size); 1 means single-task jobs.
    mean_bag_size: float
    #: Lognormal sigma of task work (heavier tail = more variable runtimes).
    work_sigma: float
    #: Mean work per task, in work units (seconds on a speed-1 machine).
    mean_work: float
    #: Probability a job is a workflow rather than a bag.
    workflow_fraction: float
    #: Mean arrival rate, jobs per second.
    arrival_rate: float
    #: Runtime-estimate error factor (1.0 = perfect estimates).
    estimate_error: float = 1.0


#: The seven workload domains of Table 9.
WORKLOAD_DOMAINS: dict[str, WorkloadSpec] = {
    # Synthetic: moderate, controlled variability [114].
    "synthetic": WorkloadSpec("synthetic", mean_bag_size=8, work_sigma=0.5,
                              mean_work=120.0, workflow_fraction=0.0,
                              arrival_rate=1 / 60.0),
    # Scientific: heavy-tailed runtimes, many workflows [115].
    "scientific": WorkloadSpec("scientific", mean_bag_size=20, work_sigma=1.2,
                               mean_work=600.0, workflow_fraction=0.4,
                               arrival_rate=1 / 120.0, estimate_error=2.0),
    # Gaming: short, latency-sensitive tasks in large bursts [116].
    "gaming": WorkloadSpec("gaming", mean_bag_size=4, work_sigma=0.4,
                           mean_work=15.0, workflow_fraction=0.0,
                           arrival_rate=1 / 5.0),
    # Computer-engineering (Intel compute farm style): huge bags of short
    # regression jobs [117].
    "computer-engineering": WorkloadSpec(
        "computer-engineering", mean_bag_size=60, work_sigma=0.8,
        mean_work=90.0, workflow_fraction=0.1, arrival_rate=1 / 300.0),
    # Business-critical: long-running, low-variability services [118].
    "business-critical": WorkloadSpec(
        "business-critical", mean_bag_size=2, work_sigma=0.3,
        mean_work=3600.0, workflow_fraction=0.1, arrival_rate=1 / 600.0),
    # Industrial IoT analytics: periodic workflows [119].
    "industrial": WorkloadSpec("industrial", mean_bag_size=6, work_sigma=0.6,
                               mean_work=240.0, workflow_fraction=0.7,
                               arrival_rate=1 / 180.0),
    # Big data: MapReduce-style jobs with hard-to-predict runtimes [120].
    "bigdata": WorkloadSpec("bigdata", mean_bag_size=30, work_sigma=1.5,
                            mean_work=300.0, workflow_fraction=1.0,
                            arrival_rate=1 / 240.0, estimate_error=4.0),
}


def _lognormal_work(rng: np.random.Generator, mean: float,
                    sigma: float) -> float:
    """Lognormal sample with the requested arithmetic mean."""
    mu = np.log(mean) - sigma**2 / 2
    return float(rng.lognormal(mu, sigma))


def generate_workflow(rng: np.random.Generator,
                      n_tasks: int = 20,
                      mean_work: float = 100.0,
                      work_sigma: float = 0.8,
                      shape: str = "random",
                      submit_time: float = 0.0,
                      name: str = "wf") -> Workflow:
    """One workflow DAG of a given shape.

    Shapes: ``chain`` (sequential), ``fork-join`` (one fan-out stage),
    ``random`` (layered random DAG — the common scientific-workflow shape).
    """
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    tasks = [
        Task(work=_lognormal_work(rng, mean_work, work_sigma))
        for _ in range(n_tasks)
    ]
    edges: list[tuple[int, int]] = []
    if shape == "chain":
        edges = [(tasks[i].task_id, tasks[i + 1].task_id)
                 for i in range(n_tasks - 1)]
    elif shape == "fork-join":
        if n_tasks >= 3:
            head, tail = tasks[0], tasks[-1]
            for middle in tasks[1:-1]:
                edges.append((head.task_id, middle.task_id))
                edges.append((middle.task_id, tail.task_id))
    elif shape == "random":
        # Layered DAG: assign each task a level, wire to 1-3 previous-level
        # tasks.
        n_levels = max(2, int(np.ceil(np.sqrt(n_tasks))))
        levels: list[list[Task]] = [[] for _ in range(n_levels)]
        for idx, task in enumerate(tasks):
            levels[min(idx * n_levels // n_tasks, n_levels - 1)].append(task)
        for lvl in range(1, n_levels):
            prev = levels[lvl - 1]
            if not prev:
                continue
            for task in levels[lvl]:
                n_parents = min(len(prev), int(rng.integers(1, 4)))
                parent_idx = rng.choice(len(prev), size=n_parents,
                                        replace=False)
                for p in parent_idx:
                    edges.append((prev[int(p)].task_id, task.task_id))
    else:
        raise ValueError(f"unknown workflow shape {shape!r}")
    for task in tasks:
        task.runtime_estimate = task.work
    return Workflow(tasks, edges, submit_time=submit_time, name=name)


def generate_workflow_workload(rng: np.random.Generator, n_workflows: int,
                               horizon_s: float = 86400.0) -> list[Workflow]:
    """A stream of scientific-domain workflows with Poisson arrivals."""
    spec = WORKLOAD_DOMAINS["scientific"]
    arrivals = PoissonArrivals(spec.arrival_rate, rng)
    workflows = []
    shapes = ["random", "chain", "fork-join"]
    for arrival in arrivals.times(horizon_s):
        if len(workflows) >= n_workflows:
            break
        n_tasks = max(2, int(rng.poisson(spec.mean_bag_size)))
        shape = shapes[int(rng.integers(0, len(shapes)))]
        workflows.append(generate_workflow(
            rng, n_tasks=n_tasks, mean_work=spec.mean_work,
            work_sigma=spec.work_sigma, shape=shape, submit_time=arrival,
            name=f"{spec.name}-wf{len(workflows)}"))
    return workflows


def generate_domain_workload(rng: np.random.Generator, domain: str,
                             n_jobs: int = 50,
                             horizon_s: float = 86400.0) -> list:
    """Mixed workload for a Table 9 domain: bags, workflows, MapReduce."""
    if domain not in WORKLOAD_DOMAINS:
        raise KeyError(
            f"unknown domain {domain!r}; known: {sorted(WORKLOAD_DOMAINS)}")
    spec = WORKLOAD_DOMAINS[domain]
    arrivals = PoissonArrivals(spec.arrival_rate, rng)
    jobs: list = []
    for arrival in arrivals.times(horizon_s):
        if len(jobs) >= n_jobs:
            break
        if rng.random() < spec.workflow_fraction:
            if domain == "bigdata":
                n_maps = max(1, int(rng.poisson(spec.mean_bag_size)))
                n_reduces = max(1, n_maps // 4)
                job = MapReduceJob(
                    n_maps, n_reduces,
                    map_work=_lognormal_work(rng, spec.mean_work / 4,
                                             spec.work_sigma),
                    reduce_work=_lognormal_work(rng, spec.mean_work,
                                                spec.work_sigma),
                    submit_time=arrival, name=f"mr{len(jobs)}")
                for task in job.tasks:
                    task.runtime_estimate = task.work * float(
                        rng.uniform(1.0, spec.estimate_error))
            else:
                job = generate_workflow(
                    rng, n_tasks=max(2, int(rng.poisson(spec.mean_bag_size))),
                    mean_work=spec.mean_work, work_sigma=spec.work_sigma,
                    submit_time=arrival, name=f"{domain}-wf{len(jobs)}")
        else:
            size = max(1, int(rng.poisson(spec.mean_bag_size)))
            tasks = []
            for _ in range(size):
                work = _lognormal_work(rng, spec.mean_work, spec.work_sigma)
                task = Task(work=work)
                task.runtime_estimate = work * float(
                    rng.uniform(1.0, spec.estimate_error))
                tasks.append(task)
            job = BagOfTasks(tasks, submit_time=arrival)
        jobs.append(job)
    return jobs
