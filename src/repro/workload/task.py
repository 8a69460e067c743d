"""Tasks, bags-of-tasks, workflows (DAGs), and MapReduce jobs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count
from typing import Container, Iterable, Optional

import networkx as nx

_task_ids = count()


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(eq=False)
class Task:
    """One schedulable unit of computation.

    ``work`` is in normalized work units; a machine of speed ``s`` runs it
    in ``work / s`` seconds.

    Tasks compare (and hash) by identity: each object is one unit of work
    with its own id, so ``queue.remove(task)`` and ``task in queue`` are
    identity checks, never field-by-field compares.
    """

    work: float
    cores: int = 1
    memory_gb: float = 1.0
    submit_time: float = 0.0
    task_id: int = field(default_factory=lambda: next(_task_ids))
    job_id: Optional[int] = None
    user: str = "default"
    state: TaskState = TaskState.PENDING
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: Estimated runtime available to predictive schedulers; may be wrong.
    runtime_estimate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise ValueError("task work must be positive")
        if self.cores <= 0:
            raise ValueError("task cores must be positive")

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def runtime(self) -> Optional[float]:
        if self.finish_time is None or self.start_time is None:
            return None
        return self.finish_time - self.start_time


_job_ids = count()


@dataclass
class BagOfTasks:
    """A bag of independent tasks submitted together (BoT workloads)."""

    tasks: list[Task]
    submit_time: float = 0.0
    job_id: int = field(default_factory=lambda: next(_job_ids))
    user: str = "default"

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a bag of tasks needs at least one task")
        for task in self.tasks:
            task.job_id = self.job_id
            task.submit_time = self.submit_time
            task.user = self.user

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def total_work(self) -> float:
        return sum(t.work for t in self.tasks)

    @property
    def done(self) -> bool:
        return all(t.state is TaskState.DONE for t in self.tasks)

    @property
    def makespan(self) -> Optional[float]:
        if not self.done:
            return None
        return max(t.finish_time for t in self.tasks) - self.submit_time


class Workflow:
    """A DAG of tasks with precedence constraints.

    Built on :mod:`networkx`; node payloads are :class:`Task` objects.
    """

    def __init__(self, tasks: Iterable[Task],
                 edges: Iterable[tuple[int, int]],
                 submit_time: float = 0.0,
                 name: str = "wf"):
        self.name = name
        self.submit_time = submit_time
        self.job_id = next(_job_ids)
        self.graph = nx.DiGraph()
        self._tasks: dict[int, Task] = {}
        for task in tasks:
            task.job_id = self.job_id
            task.submit_time = submit_time
            self.graph.add_node(task.task_id)
            self._tasks[task.task_id] = task
        #: Each task id's place in the workflow's task order.
        self._position = {task_id: i for i, task_id in enumerate(self._tasks)}
        for src, dst in edges:
            if src not in self._tasks or dst not in self._tasks:
                raise ValueError(f"edge ({src}, {dst}) references unknown task")
            self.graph.add_edge(src, dst)
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValueError(f"workflow {name}: precedence graph has a cycle")

    def __len__(self) -> int:
        return len(self._tasks)

    def __repr__(self) -> str:
        return (f"<Workflow {self.name}: {len(self)} tasks, "
                f"{self.graph.number_of_edges()} edges>")

    @property
    def tasks(self) -> list[Task]:
        return list(self._tasks.values())

    def predecessors(self, task: Task) -> list[Task]:
        return [self._tasks[t] for t in self.graph.predecessors(task.task_id)]

    def ready_tasks(self) -> list[Task]:
        """Pending tasks whose predecessors have all finished."""
        ready = []
        for task in self._tasks.values():
            if task.state is not TaskState.PENDING:
                continue
            if all(p.state is TaskState.DONE for p in self.predecessors(task)):
                ready.append(task)
        return ready

    def unlocked_by(self, task: Task, done: Container[int]) -> list[Task]:
        """Successors of ``task`` whose predecessors' ids are all in
        ``done``, in the workflow's task order.

        A scheduler passes the ids of the completions it has booked, so
        only those unlock work; :meth:`ready_tasks` reads the tasks'
        own states instead.
        """
        graph = self.graph
        successors = sorted(graph.successors(task.task_id),
                            key=self._position.__getitem__)
        return [self._tasks[s] for s in successors
                if all(p in done for p in graph.predecessors(s))]

    @property
    def done(self) -> bool:
        return all(t.state is TaskState.DONE for t in self._tasks.values())

    @property
    def makespan(self) -> Optional[float]:
        if not self.done:
            return None
        return max(t.finish_time for t in self._tasks.values()) - self.submit_time

    def critical_path_work(self) -> float:
        """Total work along the heaviest path (a makespan lower bound)."""
        best: dict[int, float] = {}
        for node in nx.topological_sort(self.graph):
            work = self._tasks[node].work
            preds = list(self.graph.predecessors(node))
            best[node] = work + (max(best[p] for p in preds) if preds else 0.0)
        return max(best.values()) if best else 0.0


class MapReduceJob(Workflow):
    """A two-phase MapReduce job as a workflow: maps then reduces.

    Every reduce depends on every map (the shuffle barrier).
    """

    def __init__(self, n_maps: int, n_reduces: int,
                 map_work: float = 10.0, reduce_work: float = 20.0,
                 submit_time: float = 0.0, name: str = "mr"):
        if n_maps <= 0 or n_reduces <= 0:
            raise ValueError("need at least one map and one reduce task")
        maps = [Task(work=map_work) for _ in range(n_maps)]
        reduces = [Task(work=reduce_work) for _ in range(n_reduces)]
        edges = [(m.task_id, r.task_id) for m in maps for r in reduces]
        super().__init__(maps + reduces, edges, submit_time=submit_time,
                         name=name)
        self.map_tasks = maps
        self.reduce_tasks = reduces
