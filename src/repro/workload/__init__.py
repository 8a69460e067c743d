"""Workload models: tasks, bags-of-tasks, workflows, and arrival processes.

The paper's scheduling and autoscaling experiments span bag-of-task (BoT)
and workflow workloads from many domains (Table 9). This package provides
those models, the arrival processes that drive them (including flashcrowds,
§6.1), and the Trace Archive format (§3.6's FAIR/FOAD dissemination, the
P2P Trace Archive / Game Trace Archive analog).
"""

from repro.workload.task import (
    BagOfTasks,
    MapReduceJob,
    Task,
    TaskState,
    Workflow,
)
from repro.workload.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashcrowdArrivals,
    PoissonArrivals,
)
from repro.workload.generators import (
    WorkloadSpec,
    WORKLOAD_DOMAINS,
    generate_domain_workload,
    generate_workflow,
    generate_workflow_workload,
)
from repro.workload.trace import TraceArchive, TraceRecord

__all__ = [
    "ArrivalProcess",
    "BagOfTasks",
    "DiurnalArrivals",
    "FlashcrowdArrivals",
    "MapReduceJob",
    "PoissonArrivals",
    "Task",
    "TaskState",
    "TraceArchive",
    "TraceRecord",
    "Workflow",
    "WorkloadSpec",
    "WORKLOAD_DOMAINS",
    "generate_domain_workload",
    "generate_workflow",
    "generate_workflow_workload",
]
