"""Failure injection: machines fail and recover over simulated time.

Availability is one of the paper's first-class non-functional requirements
(P3); experiments use this injector to test designs under churn. The
machinery is the generic :class:`repro.faults.models.CrashRestart` model
specialized to :class:`~repro.cluster.machine.Machine` targets: a crash
wipes the machine's allocations *at failure time* (bumping its incarnation
so in-flight releases are recognized as stale), and repair simply returns
it to service.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.faults.models import CrashRestart
from repro.sim import Environment, Monitor


class FailureInjector(CrashRestart):
    """Fails and repairs machines of a cluster with exponential holding times.

    Parameters
    ----------
    mtbf_s:
        Mean time between failures per machine.
    mttr_s:
        Mean time to repair.
    on_failure:
        Optional callback invoked as ``on_failure(machine)`` when a machine
        goes down — schedulers use it to requeue the victim's tasks.
    """

    def __init__(self, env: Environment, cluster: Cluster,
                 rng: np.random.Generator,
                 mtbf_s: float = 24 * 3600.0, mttr_s: float = 600.0,
                 on_failure: Optional[Callable[[Machine], None]] = None,
                 monitor: Optional[Monitor] = None):
        self.cluster = cluster
        super().__init__(
            env, cluster.machines, rng, mtbf_s=mtbf_s, mttr_s=mttr_s,
            on_fail=on_failure, monitor=monitor, name="machine")

    def fail_now(self, machine: Machine) -> None:
        super().fail_now(machine)
        self.monitor.record("up_machines", len(self.cluster.up_machines()))

    def repair_now(self, machine: Machine) -> None:
        super().repair_now(machine)
        self.monitor.record("up_machines", len(self.cluster.up_machines()))

