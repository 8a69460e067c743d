"""Machines: the unit of computation in a cluster."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class MachineState(enum.Enum):
    """Operational state of a machine."""

    UP = "up"
    DOWN = "down"
    DRAINING = "draining"


@dataclass
class Machine:
    """A physical or virtual machine.

    Attributes
    ----------
    name:
        Unique identifier within its cluster.
    cores:
        Number of task slots.
    speed:
        Relative execution speed; a task with ``work`` units of work takes
        ``work / speed`` time on this machine.
    memory_gb:
        Memory size, used by memory-aware placement policies.
    """

    name: str
    cores: int = 1
    speed: float = 1.0
    memory_gb: float = 16.0
    state: MachineState = MachineState.UP
    #: Cores currently allocated to running tasks.
    used_cores: int = 0
    #: Memory currently allocated.
    used_memory_gb: float = 0.0
    #: Bookkeeping for utilization accounting.
    busy_time: float = 0.0
    #: Bumped on every crash; allocations from earlier incarnations are void.
    incarnation: int = 0
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"machine {self.name}: cores must be positive")
        if self.speed <= 0:
            raise ValueError(f"machine {self.name}: speed must be positive")

    @property
    def free_cores(self) -> int:
        if self.state is not MachineState.UP:
            return 0
        return self.cores - self.used_cores

    @property
    def free_memory_gb(self) -> float:
        if self.state is not MachineState.UP:
            return 0.0
        return self.memory_gb - self.used_memory_gb

    def can_fit(self, cores: int, memory_gb: float = 0.0) -> bool:
        """Whether a task needing ``cores`` and ``memory_gb`` fits right now."""
        return (self.state is MachineState.UP
                and self.free_cores >= cores
                and self.free_memory_gb >= memory_gb - 1e-9)

    def allocate(self, cores: int, memory_gb: float = 0.0) -> None:
        if not self.can_fit(cores, memory_gb):
            raise RuntimeError(
                f"machine {self.name}: cannot allocate {cores} cores / "
                f"{memory_gb} GB (free: {self.free_cores} cores / "
                f"{self.free_memory_gb} GB, state={self.state.value})")
        self.used_cores += cores
        self.used_memory_gb += memory_gb

    def release(self, cores: int, memory_gb: float = 0.0, *,
                incarnation: int) -> bool:
        """Return an allocation; True if it was actually accounted.

        ``incarnation`` is the one observed at :meth:`allocate` time: a
        crash (:meth:`fail`) wipes all allocations and bumps the
        incarnation, so a release for a task that died mid-crash is
        recognized as stale and ignored instead of double-freeing or
        driving the counters negative.
        """
        if incarnation != self.incarnation:
            return False  # stale: allocation already wiped by a crash
        if cores > self.used_cores:
            raise RuntimeError(
                f"machine {self.name}: releasing {cores} cores but only "
                f"{self.used_cores} allocated")
        self.used_cores -= cores
        self.used_memory_gb = max(0.0, self.used_memory_gb - memory_gb)
        return True

    # -- fail-stop life-cycle ----------------------------------------------
    def fail(self) -> None:
        """Crash: everything running here dies and its allocations vanish."""
        self.state = MachineState.DOWN
        self.used_cores = 0
        self.used_memory_gb = 0.0
        self.incarnation += 1

    def repair(self) -> None:
        """Return to service (allocations were already wiped at crash time)."""
        self.state = MachineState.UP

    @property
    def is_up(self) -> bool:
        return self.state is MachineState.UP

    def runtime_of(self, work: float) -> float:
        """Wall-clock time for ``work`` normalized work units."""
        return work / self.speed
