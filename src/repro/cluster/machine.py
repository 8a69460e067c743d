"""Machines: the unit of computation in a cluster."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class MachineState(enum.Enum):
    """Operational state of a machine."""

    UP = "up"
    DOWN = "down"


@dataclass
class Machine:
    """A physical or virtual machine: ``name`` is unique within its
    cluster, ``cores`` is its number of task slots, and a task of ``work``
    units takes ``work / speed`` seconds on it."""

    name: str
    cores: int = 1
    speed: float = 1.0
    memory_gb: float = 16.0
    #: Cores currently allocated to running tasks.
    used_cores: int = 0
    #: Memory currently allocated.
    used_memory_gb: float = 0.0
    #: Bumped on every crash; allocations from earlier incarnations are void.
    incarnation: int = 0
    _state: MachineState = field(default=MachineState.UP, init=False)
    #: The owning cluster, whose core ledger this machine keeps current.
    _books: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"machine {self.name}: cores must be positive")
        if self.speed <= 0:
            raise ValueError(f"machine {self.name}: speed must be positive")

    @property
    def state(self) -> MachineState:
        return self._state

    @state.setter
    def state(self, state: MachineState) -> None:
        books = self._books
        if books is not None and state is not self._state:
            sign = 1 if state is MachineState.UP else -1
            books._up_cores += sign * self.cores
            books._used_cores += sign * self.used_cores
        self._state = state

    @property
    def is_up(self) -> bool:
        return self._state is MachineState.UP

    @property
    def free_cores(self) -> int:
        return self.cores - self.used_cores if self.is_up else 0

    @property
    def free_memory_gb(self) -> float:
        return self.memory_gb - self.used_memory_gb if self.is_up else 0.0

    def can_fit(self, cores: int, memory_gb: float = 0.0) -> bool:
        """Whether a task needing ``cores`` and ``memory_gb`` fits right now."""
        return (self.is_up and self.free_cores >= cores
                and self.free_memory_gb >= memory_gb - 1e-9)

    def allocate(self, cores: int, memory_gb: float = 0.0) -> None:
        if not self.can_fit(cores, memory_gb):
            raise RuntimeError(
                f"machine {self.name}: cannot allocate {cores} cores / "
                f"{memory_gb} GB (free: {self.free_cores} cores / "
                f"{self.free_memory_gb} GB, state={self.state.value})")
        self.used_cores += cores
        self.used_memory_gb += memory_gb
        if self._books is not None:
            self._books._used_cores += cores

    def release(self, cores: int, memory_gb: float = 0.0, *,
                incarnation: int) -> bool:
        """Return an allocation; True if it was actually accounted.

        ``incarnation`` is the one observed at :meth:`allocate` time. A
        crash (:meth:`fail`) wipes all allocations and bumps it, so the
        release of a task that died in a crash is stale and ignored.
        """
        if incarnation != self.incarnation:
            return False  # stale: allocation already wiped by a crash
        if cores > self.used_cores:
            raise RuntimeError(
                f"machine {self.name}: releasing {cores} cores but only "
                f"{self.used_cores} allocated")
        self.used_cores -= cores
        self.used_memory_gb = max(0.0, self.used_memory_gb - memory_gb)
        if self._books is not None and self.is_up:
            self._books._used_cores -= cores
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

    def runtime_of(self, work: float) -> float:
        """Wall-clock time for ``work`` normalized work units."""
        return work / self.speed
