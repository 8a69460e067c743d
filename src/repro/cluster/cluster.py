"""Clusters: named sets of machines that form one scheduling domain."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cluster.machine import Machine, MachineState


class Cluster:
    """A named set of machines behaving as one scheduling domain."""

    def __init__(self, name: str, machines: Iterable[Machine]):
        self.name = name
        self.machines = list(machines)
        if not self.machines:
            raise ValueError(f"cluster {name}: needs at least one machine")
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise ValueError(f"cluster {name}: duplicate machine names")

    @classmethod
    def homogeneous(cls, name: str, n_machines: int, cores: int = 8,
                    speed: float = 1.0, memory_gb: float = 32.0) -> "Cluster":
        """Convenience constructor for identical machines."""
        machines = [
            Machine(f"{name}-m{i:04d}", cores=cores, speed=speed,
                    memory_gb=memory_gb)
            for i in range(n_machines)
        ]
        return cls(name, machines)

    def __repr__(self) -> str:
        return f"<Cluster {self.name}: {len(self.machines)} machines>"

    def __len__(self) -> int:
        return len(self.machines)

    @property
    def total_cores(self) -> int:
        return sum(m.cores for m in self.machines if m.state is MachineState.UP)

    @property
    def used_cores(self) -> int:
        return sum(m.used_cores for m in self.machines
                   if m.state is MachineState.UP)

    @property
    def free_cores(self) -> int:
        return sum(m.free_cores for m in self.machines)

    @property
    def utilization(self) -> float:
        total = self.total_cores
        return self.used_cores / total if total else 0.0

    def up_machines(self) -> list[Machine]:
        return [m for m in self.machines if m.state is MachineState.UP]

    def first_fit(self, cores: int, memory_gb: float = 0.0
                  ) -> Optional[Machine]:
        """The first machine that can host the request, or ``None``."""
        for machine in self.machines:
            if machine.can_fit(cores, memory_gb):
                return machine
        return None

    def add_machine(self, machine: Machine) -> None:
        if any(m.name == machine.name for m in self.machines):
            raise ValueError(f"duplicate machine name {machine.name}")
        self.machines.append(machine)
