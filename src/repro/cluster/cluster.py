"""Clusters: named sets of machines that form one scheduling domain."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cluster.machine import Machine, MachineState


class Cluster:
    """A named set of machines behaving as one scheduling domain, with one
    ledger of up and used cores that its machines keep current."""

    def __init__(self, name: str, machines: Iterable[Machine]):
        self.name = name
        self.machines: list[Machine] = []
        self._up_cores = self._used_cores = 0
        machines = list(machines)
        if not machines:
            raise ValueError(f"cluster {name}: needs at least one machine")
        if len({m.name for m in machines}) != len(machines):
            raise ValueError(f"cluster {name}: duplicate machine names")
        if any(m._books is not None for m in machines):
            raise ValueError(f"cluster {name}: a machine already belongs "
                             "to another cluster")
        for machine in machines:
            self.add_machine(machine)

    @classmethod
    def homogeneous(cls, name: str, n_machines: int, cores: int = 8,
                    speed: float = 1.0) -> "Cluster":
        """Convenience constructor for identical 32 GB machines."""
        machines = [
            Machine(f"{name}-m{i:04d}", cores=cores, speed=speed,
                    memory_gb=32.0)
            for i in range(n_machines)
        ]
        return cls(name, machines)

    def __repr__(self) -> str:
        return f"<Cluster {self.name}: {len(self.machines)} machines>"

    def __len__(self) -> int:
        return len(self.machines)

    @property
    def total_cores(self) -> int:
        return self._up_cores

    @property
    def used_cores(self) -> int:
        return self._used_cores

    @property
    def free_cores(self) -> int:
        return self._up_cores - self._used_cores

    @property
    def utilization(self) -> float:
        total = self._up_cores
        return self._used_cores / total if total else 0.0

    def up_machines(self) -> list[Machine]:
        return [m for m in self.machines if m.state is MachineState.UP]

    def first_fit(self, cores: int, memory_gb: float = 0.0
                  ) -> Optional[Machine]:
        """The first machine that can host the request, or ``None``."""
        # Machine.can_fit, inlined: this is the placement hot path.
        up = MachineState.UP
        memory_gb -= 1e-9
        for m in self.machines:
            if (m._state is up and m.cores - m.used_cores >= cores
                    and m.memory_gb - m.used_memory_gb >= memory_gb):
                return m
        return None

    def add_machine(self, machine: Machine) -> None:
        if machine._books is not None:
            raise ValueError(f"machine {machine.name} already belongs to "
                             f"cluster {machine._books.name}")
        if any(m.name == machine.name for m in self.machines):
            raise ValueError(f"duplicate machine name {machine.name}")
        self.machines.append(machine)
        machine._books = self
        if machine.is_up:
            self._up_cores += machine.cores
            self._used_cores += machine.used_cores
