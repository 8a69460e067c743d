"""Tests for machines and cluster placement."""

import pytest

from repro.cluster import Cluster, Machine, MachineState


class TestMachine:
    def test_allocation_cycle(self):
        m = Machine("m0", cores=4, memory_gb=8)
        assert m.free_cores == 4
        m.allocate(3, memory_gb=4)
        assert m.free_cores == 1
        assert m.free_memory_gb == 4
        m.release(3, memory_gb=4, incarnation=m.incarnation)
        assert m.free_cores == 4

    def test_over_allocation_rejected(self):
        m = Machine("m0", cores=2)
        m.allocate(2)
        with pytest.raises(RuntimeError):
            m.allocate(1)

    def test_over_release_rejected(self):
        m = Machine("m0", cores=2)
        with pytest.raises(RuntimeError):
            m.release(1, incarnation=m.incarnation)

    def test_memory_constraint(self):
        m = Machine("m0", cores=8, memory_gb=4)
        assert not m.can_fit(1, memory_gb=5)
        assert m.can_fit(1, memory_gb=4)

    def test_down_machine_has_no_capacity(self):
        m = Machine("m0", cores=4)
        m.state = MachineState.DOWN
        assert m.free_cores == 0
        assert not m.can_fit(1)

    def test_runtime_scales_with_speed(self):
        fast = Machine("fast", speed=2.0)
        slow = Machine("slow", speed=0.5)
        assert fast.runtime_of(10) == 5
        assert slow.runtime_of(10) == 20

    def test_invalid_machine_rejected(self):
        with pytest.raises(ValueError):
            Machine("bad", cores=0)
        with pytest.raises(ValueError):
            Machine("bad", speed=0)


class TestCluster:
    def test_homogeneous_constructor(self):
        c = Cluster.homogeneous("das", 10, cores=8)
        assert len(c) == 10
        assert c.total_cores == 80
        assert c.utilization == 0.0

    def test_duplicate_machine_names_rejected(self):
        with pytest.raises(ValueError):
            Cluster("c", [Machine("a"), Machine("a")])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster("c", [])

    def test_first_fit_skips_full_machines(self):
        c = Cluster("c", [Machine("a", cores=2), Machine("b", cores=4)])
        c.machines[0].allocate(2)
        m = c.first_fit(cores=2)
        assert m.name == "b"

    def test_first_fit_none_when_full(self):
        c = Cluster.homogeneous("c", 2, cores=2)
        for m in c.machines:
            m.allocate(2)
        assert c.first_fit(1) is None

    def test_down_machines_excluded_from_totals(self):
        c = Cluster.homogeneous("c", 4, cores=4)
        c.machines[0].state = MachineState.DOWN
        assert c.total_cores == 12
        assert len(c.up_machines()) == 3

    def test_add_machine(self):
        c = Cluster.homogeneous("c", 2)
        c.add_machine(Machine("extra", cores=16))
        assert len(c) == 3
        assert c.machines[-1].cores == 16

    def test_add_duplicate_rejected(self):
        c = Cluster.homogeneous("c", 1)
        with pytest.raises(ValueError):
            c.add_machine(Machine(c.machines[0].name))

