"""Tests for machines and cluster placement."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_machine_joins_one_cluster_only(self):
        a = Cluster.homogeneous("a", 2, cores=4)
        shared, bystander = a.machines[0], Machine("fresh")
        shared.allocate(3)
        with pytest.raises(ValueError, match="already belongs"):
            Cluster("b", [bystander, shared])
        b = Cluster.homogeneous("b", 1)
        with pytest.raises(ValueError, match="already belongs"):
            b.add_machine(shared)
        # The rejected joins left both ledgers and the bystander alone.
        assert (a.total_cores, a.used_cores) == (8, 3)
        assert (b.total_cores, len(b)) == (8, 1)
        b.add_machine(bystander)
        assert b.total_cores == 9


#: One step on machine ``i`` (mod the pool) with ``n`` cores where used.
_STEP = st.tuples(
    st.sampled_from(["allocate", "release", "fail", "repair", "down", "up",
                     "add"]),
    st.integers(0, 2), st.integers(1, 4))


class TestCoreLedger:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_STEP, max_size=60))
    # An accounted release on a machine set down by hand, not by fail().
    @example([("allocate", 0, 2), ("down", 0, 1), ("release", 1, 1)])
    def test_ledger_equals_per_machine_sums(self, steps):
        """The cluster's totals equal the per-machine sums they replaced
        after every allocation, release (stale ones included), crash,
        repair, direct ``state`` write and machine added."""
        pool = [Machine(f"m{i}", cores=4 + i) for i in range(3)]
        pool[2].allocate(2)  # joins with cores already allocated
        cluster = Cluster("c", pool[:2])
        allocations = [(pool[2], 2, 0)]
        for op, i, n in steps:
            m = pool[i]
            if op == "allocate" and m.can_fit(n):
                m.allocate(n)
                allocations.append((m, n, m.incarnation))
            elif op == "release" and allocations:
                held, cores, incarnation = allocations.pop(
                    i % len(allocations))
                held.release(cores, incarnation=incarnation)
            elif op == "fail":
                m.fail()
            elif op == "repair":
                m.repair()
            elif op in ("down", "up"):
                m.state = (MachineState.DOWN if op == "down"
                           else MachineState.UP)
            elif op == "add" and m not in cluster.machines:
                cluster.add_machine(m)
            up = [x for x in cluster.machines if x.state is MachineState.UP]
            total = sum(x.cores for x in up)
            used = sum(x.used_cores for x in up)
            assert cluster.total_cores == total
            assert cluster.used_cores == used
            assert cluster.free_cores == sum(
                x.free_cores for x in cluster.machines)
            assert cluster.utilization == (used / total if total else 0.0)

    def test_first_fit_matches_can_fit_order(self):
        c = Cluster("c", [Machine("a", cores=4, memory_gb=2.0),
                          Machine("b", cores=2, memory_gb=8.0),
                          Machine("d", cores=8, memory_gb=8.0)])
        c.machines[2].state = MachineState.DOWN
        for cores, memory_gb in [(1, 1.0), (2, 2.0 + 5e-10), (2, 4.0),
                                 (3, 4.0), (4, 2.0), (5, 1.0)]:
            expected = next((m for m in c.machines
                             if m.can_fit(cores, memory_gb)), None)
            assert c.first_fit(cores, memory_gb) is expected
