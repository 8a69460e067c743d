"""Tests for tasks, bags, workflows, and MapReduce jobs."""

import pytest

from repro.workload import BagOfTasks, MapReduceJob, Task, TaskState, Workflow


class TestTask:
    def test_invalid_work_rejected(self):
        with pytest.raises(ValueError):
            Task(work=0)
        with pytest.raises(ValueError):
            Task(work=10, cores=0)

    def test_timing_metrics(self):
        t = Task(work=10, submit_time=5)
        assert t.wait_time is None
        assert t.response_time is None
        t.start_time = 8
        t.finish_time = 18
        assert t.wait_time == 3
        assert t.response_time == 13
        assert t.runtime == 10

    def test_unique_ids(self):
        assert Task(work=1).task_id != Task(work=1).task_id

    def test_compares_by_identity(self):
        a = Task(work=1, task_id=7)
        b = Task(work=1, task_id=7)
        assert a != b and a is not b
        assert len({a, b}) == 2
        ready = [a, b]
        ready.remove(b)
        assert len(ready) == 1 and ready[0] is a
        assert b not in ready


class TestBagOfTasks:
    def test_submit_time_propagates(self):
        bag = BagOfTasks([Task(work=1), Task(work=2)], submit_time=7)
        assert all(t.submit_time == 7 for t in bag.tasks)
        assert all(t.job_id == bag.job_id for t in bag.tasks)

    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError):
            BagOfTasks([])

    def test_total_work_and_makespan(self):
        bag = BagOfTasks([Task(work=3), Task(work=5)], submit_time=0)
        assert bag.total_work == 8
        assert bag.makespan is None
        for i, t in enumerate(bag.tasks):
            t.state = TaskState.DONE
            t.finish_time = 10 + i
        assert bag.done
        assert bag.makespan == 11


class TestWorkflow:
    def _diamond(self):
        a, b, c, d = (Task(work=w) for w in (1, 2, 3, 4))
        wf = Workflow(
            [a, b, c, d],
            [(a.task_id, b.task_id), (a.task_id, c.task_id),
             (b.task_id, d.task_id), (c.task_id, d.task_id)],
            name="diamond")
        return wf, (a, b, c, d)

    def test_cycle_rejected(self):
        a, b = Task(work=1), Task(work=1)
        with pytest.raises(ValueError):
            Workflow([a, b], [(a.task_id, b.task_id), (b.task_id, a.task_id)])

    def test_unknown_edge_rejected(self):
        a = Task(work=1)
        with pytest.raises(ValueError):
            Workflow([a], [(a.task_id, 999_999)])

    def test_ready_tasks_respect_dependencies(self):
        wf, (a, b, c, d) = self._diamond()
        assert [t.task_id for t in wf.ready_tasks()] == [a.task_id]
        a.state = TaskState.DONE
        ready = {t.task_id for t in wf.ready_tasks()}
        assert ready == {b.task_id, c.task_id}
        b.state = TaskState.DONE
        assert d.task_id not in {t.task_id for t in wf.ready_tasks()}
        c.state = TaskState.DONE
        assert {t.task_id for t in wf.ready_tasks()} == {d.task_id}

    def test_unlocked_by_reads_booked_ids_in_workflow_order(self):
        wf, (a, b, c, d) = self._diamond()
        # Ground-truth states play no part: only the ids passed in count.
        assert wf.unlocked_by(a, set()) == []
        assert wf.unlocked_by(a, {a.task_id}) == [b, c]
        assert wf.unlocked_by(b, {a.task_id, b.task_id}) == []
        assert wf.unlocked_by(c, {a.task_id, b.task_id, c.task_id}) == [d]
        # Successors come back in the order the tasks were given, not
        # the order the edges were.
        x, y, z = Task(work=1), Task(work=1), Task(work=1)
        wf = Workflow([x, y, z], [(x.task_id, z.task_id),
                                  (x.task_id, y.task_id)])
        assert wf.unlocked_by(x, {x.task_id}) == [y, z]

    def test_critical_path_of_diamond(self):
        wf, _ = self._diamond()
        # a -> c -> d = 1 + 3 + 4 = 8.
        assert wf.critical_path_work() == 8

    def test_makespan_requires_completion(self):
        wf, tasks = self._diamond()
        assert wf.makespan is None
        for i, t in enumerate(tasks):
            t.state = TaskState.DONE
            t.finish_time = float(i + 1)
        assert wf.makespan == 4


class TestMapReduceJob:
    def test_shuffle_barrier_structure(self):
        job = MapReduceJob(n_maps=3, n_reduces=2)
        assert len(job) == 5
        assert job.graph.number_of_edges() == 6
        # No reduce is ready before all maps are done.
        ready_ids = {t.task_id for t in job.ready_tasks()}
        assert ready_ids == {t.task_id for t in job.map_tasks}
        for m in job.map_tasks[:-1]:
            m.state = TaskState.DONE
        assert not any(t in job.reduce_tasks for t in job.ready_tasks())
        job.map_tasks[-1].state = TaskState.DONE
        assert {t.task_id for t in job.ready_tasks()} == {
            t.task_id for t in job.reduce_tasks}

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            MapReduceJob(n_maps=0, n_reduces=1)
