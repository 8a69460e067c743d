"""Property-based tests for workload models and arrival processes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.workload import (
    PoissonArrivals,
    Task,
    Workflow,
    generate_workflow,
)


@given(seed=st.integers(min_value=0, max_value=10**6),
       rate=st.floats(min_value=0.001, max_value=10.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_poisson_arrivals_sorted_and_bounded(seed, rate):
    rng = RandomStreams(seed).get("arrivals")
    times = list(PoissonArrivals(rate, rng).times(100.0))
    assert times == sorted(times)
    assert all(0 < t < 100.0 for t in times)


@given(seed=st.integers(min_value=0, max_value=10**6),
       n_tasks=st.integers(min_value=1, max_value=40),
       shape=st.sampled_from(["chain", "fork-join", "random"]))
@settings(max_examples=40, deadline=None)
def test_generated_workflows_are_valid_dags(seed, n_tasks, shape):
    rng = RandomStreams(seed).get("wf")
    wf = generate_workflow(rng, n_tasks=n_tasks, shape=shape)
    assert len(wf) == n_tasks
    # Acyclicity is enforced at construction; roots must exist.
    roots = [t for t in wf.tasks if not wf.predecessors(t)]
    assert roots
    # Critical path work never exceeds total work.
    total = sum(t.work for t in wf.tasks)
    assert wf.critical_path_work() <= total + 1e-9


@given(seed=st.integers(min_value=0, max_value=10**6),
       n_tasks=st.integers(min_value=2, max_value=30))
@settings(max_examples=30, deadline=None)
def test_completing_tasks_in_topological_order_unlocks_everything(
        seed, n_tasks):
    from repro.workload.task import TaskState
    rng = RandomStreams(seed).get("wf2")
    wf = generate_workflow(rng, n_tasks=n_tasks, shape="random")
    completed = 0
    for _ in range(n_tasks + 1):
        ready = wf.ready_tasks()
        if not ready:
            break
        for task in ready:
            task.state = TaskState.DONE
            task.finish_time = float(completed)
            completed += 1
    assert completed == n_tasks
    assert wf.done
