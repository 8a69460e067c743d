#!/usr/bin/env python3
"""Design-space exploration of a real MCS problem, the ATLARGE way.

The design problem: configure a datacenter scheduling stack — policy,
cluster shape, and machine size — to minimize bounded slowdown for a
scientific workload. Candidate quality is measured by *simulation*
(Challenge C3: simulation-based design-space exploration), the problem is
explored with the framework's processes (Figure 6), and the whole effort
runs inside a Basic Design Cycle that records its provenance (Figure 8 +
Challenge C8).

Run:  python examples/design_space_exploration.py
"""

from repro.cluster import Cluster
from repro.core import (
    BasicDesignCycle,
    DesignProblem,
    DesignSpace,
    Dimension,
    FixTheHowExploration,
    FreeExploration,
    Stage,
    StoppingCriterion,
)
from repro.scheduling import simulate_schedule
from repro.scheduling.policies import make_policy
from repro.scheduling.experiments import rescale_to_load
from repro.sim import RandomStreams
from repro.workload import generate_domain_workload

SPACE = DesignSpace([
    Dimension("policy", ("fcfs", "sjf", "ljf", "backfill", "fair-share")),
    Dimension("machines", ("4", "8", "16")),
    Dimension("cores", ("4", "8")),
])

streams = RandomStreams(seed=2026)


def evaluate(candidate) -> float:
    """Quality in [0, 1]: inverse of simulated mean bounded slowdown."""
    cluster = Cluster.homogeneous(
        "dc", int(candidate["machines"]), cores=int(candidate["cores"]))
    rng = streams.spawn(str(sorted(candidate.choices))).get("wl")
    jobs = generate_domain_workload(rng, "scientific", n_jobs=12,
                                    horizon_s=90 * 86400)
    rescale_to_load(jobs, cluster, target_load=2.0)
    policy = make_policy(candidate["policy"])
    metrics = simulate_schedule(jobs, cluster, policy)
    return 1.0 / metrics.mean_bounded_slowdown


def main():
    problem = DesignProblem(
        "scientific-stack", SPACE, quality=evaluate,
        satisfice_threshold=0.5,   # slowdown <= 2 is "good enough"
        has_complete_domain_knowledge=False)  # estimates are imperfect
    print(f"design space: {SPACE.size} candidates; problem is "
          f"{problem.structure().value}")

    # Explore with two of the Figure 6 processes.
    for explorer in (FreeExploration(streams.get("free")),
                     FixTheHowExploration(streams.get("how"), restarts=2)):
        result = explorer.explore(problem, budget=12)
        best = (dict(result.best_candidate.choices)
                if result.best_candidate else None)
        print(f"{explorer.name:>12}: {len(result.solutions)} satisficing "
              f"designs, best quality {result.best_quality:.2f} "
              f"(slowdown {1 / max(result.best_quality, 1e-9):.2f}) "
              f"-> {best}")

    # The same effort as a provenance-recorded Basic Design Cycle.
    rng = streams.get("bdc")

    def design_stage(context):
        candidate = SPACE.random_candidate(rng)
        quality = problem.evaluate(candidate)
        context.setdefault("tried", []).append(
            (dict(candidate.choices), round(quality, 3)))
        if quality >= problem.satisfice_threshold:
            return (candidate, quality)
        return None

    cycle = BasicDesignCycle(
        "scientific-stack", handlers={Stage.DESIGN: design_stage},
        target=StoppingCriterion.SATISFICED, budget=40)
    outcome = cycle.run()
    print(f"\nBDC stopped by: {outcome.stopped_by.value} after "
          f"{outcome.iterations} iterations "
          f"({outcome.budget_spent} stage executions)")
    if outcome.answers:
        candidate, quality = outcome.answers[0]
        print(f"satisficing design: {dict(candidate.choices)} "
              f"(quality {quality:.2f})")
    path = outcome.document.save("/tmp/scientific-stack-design.json")
    print(f"provenance document (Challenge C8 formalism): {path}")


if __name__ == "__main__":
    main()
