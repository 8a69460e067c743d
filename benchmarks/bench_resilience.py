"""Resilience-layer cost and overload payoff.

Two questions, one table each:

1. What do heartbeats + phi-accrual detection cost a fault-free
   scheduling run, and what does health-aware dispatch cost/buy under
   crashes?
2. What does admission control cost a flash-crowd serverless run, and
   what does it buy in SLO-goodput and tail latency?

The tables compare cost in dispatched kernel events; host wall times go
to stdout.
"""

from repro.faults.chaos import run_overload_scenario, run_scheduling_scenario


def bench_detection_overhead(benchmark, report, table, timed):
    def run_all():
        out = {}
        out["sched baseline"] = timed(lambda: run_scheduling_scenario(
            seed=211, mtbf_s=None, n_tasks=300, n_machines=12))
        out["sched +detector"] = timed(lambda: run_scheduling_scenario(
            seed=211, mtbf_s=None, n_tasks=300, n_machines=12,
            health_aware=True))
        out["crash omniscient"] = timed(lambda: run_scheduling_scenario(
            seed=211, mtbf_s=600.0, n_tasks=300, n_machines=12))
        out["crash health-aware"] = timed(lambda: run_scheduling_scenario(
            seed=211, mtbf_s=600.0, n_tasks=300, n_machines=12,
            health_aware=True))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for name, (outcome, events, wall_s) in results.items():
        print(f"{name}: {wall_s * 1000:.1f} ms")
        rows.append([
            name,
            events,
            f"{outcome['slo_attainment']:.3f}",
            outcome.get("misdispatches", ""),
            outcome.get("false_suspicions", ""),
        ])
    report("resilience_detection",
           "Failure detection: fault-free cost and crash payoff",
           table(["scenario", "events", "completed fraction",
                  "misdispatches", "false suspicions"], rows))
    # Heartbeats at 1 Hz per machine must not dominate the simulation.
    assert (results["sched +detector"][2]
            < 10 * max(results["sched baseline"][2], 1e-3))
    # Fault-free, bounded jitter: the detector never cries wolf.
    assert results["sched +detector"][0]["false_suspicions"] == 0


def bench_admission_payoff(benchmark, report, table, timed):
    def run_all():
        out = {}
        out["overload raw"] = timed(lambda: run_overload_scenario(
            seed=211, admission=False, n_invocations=1000))
        out["overload admitted"] = timed(lambda: run_overload_scenario(
            seed=211, admission=True, n_invocations=1000))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for name, (outcome, events, wall_s) in results.items():
        print(f"{name}: {wall_s * 1000:.1f} ms")
        rows.append([
            name,
            events,
            f"{outcome['goodput_per_s']:.2f}/s",
            f"{outcome['p99_latency_s']:.3f} s",
            f"{outcome['shed_fraction']:.1%}",
        ])
    report("resilience_admission",
           "Flash crowd: admission control off vs on, same seed",
           table(["scenario", "events", "SLO-goodput", "p99 latency",
                  "shed"], rows))
    raw, admitted = results["overload raw"][0], results["overload admitted"][0]
    # The whole point: shedding buys goodput and a survivable tail.
    assert admitted["goodput_per_s"] > raw["goodput_per_s"]
    assert admitted["p99_latency_s"] < raw["p99_latency_s"]
    # And admission must not blow up simulation cost.
    assert (results["overload admitted"][2]
            < 10 * max(results["overload raw"][2], 1e-3))
