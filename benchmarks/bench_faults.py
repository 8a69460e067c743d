"""Fault-injection cost.

Runs the same cluster-scheduling and serverless workloads with the
injector off and on (requeue and retry recovery active). The table
compares what injection costs the kernel in dispatched events and what
it costs the simulated system in wasted core-seconds; host wall times
go to stdout.
"""

from repro.faults.chaos import run_scheduling_scenario, run_serverless_scenario


def bench_fault_injection_overhead(benchmark, report, table, timed):
    def run_all():
        out = {}
        out["sched off"] = timed(lambda: run_scheduling_scenario(
            seed=101, mtbf_s=None, n_tasks=400, n_machines=16))
        out["sched on"] = timed(lambda: run_scheduling_scenario(
            seed=101, mtbf_s=500.0, requeue=True, n_tasks=400,
            n_machines=16))
        out["faas off"] = timed(lambda: run_serverless_scenario(
            seed=101, error_rate=0.0, n_invocations=1000, rate_per_s=5.0))
        out["faas on"] = timed(lambda: run_serverless_scenario(
            seed=101, error_rate=0.3, retry=True, n_invocations=1000,
            rate_per_s=5.0))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for name, (outcome, events, wall_s) in results.items():
        print(f"{name}: {wall_s * 1000:.1f} ms")
        rows.append([
            name,
            events,
            f"{outcome['slo_attainment']:.3f}",
            f"{outcome.get('wasted_core_s', 0.0):.0f}",
            outcome.get("retries", outcome.get("restarts", 0)),
        ])
    report("fault_overhead",
           "Injector cost: same workload, faults off vs on",
           table(["scenario", "events", "SLO attainment",
                  "wasted core-s", "retries/restarts"], rows))
    # Injection must not blow up simulation cost: even with crashes,
    # requeues, and retries the run stays within an order of magnitude.
    assert results["sched on"][2] < 10 * max(results["sched off"][2], 1e-3)
    assert results["faas on"][2] < 10 * max(results["faas off"][2], 1e-3)
