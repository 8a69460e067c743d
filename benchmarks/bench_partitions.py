"""Partition/gray chaos — what the continuous invariant audit costs.

Runs the composed partition scenario with the invariant engine off and
on. The engine re-evaluates six conservation laws every simulated
second; the claim worth pinning is that a continuously self-auditing
chaos run sees the same world and stays in the same cost class as a
blind one. The table compares cost in dispatched kernel events; host
wall times go to stdout.
"""

from repro.faults.chaos import run_partition_scenario


def bench_invariant_audit_overhead(benchmark, report, table, timed):
    def run_all():
        out = {}
        out["audit off"] = timed(lambda: run_partition_scenario(
            seed=42, invariants=False))
        out["audit on"] = timed(lambda: run_partition_scenario(
            seed=42, invariants=True))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for name, (outcome, events, wall_s) in results.items():
        print(f"{name}: {wall_s * 1000:.1f} ms")
        rows.append([
            name,
            events,
            outcome["completed"],
            outcome["door_shed"],
            outcome["suspicions"],
            outcome["invariant_checks"],
            outcome["invariant_violations"],
        ])
    report("partition_audit",
           "Composed partition chaos — invariant audit off vs on",
           table(["scenario", "events", "completed", "shed",
                  "suspicions", "checks", "violations"], rows))
    on = results["audit on"][0]
    assert on["invariant_violations"] == 0
    assert on["invariant_checks"] > 500
    # Same world either way: the audit observes, it must not perturb.
    for key in ("completed", "door_shed", "suspicions", "messages_sent"):
        assert on[key] == results["audit off"][0][key], key
    # And it must stay in the same cost class.
    assert results["audit on"][2] < 5 * max(results["audit off"][2], 1e-3)
