"""PR-5 — observability-layer overhead: what does measuring cost?

The vision's "measure everything" stance only holds if instrumentation
is cheap. Three questions, one table:

1. What do spans + a shared metrics registry add to a bare domain run?
2. What does the installed profiler add per dispatch?
3. How fast do trace serialization and digesting scale with span count?
"""

from repro.faults.chaos import run_serverless_scenario
from repro.observability import MetricsRegistry, SimProfiler, Tracer


def bench_instrumentation_overhead(benchmark, report, table, timed):
    kwargs = dict(seed=211, error_rate=0.15, retry=True, n_invocations=800)

    def traced():
        tracer, registry = Tracer(name="bench"), MetricsRegistry()
        return run_serverless_scenario(tracer=tracer, registry=registry,
                                       **kwargs), tracer

    def profiled():
        profiler = SimProfiler()
        with profiler:
            return run_serverless_scenario(**kwargs), profiler

    def run_all():
        return (timed(lambda: run_serverless_scenario(**kwargs)),
                timed(traced), timed(profiled))

    ((bare, _, bare_s), ((traced_out, tracer), _, traced_s),
     ((profiled_out, profiler), _, profiled_s)) = benchmark.pedantic(
        run_all, rounds=1, iterations=1)
    serialized, _, json_s = timed(tracer.to_json)
    _, _, digest_s = timed(tracer.digest)

    # Only deterministic columns are committed; host wall times vary from
    # run to run, so they go to stdout.
    bare_s = max(bare_s, 1e-9)
    for name, wall_s in (("bare", bare_s), ("traced", traced_s),
                         ("profiled", profiled_s)):
        print(f"{name}: {wall_s * 1000:.1f} ms ({wall_s / bare_s:.2f}x bare)")
    print(f"serialize+digest: {(json_s + digest_s) * 1000:.2f} ms")
    rows = [
        ["bare", f"{bare['slo_attainment']:.3f}", "-"],
        ["traced", f"{traced_out['slo_attainment']:.3f}",
         f"{len(tracer.spans)} spans, "
         f"{len(serialized) / 1024:.0f} KiB serialized"],
        ["profiled", f"{profiled_out['slo_attainment']:.3f}",
         f"{profiler.dispatches} dispatches profiled"],
    ]
    report("observability_overhead",
           "What spans, metrics and the profiler record on a serverless "
           "run",
           table(["scenario", "SLO attainment", "recorded"], rows))

    # Instrumentation must never change behavior, only record it.
    assert traced_out["slo_attainment"] == bare["slo_attainment"]
    assert len(tracer.spans) == kwargs["n_invocations"]
    # ...and must stay cheap enough to leave on (generous CI-noise slack).
    assert traced_s < 10 * bare_s
    assert profiled_s < 10 * bare_s
    assert profiler.dispatches > 0
