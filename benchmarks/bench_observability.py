"""PR-5 — observability-layer overhead: what does measuring cost?

The vision's "measure everything" stance only holds if instrumentation
is cheap. Three questions, one table:

1. What do spans + a shared metrics registry add to a bare domain run?
2. What does the installed profiler add per dispatch?
3. How fast do trace serialization and digesting scale with span count?
"""

import time

from repro.faults.chaos import run_serverless_scenario
from repro.observability import MetricsRegistry, SimProfiler, Tracer


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_instrumentation_overhead(benchmark, report, table):
    kwargs = dict(seed=211, error_rate=0.15, retry=True, n_invocations=800)

    def run_all():
        # Untimed warm-up: the first run pays imports and cold caches,
        # which would otherwise be billed to ``bare`` alone.
        run_serverless_scenario(**kwargs)
        out = {}
        out["bare"] = _timed(lambda: run_serverless_scenario(**kwargs))

        tracer, registry = Tracer(name="bench"), MetricsRegistry()
        out["traced"] = _timed(lambda: run_serverless_scenario(
            tracer=tracer, registry=registry, **kwargs))
        out["_tracer"] = tracer

        profiler = SimProfiler()
        with profiler:
            out["profiled"] = _timed(lambda: run_serverless_scenario(**kwargs))
        out["_profiler"] = profiler
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    tracer = results.pop("_tracer")
    profiler = results.pop("_profiler")
    serialized, json_s = _timed(tracer.to_json)
    _, digest_s = _timed(tracer.digest)

    # Only deterministic columns are committed; host wall times vary from
    # run to run, so they go to stdout.
    bare_s = max(results["bare"][1], 1e-9)
    for name, (_, wall_s) in results.items():
        print(f"{name}: {wall_s * 1000:.1f} ms ({wall_s / bare_s:.2f}x bare)")
    print(f"serialize+digest: {(json_s + digest_s) * 1000:.2f} ms")
    details = {
        "bare": "-",
        "traced": f"{len(tracer.spans)} spans, "
                  f"{len(serialized) / 1024:.0f} KiB serialized",
        "profiled": f"{profiler.dispatches} dispatches profiled",
    }
    rows = [[name, f"{outcome['slo_attainment']:.3f}", details[name]]
            for name, (outcome, _) in results.items()]
    report("observability_overhead",
           "What spans, metrics and the profiler record on a serverless "
           "run",
           table(["scenario", "SLO attainment", "recorded"], rows))

    # Instrumentation must never change behavior, only record it.
    assert results["traced"][0]["slo_attainment"] == \
        results["bare"][0]["slo_attainment"]
    assert len(tracer.spans) == kwargs["n_invocations"]
    # ...and must stay cheap enough to leave on (generous CI-noise slack).
    assert results["traced"][1] < 10 * bare_s
    assert results["profiled"][1] < 10 * bare_s
    assert profiler.dispatches > 0
