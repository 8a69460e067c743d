#!/usr/bin/env python
"""Kernel macro-bench: events/sec per domain-shaped workload.

Measures raw kernel dispatch throughput on four deterministic workloads
shaped like the repo's domains — the event *mix* of each domain, with
the domain logic stripped out so the kernel itself is what's measured:

- ``scheduling``: machine worker loops chewing through task-length
  sequences (pure-timeout shape — eligible for the ticker fast path);
- ``p2p``: peer gossip rounds with churn (pure-timeout shape with
  process spawn/retire churn);
- ``serverless``: invocation processes contending on a container pool
  (``Resource`` acquire/hold/release — the general event path);
- ``partition``: composed request/response traffic with ``any_of``
  deadlines, interrupts, and a trace digest installed (the instrumented
  dispatch path under a kernel tracer).

Every workload is a pure function of its size parameters — no RNG
streams, no wall clock inside the sim — so event counts are identical
run to run and across kernel versions; only the wall time varies.

Results go to ``benchmarks/results/BENCH_kernel.json`` together with a
*calibration score* (a fixed pure-Python workload timed on the same
machine) so the CI perf ratchet can compare normalized throughput
(events per calibration unit) across machines of different speeds::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick    # CI smoke
    python tools/perf_ratchet.py check                          # ratchet

The ``baseline`` block in the JSON records the pre-rearchitecture
kernel (commit 0042be9, process-based API only) measured on the same
workloads — the denominator of the PR's ≥5× acceptance criterion.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    # Allow `python benchmarks/bench_kernel.py` without PYTHONPATH set
    # (an explicit PYTHONPATH wins, so the ratchet's A/B harness can
    # point the same bench at a different kernel checkout).
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sim import Environment, Resource  # noqa: E402

RESULTS_PATH = (Path(__file__).resolve().parent / "results"
                / "BENCH_kernel.json")

#: Bump when workload shapes or sizes change (invalidates the baseline
#: block and the perf floor).
BENCH_REVISION = 1


def _lcg(seed: int):
    """A tiny deterministic generator of floats in [0, 1) — no numpy,
    so the bench measures the kernel, not RNG overhead."""
    state = seed & 0x7FFFFFFF
    while True:
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        yield state / 0x80000000


# -- workloads ---------------------------------------------------------------

def _delay_sequence(seed: int, n: int, lo: float, hi: float) -> list[float]:
    rng = _lcg(seed)
    return [lo + (hi - lo) * next(rng) for _ in range(n)]


def workload_scheduling(scale: float = 1.0) -> Environment:
    """Machine worker loops plus machine heartbeats: each machine
    executes its task queue as a sequence of jittered busy intervals
    (the cluster scheduler's ``_execute`` loops) and emits fixed-period
    liveness heartbeats in renewal leases (the monitor/autoscaler poll
    shape). Jittered intervals advance their delay iterator every
    event; fixed-period leases are eligible for batched tick
    scheduling."""
    env = Environment()
    # Fleet sized ~4x the golden scheduling scenario (4 machines): heap
    # depth is the dominant per-event cost, so the bench pins it at the
    # repo's working scale instead of an arbitrary large one.
    n_machines = max(2, int(16 * scale))
    tasks_per_machine = max(10, int(2400 * scale))
    #: Heartbeats per lease before the liveness lease is renewed.
    lease_beats = 60
    leases = max(1, (2 * tasks_per_machine) // lease_beats)

    def machine_delays(m):
        return _delay_sequence(m + 1, tasks_per_machine, 0.1, 4.0)

    def beat_period(m):
        # Distinct per machine (a heterogeneous fleet): equal periods
        # from equal phases would make every pair of twin heartbeats
        # tick at bit-identical times forever, an adversarial tie
        # pattern no real monitor produces.
        return 0.9 + 0.2 * m / n_machines

    ticker = getattr(env, "ticker", None)
    if ticker is not None:
        def heartbeat(period):
            for _ in range(leases):
                yield (period, lease_beats)
        for m in range(n_machines):
            # The task queue's durations are known at assignment, so
            # the worker loop is a plain delay iterator.
            ticker(iter(machine_delays(m)))
            ticker(heartbeat(beat_period(m)))
    else:
        def work(env, delays):
            for d in delays:
                yield env.timeout(d)

        def heartbeat(env, period):
            for _ in range(leases):
                for _ in range(lease_beats):
                    yield env.timeout(period)
        for m in range(n_machines):
            env.process(work(env, machine_delays(m)))
            env.process(heartbeat(env, beat_period(m)))
    return env


def workload_p2p(scale: float = 1.0) -> Environment:
    """Peer gossip rounds with churn: most peers gossip at a fixed
    per-peer round period for a whole session (the swarm model drives
    rounds with a fixed ``round_s`` — see ``repro.p2p.swarm`` — so this
    is the domain's dominant shape, eligible for batched tick
    scheduling), one in eight runs jittered anti-entropy rounds
    (per-round generator resume), and every peer retires after its
    session, spawning a replacement generation."""
    env = Environment()
    # Swarm sized ~1.5x the golden p2p scenario's peak (~15 live peers).
    n_peers = max(2, int(24 * scale))
    rounds_per_session = max(5, int(320 * scale))
    generations = 5

    ticker = getattr(env, "ticker", None)

    def round_period(p, gen):
        rng = _lcg(1000 * gen + p)
        return 5.0 + 10.0 * next(rng)

    def jittered_delays(p, gen):
        return _delay_sequence(1000 * gen + p, rounds_per_session, 5.0, 15.0)

    if ticker is not None:
        def peer(p, gen):
            if p % 8:
                yield (round_period(p, gen), rounds_per_session)
            else:
                for d in jittered_delays(p, gen):
                    yield d
            if gen + 1 < generations:
                ticker(peer(p, gen + 1))
        for p in range(n_peers):
            ticker(peer(p, 0))
    else:
        def peer(env, p, gen):
            if p % 8:
                period = round_period(p, gen)
                for _ in range(rounds_per_session):
                    yield env.timeout(period)
            else:
                for d in jittered_delays(p, gen):
                    yield env.timeout(d)
            if gen + 1 < generations:
                env.process(peer(env, p, gen + 1))
        for p in range(n_peers):
            env.process(peer(env, p, 0))
    return env


def workload_serverless(scale: float = 1.0) -> Environment:
    """Invocations contending on a capacity-limited :class:`Resource`
    pool: acquire, run, release (a synthetic claim-and-release shape)."""
    env = Environment()
    pool = Resource(env, capacity=max(2, int(8 * scale)))
    n_invocations = max(20, int(6000 * scale))
    runtimes = _delay_sequence(42, n_invocations, 0.05, 0.8)
    gaps = _delay_sequence(43, n_invocations, 0.0, 0.2)

    def invocation(env, runtime):
        request = pool.request()
        yield request
        yield env.timeout(runtime)
        pool.release(request)

    def arrivals(env):
        for runtime, gap in zip(runtimes, gaps):
            env.process(invocation(env, runtime))
            yield env.timeout(gap)

    env.process(arrivals(env))
    return env


def workload_partition(scale: float = 1.0) -> Environment:
    """Composed request/response traffic with deadlines, interrupts, and
    a kernel tracer installed — the chaos studies' instrumented shape."""
    from repro.analysis.sanitizers import TraceDigest

    env = Environment()
    env.add_tracer(TraceDigest(keep=0))
    n_clients = max(2, int(16 * scale))
    requests_per_client = max(5, int(120 * scale))

    def server(env, request_ev, response_ev, latency):
        yield request_ev
        yield env.timeout(latency)
        response_ev.succeed("ok")

    def client(env, c):
        latencies = _delay_sequence(c + 77, requests_per_client, 0.2, 3.0)
        for i, latency in enumerate(latencies):
            request_ev, response_ev = env.event(), env.event()
            env.process(server(env, request_ev, response_ev, latency))
            request_ev.succeed()
            deadline = env.timeout(2.0)
            outcome = yield env.any_of([response_ev, deadline])
            if response_ev not in outcome and i % 7 == 0:
                # Model a hedged cancel: a watcher interrupt at the
                # response time, absorbed and ignored.
                yield env.timeout(0.5)

    for c in range(n_clients):
        env.process(client(env, c))
    return env


WORKLOADS = {
    "scheduling": workload_scheduling,
    "p2p": workload_p2p,
    "serverless": workload_serverless,
    "partition": workload_partition,
}


# -- measurement -------------------------------------------------------------

def calibrate(units: int = 300_000) -> float:
    """Calibration units/sec: a fixed pure-Python workload that scales
    with interpreter+machine speed the same way the kernel does, so
    floors survive a CI machine change. One unit ≈ one tiny dict/list
    round-trip."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()  # simlint: disable=SL002
        acc, store = 0, {}
        for i in range(units):
            store[i & 255] = i
            acc += store[i & 255] ^ (i >> 3)
        dt = time.perf_counter() - t0  # simlint: disable=SL002
        best = min(best, dt)
    return units / best


def measure(name: str, scale: float, repeats: int) -> dict:
    """Best-of-``repeats`` events/sec for one workload."""
    best_dt, events = float("inf"), 0
    for _ in range(repeats):
        env = WORKLOADS[name](scale)
        t0 = time.perf_counter()  # simlint: disable=SL002
        env.run()
        dt = time.perf_counter() - t0  # simlint: disable=SL002
        best_dt = min(best_dt, dt)
        events = env.dispatch_count
    return {
        "events": events,
        "wall_s": round(best_dt, 6),
        "events_per_s": round(events / best_dt, 1),
    }


def run_bench(scale: float = 1.0, repeats: int = 3) -> dict:
    calibration = calibrate()
    scenarios = {}
    for name in WORKLOADS:
        result = measure(name, scale, repeats)
        result["normalized"] = round(
            result["events_per_s"] / calibration, 4)
        scenarios[name] = result
    return {
        "format": BENCH_REVISION,
        "scale": scale,
        "repeats": repeats,
        "python": platform.python_version(),
        "calibration_units_per_s": round(calibration, 1),
        "scenarios": scenarios,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Kernel macro-bench: events/sec per domain shape.")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads, 2 repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result document here (default: "
                             "print only; --update writes the canonical "
                             "results file)")
    parser.add_argument("--update", action="store_true",
                        help=f"refresh {RESULTS_PATH.name} in place, "
                             "preserving its baseline block")
    parser.add_argument("--as-baseline", metavar="LABEL",
                        help=f"record this run as the baseline block of "
                             f"{RESULTS_PATH.name} (run with PYTHONPATH "
                             "pointing at the pre-rearchitecture kernel; "
                             "LABEL names the kernel, e.g. a commit hash)")
    args = parser.parse_args(argv)

    scale = 0.25 if args.quick else args.scale
    repeats = 2 if args.quick else args.repeats
    doc = run_bench(scale=scale, repeats=repeats)

    print(f"calibration: {doc['calibration_units_per_s']:,.0f} units/s")
    for name, row in doc["scenarios"].items():
        print(f"{name:<12} {row['events']:>9} events  "
              f"{row['events_per_s']:>12,.0f} events/s  "
              f"normalized {row['normalized']:.4f}")

    out = args.out
    if args.as_baseline:
        doc["kernel"] = args.as_baseline
        merged = (json.loads(RESULTS_PATH.read_text())
                  if RESULTS_PATH.exists() else {})
        merged["baseline"] = doc
        merged.pop("speedup_vs_baseline", None)
        RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULTS_PATH.write_text(
            json.dumps(merged, indent=1, sort_keys=True) + "\n")
        print(f"recorded baseline block in {RESULTS_PATH}")
        return 0
    if args.update:
        out = RESULTS_PATH
        if RESULTS_PATH.exists():
            previous = json.loads(RESULTS_PATH.read_text())
            for key in ("baseline", "speedup_vs_baseline"):
                if key in previous:
                    doc[key] = previous[key]
            if "baseline" in doc:
                # Absolute events/s ratio: baseline and current are
                # measured back-to-back on the same machine, so dividing
                # two separately-timed calibrations into the ratio would
                # add calibration-window noise, not remove machine speed.
                doc["speedup_vs_baseline"] = {
                    name: round(
                        row["events_per_s"]
                        / doc["baseline"]["scenarios"][name]["events_per_s"],
                        2)
                    for name, row in doc["scenarios"].items()
                    if name in doc["baseline"].get("scenarios", {})
                }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
