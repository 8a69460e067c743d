"""End-to-end benchmark over real entry points, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``campaign``, ``golden``, ``table9``.
Every workload is a closed loop with one client in one thread: the next
run starts when the previous one has finished.

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
(imports, input generation and one untimed warm-up run of each entry
point, median of several set-ups in fresh processes), then whole passes
over the inputs, as many as take ``--seconds`` at the workload's nominal
pass time. Run times are each input's best over the passes, as
``docs/performance.md`` recommends on noisy shared hardware, and every
time is scaled to the reference host's speed by a calibration loop timed
alongside it (see :data:`CALIBRATION_REF_S`). ``--trace 1`` runs one
fixed pass of the workload untraced and then traced (see ``spans.py``),
reports the per-layer metrics in raw host seconds and writes the spans
to ``.perfbench-out/``.

Every run's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Set-ups measured per timed run: this process plus fresh processes.
SETUP_SAMPLES = 3
#: Percentiles ``run_s_tail`` may fall back to, highest first.
TAIL_FALLBACKS = (99.0, 95.0, 90.0, 75.0, 50.0)
#: Host seconds the calibration loop takes on the reference host (a quiet
#: 2-core Xeon VM). Each time metric is scaled by this over the loop's time
#: measured in the same pass or process, as ``tools/perf_ratchet.py``
#: normalizes throughput: on shared hosts, speed swings by tens of percent
#: between runs and the scaling halves that swing. Changing it rescales
#: every time metric.
CALIBRATION_REF_S = 0.0025
#: Seconds of runs between two calibration samples.
CALIBRATION_EVERY_S = 0.25


def _calibration_loop() -> None:
    """Fixed standard-library work: heap pushes and pops, dict updates."""
    heap: list = []
    counts: dict = {}
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, (i, counts)))
        counts[i % 97] = counts.get(i % 97, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)


def calibrate(samples: int = 3) -> float:
    """The calibration loop's best host time over ``samples`` tries."""
    best = float("inf")
    for _ in range(samples):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def _scaled_setup(seconds: float) -> float:
    """A set-up time scaled to the reference host's speed."""
    return seconds * CALIBRATION_REF_S / calibrate(5)


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sources at {SRC / 'repro'}; run from a "
                 "full checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def set_up(name: str, seed: int, references=None, **sizes):
    """Import, build the inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads
    if references is None:
        references = workloads.load_references()
    workload = workloads.WORKLOADS[name](seed, references, **sizes)
    for item in workload.warm_items:
        workload.run(item)
    return workload, time.perf_counter() - start


def _probe_setup(name: str, seed: int) -> float:
    """One scaled set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


@dataclass
class Measurement:
    inputs: int
    durations: list = field(default_factory=list)
    #: Per pass: reference host speed over the host's speed in that pass.
    scales: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    pass_failure: str | None = None

    @property
    def seconds(self) -> float:
        return sum(self.durations)

    @property
    def passes(self) -> int:
        return len(self.durations) // self.inputs

    def best(self) -> list:
        """Each input's fastest scaled run over the passes (best-of-N)."""
        n = self.inputs
        return [min(self.durations[p * n + j] * scale
                    for p, scale in enumerate(self.scales))
                for j in range(n)]


def measure(workload, items, passes: int) -> Measurement:
    """Closed loop of ``passes`` whole passes over ``items``.

    Only the run itself is timed; checking its output is not.
    """
    clock = time.perf_counter
    m = Measurement(inputs=len(items))
    for _ in range(passes):
        samples = [calibrate()]
        since = 0.0
        for item in items:
            t0 = clock()
            output = workload.run(item)
            elapsed = clock() - t0
            m.durations.append(elapsed)
            detail = workload.check(item, output)
            if detail is not None:
                m.failures.append(detail)
            since += elapsed
            if since >= CALIBRATION_EVERY_S:
                samples.append(calibrate())
                since = 0.0
        m.scales.append(CALIBRATION_REF_S / statistics.median(samples))
    m.pass_failure = workload.pass_check()
    return m


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int, preferred: float) -> float:
    """``preferred`` if at least ten of ``n`` runs lie beyond it, else the
    highest fallback that has them (50 if none has)."""
    for pct in (preferred,) + tuple(p for p in TAIL_FALLBACKS
                                    if p < preferred):
        if n * (100.0 - pct) >= 1000.0:
            return pct
    return 50.0


def _result(m_list, metrics: dict) -> dict:
    attempted = sum(len(m.durations) for m in m_list)
    failed = sum(len(m.failures) for m in m_list)
    correct = failed == 0 and all(m.pass_failure is None for m in m_list)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _report_failures(m_list) -> None:
    for m in m_list:
        for detail in m.failures[:5]:
            print(f"  FAILED {detail}")
        if m.pass_failure:
            print(f"  FAILED pass check: {m.pass_failure}")


def end_to_end(name: str, seed: int, seconds: float,
               setup_samples: int = SETUP_SAMPLES, **sizes) -> dict:
    workload, setup_here = set_up(name, seed, **sizes)
    setups = [_scaled_setup(setup_here)] + [_probe_setup(name, seed)
                             for _ in range(setup_samples - 1)]
    # A fixed number of passes for a given --seconds, whatever the speed,
    # so that every commit's runs take the best of the same N.
    passes = max(1, int(seconds // workload.pass_s))
    m = measure(workload, workload.items, passes)
    best = m.best()
    pct = tail_percentile(len(best), workload.tail_pct)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "runs_per_s": len(best) / sum(best),
        "run_s_p50": percentile(best, 50.0),
        "run_s_tail": percentile(best, pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"runs_per_s": "1/s", "peak_rss_mb": "MB"}
    runs = len(m.durations)
    print(f"workload {name} seed {seed}: {runs} runs, {m.passes} passes "
          f"over {m.inputs} inputs, {m.seconds:.3f} s measured; closed "
          "loop, 1 client, in-process")
    print(f"  run times are each input's best of {m.passes} runs, scaled "
          f"by pass to the reference host (scales "
          + ", ".join(f"{x:.3f}" for x in m.scales) + "); unscaled, all "
          f"runs: {runs / m.seconds:.4g} runs/s, "
          f"p50 {percentile(m.durations, 50.0):.4g} s")
    print(f"  run_s_tail is p{pct:g}: {m.inputs * (100 - pct) / 100:.1f} "
          f"of {m.inputs} inputs lie beyond it")
    print(f"  setup_s is the median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups))
    print(f"  failed_frac {len(m.failures) / runs:g}: {len(m.failures)} of "
          f"{runs} runs differ from their recorded reference")
    _report_failures([m])
    return _result([m], {k: {"value": v, "unit": units.get(k, "s")}
                         for k, v in metrics.items()})


def traced(name: str, seed: int, **sizes) -> dict:
    workload, _ = set_up(name, seed, **sizes)
    import spans
    items = workload.traced_items
    plain = measure(workload, items, 1)
    recorder = spans.SpanRecorder()
    recorder.install(workload)
    try:
        with_spans = measure(workload, items, 1)
    finally:
        recorder.uninstall()
    overhead = with_spans.seconds / plain.seconds
    values = recorder.layer_metrics(overhead)
    path = recorder.write(OUT_DIR, f"spans-{name}",
                          {"workload": name, "seed": seed,
                           "runs": len(items), "metrics": values})
    print(f"workload {name} seed {seed}: one pass of {len(items)} runs, "
          f"{plain.seconds:.3f} s untraced, {with_spans.seconds:.3f} s "
          f"traced; spans in {path.parent}")
    print("  process bodies that no wrapper covers count toward "
          "sim.run_self_s; wrapper overhead counts toward the caller")
    for metric, value in values.items():
        unit, _, moves = spans.LAYER_METRICS[metric]
        print(f"  {metric:<34} {value:>14.6g} {unit:<6} moves: {moves}")
    _report_failures([plain, with_spans])
    return _result([plain, with_spans],
                   {k: {"value": v, "unit": spans.LAYER_METRICS[k][0]}
                    for k, v in values.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "golden", "table9"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print its duration as JSON")
    args = parser.parse_args(argv)
    _use_checkout_sources()
    if args.setup_only:
        _, seconds = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": _scaled_setup(seconds)}))
        return 0
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
