"""Traced mode: spans around each layer's public entry points.

The benchmark never edits ``src/``. In a traced pass it replaces the
entry points listed in :data:`TARGETS` with wrappers that record one span
per call (name, parent, start, end) into flat in-memory columns, then puts
the originals back. Each span's layer is the ``repro`` package that
defines the wrapped function, as :func:`repro.analysis.layers.
layer_for_module` names it, so ``faults/chaos.py`` and
``observability/scenarios.py`` count as ``harness``.

A layer's self time is the duration of its spans minus the part their
child spans cover. Code that no wrapper covers is charged to the nearest
wrapped caller: process bodies run inside ``Environment.run`` and so count
toward ``sim.run_self_s``, and wrapper overhead of a child span counts
toward its parent (``trace.overhead_ratio`` reports the total).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from repro.analysis.layers import layer_for_module

#: Wrapped entry points as (module, qualified name).
TARGETS = [
    ("repro.sim.environment", "Environment.run"),
    ("repro.sim.network", "Network.send"),
    ("repro.sim.monitor", "Monitor.count"),
    ("repro.sim.monitor", "Monitor.record"),
    ("repro.sim.monitor", "Counter.incr"),
    ("repro.faults.partition", "NetworkPartitionModel.blocks"),
    ("repro.faults.partition", "GrayFailureModel.drops"),
    ("repro.faults.partition", "GrayFailureModel.extra_latency_s"),
    ("repro.faults.partition", "GrayFailureModel.service_factor"),
    ("repro.faults.partition", "GrayFailureModel.should_error"),
    ("repro.faults.partition", "ScheduledMessageLoss.drops"),
    ("repro.faults.models", "TransientErrorModel.should_fail"),
    ("repro.faults.models", "StragglerModel.runtime_factor"),
    ("repro.faults.models", "MessageLossModel.transfer"),
    ("repro.resilience.detection", "PhiAccrualDetector.heartbeat"),
    ("repro.resilience.detection", "PhiAccrualDetector.phi"),
    ("repro.resilience.detection", "PhiAccrualDetector.is_suspect"),
    ("repro.invariants.engine", "InvariantEngine.check_now"),
    ("repro.invariants.laws", "ConservationLaw.check"),
    ("repro.replication.fencing", "FencingGate.advance"),
    ("repro.replication.fencing", "FencingGate.raise_floor"),
    ("repro.replication.fencing", "FencingGate.dispatch_token"),
    ("repro.replication.fencing", "FencingGate.admit_dispatch"),
    ("repro.replication.fencing", "FencingGate.report_token"),
    ("repro.replication.fencing", "FencingGate.admit_report"),
    ("repro.replication.election", "LeaseElection.believes_leader"),
    ("repro.replication.election", "LeaseElection.leader_of"),
    ("repro.replication.election", "LeaseElection.term_of"),
    ("repro.replication.election", "LeaseElection.depose"),
    ("repro.replication.shipping", "JournalReplicator.set_leader"),
    ("repro.replication.shipping", "JournalReplicator.applied_seq"),
    ("repro.replication.shipping", "JournalReplicator.lag_of"),
    ("repro.recovery.journal", "Journal.append"),
    ("repro.recovery.store", "CheckpointStore.save"),
    ("repro.recovery.store", "CheckpointStore.restore"),
    ("repro.analysis.sanitizers", "TraceDigest.__call__"),
    ("repro.campaign.oracles", "OracleStack.evaluate_run"),
    ("repro.campaign.oracles", "execute_schedule"),
    ("repro.faults.chaos", "run_serverless_scenario"),
    ("repro.faults.chaos", "run_scheduling_scenario"),
    ("repro.faults.chaos", "run_recovery_scenario"),
    ("repro.faults.chaos", "run_partition_scenario"),
    ("repro.faults.chaos", "run_failover_scenario"),
    ("repro.observability.scenarios", "run_scenario"),
    ("repro.observability.scenarios", "scenario_serverless"),
    ("repro.observability.scenarios", "scenario_scheduling"),
    ("repro.observability.scenarios", "scenario_p2p"),
    ("repro.observability.scenarios", "scenario_graphalytics"),
    ("repro.observability.scenarios", "scenario_mmog"),
    ("repro.observability.scenarios", "scenario_autoscaling"),
    ("repro.observability.scenarios", "scenario_recovery"),
    ("repro.observability.scenarios", "scenario_partition"),
    ("repro.observability.scenarios", "scenario_failover"),
    ("repro.observability.trace", "Tracer.start_span"),
    ("repro.observability.trace", "Tracer.end_span"),
    ("repro.serverless.platform", "FaaSPlatform.deploy"),
    ("repro.serverless.platform", "FaaSPlatform.invoke"),
    ("repro.p2p.swarm", "run_swarm"),
    ("repro.mmog.provisioning", "run_brownout_provisioning"),
    ("repro.graphalytics.robustness", "run_supersteps_with_recovery"),
    ("repro.autoscaling.experiment", "run_autoscaling_experiment"),
    ("repro.scheduling.experiments", "run_static"),
    ("repro.scheduling.experiments", "run_portfolio"),
    ("repro.scheduling.portfolio", "predict_objective"),
    ("repro.scheduling.simulator", "ClusterSimulator.submit_jobs"),
    ("repro.scheduling.simulator", "ClusterSimulator.submit_task"),
    ("repro.scheduling.simulator", "ClusterSimulator.metrics"),
    ("repro.cluster.cluster", "Cluster.first_fit"),
    ("repro.workload.generators", "generate_domain_workload"),
]

#: Counts the program already reports in the result dicts of the chaos
#: worlds; summed over every wrapped ``faults/chaos.py`` call.
RESULT_KEYS = ("messages_sent", "messages_delivered", "suspicions",
               "false_suspicions", "records_shipped", "ship_resends",
               "invariant_violations")

#: Modules outside ``repro`` whose module-level references to a wrapped
#: function are swapped too (the benchmark's own workload code).
EXTRA_MODULES = ("workloads",)

#: Per-layer metric -> (unit, better, the end-to-end metric it should move).
LAYER_METRICS = {
    "sim.events": ("count", "lower",
                   "exact count; must never move"),
    "sim.run_self_s": ("s", "lower", "runs_per_s on all three workloads"),
    "sim.us_per_event": ("us", "lower",
                         "runs_per_s on all three (instrumented tier on "
                         "campaign, fast tier on golden and table9)"),
    "sim.net_sends": ("count", "lower",
                      "campaign runs_per_s, golden run_s_tail"),
    "sim.net_send_self_s": ("s", "lower",
                            "campaign runs_per_s, golden run_s_tail"),
    "sim.net_delivered_ratio": ("ratio", "higher",
                                "campaign runs_per_s, golden run_s_tail"),
    "sim.monitor_calls": ("count", "lower",
                          "campaign runs_per_s, golden run_s_tail"),
    "sim.monitor_self_s": ("s", "lower",
                           "campaign runs_per_s, golden run_s_tail"),
    "faults.model_calls": ("count", "lower",
                           "campaign runs_per_s, golden run_s_tail"),
    "faults.self_s": ("s", "lower", "campaign runs_per_s, golden run_s_tail"),
    "resilience.heartbeats": ("count", "lower",
                              "campaign runs_per_s, golden run_s_tail"),
    "resilience.phi_calls": ("count", "lower",
                             "campaign runs_per_s, golden run_s_tail"),
    "resilience.self_s": ("s", "lower",
                          "campaign runs_per_s, golden run_s_tail"),
    "resilience.false_suspicion_ratio": (
        "ratio", "lower", "campaign runs_per_s, golden run_s_tail"),
    "invariants.audits": ("count", "lower",
                          "campaign runs_per_s, golden run_s_tail"),
    "invariants.law_checks": ("count", "lower",
                              "campaign runs_per_s, golden run_s_tail"),
    "invariants.self_s": ("s", "lower",
                          "campaign runs_per_s, golden run_s_tail"),
    "invariants.violations": ("count", "lower", "must be 0"),
    "replication.records_shipped": ("count", "lower",
                                    "golden run_s_tail, campaign"),
    "replication.resend_ratio": ("ratio", "lower",
                                 "golden run_s_tail, campaign"),
    "replication.self_s": ("s", "lower", "golden run_s_tail, campaign"),
    "recovery.journal_appends": ("count", "lower",
                                 "golden run_s_tail, campaign"),
    "recovery.checkpoints": ("count", "lower", "golden run_s_tail, campaign"),
    "recovery.self_s": ("s", "lower", "golden run_s_tail, campaign"),
    "analysis.digest_events": ("count", "lower", "campaign runs_per_s only"),
    "analysis.digest_self_s": ("s", "lower", "campaign runs_per_s only"),
    "campaign.executions": ("count", "lower", "campaign runs_per_s only"),
    "campaign.rerun_share": ("ratio", "lower", "campaign runs_per_s only"),
    "campaign.self_s": ("s", "lower", "campaign runs_per_s only"),
    "harness.self_s": ("s", "lower", "run_s_p50 and setup_s"),
    "observability.spans": ("count", "lower",
                            "golden run_s_p50 and peak_rss_mb"),
    "observability.self_s": ("s", "lower", "golden run_s_p50"),
    "serverless.self_s": ("s", "lower", "golden run_s_p50"),
    "p2p.self_s": ("s", "lower", "golden run_s_p50"),
    "mmog.self_s": ("s", "lower", "golden run_s_p50"),
    "graphalytics.self_s": ("s", "lower", "golden run_s_p50"),
    "autoscaling.self_s": ("s", "lower", "golden run_s_p50"),
    "scheduling.predict_calls": ("count", "lower",
                                 "table9 runs_per_s and run_s_tail"),
    "scheduling.predict_self_s": ("s", "lower",
                                  "table9 runs_per_s and run_s_tail"),
    "scheduling.policy_epochs": ("count", "lower",
                                 "table9 runs_per_s and run_s_tail"),
    "scheduling.self_s": ("s", "lower", "table9 runs_per_s and run_s_tail"),
    "cluster.fit_calls": ("count", "lower",
                          "table9 runs_per_s and run_s_tail"),
    "cluster.self_s": ("s", "lower", "table9 runs_per_s and run_s_tail"),
    "workload.self_s": ("s", "lower", "table9 runs_per_s and run_s_tail"),
    "trace.overhead_ratio": ("ratio", "lower",
                             "traced over untraced wall time of one pass"),
}


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, function) for one :data:`TARGETS` entry."""
    module = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr]
    if not inspect.isfunction(fn):
        raise TypeError(f"{module_name}.{qualname} is not a plain function")
    return owner, attr, fn


class SpanRecorder:
    """Flat span columns plus the counts wrapped calls report.

    Span ``i`` is row ``i`` of :attr:`parent`, :attr:`name`,
    :attr:`start_ns` and :attr:`end_ns`; a parent of -1 marks a root.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.parent = array("q")
        self.name = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.stack = [-1]
        self.counts = dict.fromkeys(RESULT_KEYS, 0)
        self.counts["events"] = 0
        self.counts["policy_epochs"] = 0
        self._undo: list = []
        self._bench = self._name_id("bench:run", "bench")

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, nid: int, original):
        parent, names = self.parent.append, self.name.append
        starts, ends = self.start_ns.append, self.end_ns
        ends_append, stack, calls = self.end_ns.append, self.stack, self.calls
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: a suspended generator is waiting on
            # simulated time, which costs no host time.
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                gen = fn(*args, **kwargs)
                value, error = None, None
                while True:
                    sid = len(ends)
                    parent(stack[-1])
                    names(nid)
                    ends_append(0)
                    stack.append(sid)
                    starts(clock())
                    try:
                        if error is None:
                            yielded = gen.send(value)
                        else:
                            yielded = gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        ends[sid] = clock()
                        stack.pop()
                    try:
                        value, error = (yield yielded), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # re-thrown into gen
                        value, error = None, exc
        else:
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                sid = len(ends)
                parent(stack[-1])
                names(nid)
                ends_append(0)
                stack.append(sid)
                starts(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[sid] = clock()
                    stack.pop()

        return functools.update_wrapper(wrapper, original)

    def _observed(self, fn):
        """``fn`` plus the counts it reports (events, result dicts)."""
        counts = self.counts
        if fn.__qualname__ == "Environment.run":
            def run(env, *args, **kwargs):
                before = env.dispatch_count
                try:
                    return fn(env, *args, **kwargs)
                finally:
                    counts["events"] += env.dispatch_count - before
            return run
        if fn.__module__ == "repro.faults.chaos":
            def world(*args, **kwargs):
                result = fn(*args, **kwargs)
                for key in RESULT_KEYS:
                    counts[key] += result.get(key, 0)
                return result
            return world
        if fn.__qualname__ == "run_portfolio":
            def portfolio(*args, **kwargs):
                metrics, stats = fn(*args, **kwargs)
                counts["policy_epochs"] += stats.simulated_policy_epochs
                return metrics, stats
            return portfolio
        return fn

    def install(self, workload) -> None:
        """Swap every target for its wrapper, everywhere it is bound, and
        open a root span around each of ``workload``'s runs."""
        run = workload.run
        workload.run = self._wrap(run, self._bench, run)
        self._undo.append(lambda: delattr(workload, "run"))
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("repro") or n in EXTRA_MODULES]
        for module_name, qualname in TARGETS:
            owner, attr, fn = _resolve(module_name, qualname)
            layer = layer_for_module(fn.__module__, fn.__code__.co_filename)
            nid = self._name_id(f"{layer}:{fn.__qualname__}", layer)
            wrapped = self._wrap(self._observed(fn), nid, fn)
            if inspect.isclass(owner):
                self._set(owner, attr, fn, wrapped)
                continue
            # A module-level function is also bound under its name in every
            # module that imported it, and in registries such as SCENARIOS.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, fn, wrapped)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is fn:
                                self._set_item(value, k, fn, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _set_item(self, mapping, key, original, wrapped) -> None:
        mapping[key] = wrapped
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(span count, self seconds) per name id."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end_ns, dtype=np.int64)
               - np.frombuffer(self.start_ns, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        n = len(self.names)
        return (np.bincount(name, minlength=n),
                np.bincount(name, weights=self_s, minlength=n))

    def table(self) -> list[dict]:
        """One row per span name: layer, calls, spans, self seconds."""
        spans, self_s = self.self_times()
        return [{"name": name, "layer": layer, "calls": self.calls[i],
                 "spans": int(spans[i]), "self_s": float(self_s[i])}
                for i, (name, layer) in enumerate(zip(self.names,
                                                      self.layers))]

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Every metric in :data:`LAYER_METRICS`, as ``{name: value}``."""
        rows = self.table()
        calls = {r["name"].split(":", 1)[1]: r["calls"] for r in rows}
        self_of = {r["name"].split(":", 1)[1]: r["self_s"] for r in rows}
        layer_self: dict[str, float] = {}
        layer_calls: dict[str, int] = {}
        for r in rows:
            layer_self[r["layer"]] = layer_self.get(r["layer"], 0.0) \
                + r["self_s"]
            layer_calls[r["layer"]] = layer_calls.get(r["layer"], 0) \
                + r["calls"]
        c = self.counts
        monitor = ("Monitor.count", "Monitor.record", "Counter.incr")
        run_self = self_of["Environment.run"]
        executions = calls["execute_schedule"]
        values = {
            "sim.events": c["events"],
            "sim.run_self_s": run_self,
            "sim.us_per_event": _ratio(run_self * 1e6, c["events"]),
            "sim.net_sends": calls["Network.send"],
            "sim.net_send_self_s": self_of["Network.send"],
            "sim.net_delivered_ratio": _ratio(c["messages_delivered"],
                                              c["messages_sent"]),
            "sim.monitor_calls": sum(calls[m] for m in monitor),
            "sim.monitor_self_s": sum(self_of[m] for m in monitor),
            "faults.model_calls": layer_calls.get("faults", 0),
            "faults.self_s": layer_self.get("faults", 0.0),
            "resilience.heartbeats": calls["PhiAccrualDetector.heartbeat"],
            "resilience.phi_calls": calls["PhiAccrualDetector.phi"],
            "resilience.self_s": layer_self.get("resilience", 0.0),
            "resilience.false_suspicion_ratio": _ratio(
                c["false_suspicions"], c["suspicions"]),
            "invariants.audits": calls["InvariantEngine.check_now"],
            "invariants.law_checks": calls["ConservationLaw.check"],
            "invariants.self_s": layer_self.get("invariants", 0.0),
            "invariants.violations": c["invariant_violations"],
            "replication.records_shipped": c["records_shipped"],
            "replication.resend_ratio": _ratio(c["ship_resends"],
                                               c["records_shipped"]),
            "replication.self_s": layer_self.get("replication", 0.0),
            "recovery.journal_appends": calls["Journal.append"],
            "recovery.checkpoints": calls["CheckpointStore.save"],
            "recovery.self_s": layer_self.get("recovery", 0.0),
            "analysis.digest_events": calls["TraceDigest.__call__"],
            "analysis.digest_self_s": self_of["TraceDigest.__call__"],
            "campaign.executions": executions,
            "campaign.rerun_share": _ratio(
                executions - calls["OracleStack.evaluate_run"], executions),
            "campaign.self_s": layer_self.get("campaign", 0.0),
            "harness.self_s": layer_self.get("harness", 0.0),
            "observability.spans": calls["Tracer.start_span"],
            "observability.self_s": layer_self.get("observability", 0.0),
            "scheduling.predict_calls": calls["predict_objective"],
            "scheduling.predict_self_s": self_of["predict_objective"],
            "scheduling.policy_epochs": c["policy_epochs"],
            "scheduling.self_s": layer_self.get("scheduling", 0.0),
            "cluster.fit_calls": calls["Cluster.first_fit"],
            "cluster.self_s": layer_self.get("cluster", 0.0),
            "workload.self_s": layer_self.get("workload", 0.0),
            "trace.overhead_ratio": overhead_ratio,
        }
        for domain in ("serverless", "p2p", "mmog", "graphalytics",
                       "autoscaling"):
            values[f"{domain}.self_s"] = layer_self.get(domain, 0.0)
        return {name: values[name] for name in LAYER_METRICS}

    def write(self, directory: Path, stem: str, extra: dict) -> Path:
        """Write the spans (``.npz``) and the per-name table (``.json``)."""
        directory.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            directory / f"{stem}.npz",
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
            names=np.array(self.names))
        path = directory / f"{stem}.json"
        path.write_text(json.dumps({**extra, "spans": self.table()},
                                   indent=1) + "\n")
        return path


def _ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0.0 where the workload has no base."""
    return numerator / base if base else 0.0
