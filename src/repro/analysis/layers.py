"""The architecture manifests: layering DAG, hot files, event loops.

This module is the checked-in, reviewable statement of the repo's
architecture — rule SL008 enforces :data:`LAYERS`/:data:`FILE_LAYERS`,
and the perf rule SL009 reads :data:`HOT_FILE_SUFFIXES`,
:data:`SLOTS_REQUIRED` and :data:`EVENT_LOOP_FUNCTIONS`. Changing an
architectural dependency therefore *is* a diff to this file, not a
silent drift. ``docs/architecture.md`` renders the same DAG as a table
and is parse-tested against this manifest.
"""

from __future__ import annotations

__all__ = [
    "DOMAIN_DEPS", "EVENT_LOOP_FUNCTIONS", "FILE_LAYERS", "HARNESS",
    "HOT_FILE_SUFFIXES", "LAYERS", "SLOTS_REQUIRED", "layer_for_module",
]

#: The wildcard layer: composition harnesses that exist to wire every
#: other layer together (chaos scenarios, the golden-trace corpus).
#: Modules mapped here by :data:`FILE_LAYERS` may import anything.
HARNESS = "harness"

#: What the experiment domains may depend on. Domains sit mid-stack:
#: they build on the kernel, fault models, resilience patterns,
#: recovery machinery, workload generators, and the cluster model —
#: never on each other or on the observability/analysis layers above.
DOMAIN_DEPS = frozenset(
    {"sim", "faults", "resilience", "recovery", "workload", "cluster"})

#: package under ``repro/`` -> packages it may import from. A package
#: may always import itself; anything not listed here is a finding (new
#: packages must be placed in the DAG on arrival).
LAYERS: dict[str, frozenset[str]] = {
    # -- foundation: the deterministic kernel imports nothing ------------
    "sim": frozenset(),
    # -- design-process framework (paper §5): pure, kernel-free ----------
    "core": frozenset(),
    "refarch": frozenset({"core"}),
    # -- first ring: each builds on the kernel alone ---------------------
    "analysis": frozenset({"sim"}),
    "faults": frozenset({"sim"}),
    "resilience": frozenset({"sim"}),
    "recovery": frozenset({"sim", "faults"}),
    "workload": frozenset({"sim"}),
    "invariants": frozenset({"sim"}),
    # -- infrastructure models -------------------------------------------
    "cluster": frozenset({"sim", "faults", "workload"}),
    #: Hot-standby control plane: election + shipping + fencing. Built on
    #: detection (resilience) and the WAL (recovery); the scheduler it
    #: replicates is duck-typed, never imported (no upward edge).
    "replication": frozenset({"sim", "resilience", "recovery"}),
    # -- experiment domains ----------------------------------------------
    "autoscaling": DOMAIN_DEPS,
    "bibliometrics": frozenset({"sim", "workload"}),
    "bigdata": frozenset({"sim", "workload"}),
    "graphalytics": DOMAIN_DEPS,
    "mmog": DOMAIN_DEPS,
    "p2p": DOMAIN_DEPS,
    "scheduling": DOMAIN_DEPS,
    "serverless": DOMAIN_DEPS,
    # -- top: cross-cutting observation (never imported by domains) ------
    "observability": frozenset({"sim"}),
    #: Chaos-fuzzing campaigns: generates fault schedules (sim RNG
    #: streams), executes them through the chaos harness (faults), and
    #: judges runs with trace digests (analysis sanitizers). Sits at the
    #: top next to observability; nothing imports it.
    "campaign": frozenset({"sim", "faults", "analysis"}),
}

#: Per-file overrides (matched by path suffix). The two harness modules
#: deliberately import the whole stack; everything else in their
#: packages stays bound by :data:`LAYERS`.
FILE_LAYERS: dict[str, str] = {
    "repro/faults/chaos.py": HARNESS,
    "repro/observability/scenarios.py": HARNESS,
}


def layer_for_module(module: str, path: str) -> str | None:
    """Layer name for a dotted module, or None when out of scope.

    ``path`` is consulted for :data:`FILE_LAYERS` suffix overrides.
    """
    norm = path.replace("\\", "/")
    for suffix, layer in FILE_LAYERS.items():
        if norm.endswith(suffix):
            return layer
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return None


#: Files whose classes sit on the per-event hot path: every class here
#: that is an Event subclass (or listed in :data:`SLOTS_REQUIRED`) must
#: declare ``__slots__`` (SL009).
HOT_FILE_SUFFIXES: tuple[str, ...] = (
    "repro/sim/events.py",
    "repro/sim/environment.py",
    "repro/sim/resources.py",
    "repro/sim/network.py",
    "repro/scheduling/simulator.py",
    "repro/serverless/platform.py",
    "repro/observability/trace.py",
)

#: Non-Event classes that are nevertheless created or touched per event
#: and must be slotted (SL009). Keyed by qualname.
SLOTS_REQUIRED: frozenset[str] = frozenset({
    "repro.sim.environment.Environment",
    "repro.sim.network.Network",
    "repro.observability.trace.Span",
    "repro.observability.trace.SpanEvent",
    "repro.serverless.platform.Invocation",
})

#: Designated event-loop functions: the inner loops the whole simulator
#: funnels through. Inside these, SL009 flags repeated ``self.<attr>``
#: loads under a loop (pre-bind them to locals; attributes the function
#: itself assigns are exempt — they are genuinely mutable state).
EVENT_LOOP_FUNCTIONS: frozenset[str] = frozenset({
    "repro.sim.environment.Environment.run",
    "repro.sim.network.Network.send",
    "repro.scheduling.simulator.ClusterSimulator._try_schedule",
})
