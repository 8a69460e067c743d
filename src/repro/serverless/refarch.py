"""The SPEC-RG FaaS reference architecture ([103]).

After surveying ~50 serverless platforms, the SPEC RG Cloud group
identified the common processes and components of seemingly widely
varying systems. The component list below follows that reference
architecture's layers (resource orchestration, function management,
workflow composition, business logic); :data:`KNOWN_PLATFORMS` maps
stylized real platforms onto it, and :func:`platform_coverage` measures
how completely a platform realizes the architecture — the input any good
serverless benchmark design needs (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class FaaSComponent:
    """One component of the reference architecture."""

    name: str
    layer: str
    description: str = ""


#: The reference architecture's components, by layer.
FAAS_COMPONENTS: dict[str, FaaSComponent] = {c.name: c for c in [
    # Resource layer: where functions actually run.
    FaaSComponent("resource-orchestration", "resources",
                  "cluster/container orchestration under the platform"),
    FaaSComponent("naming-service", "resources",
                  "service discovery for function endpoints"),
    # Function management layer.
    FaaSComponent("function-registry", "function-management",
                  "stores function code/specs and versions"),
    FaaSComponent("function-builder", "function-management",
                  "packages source into runnable images"),
    FaaSComponent("function-deployer", "function-management",
                  "places function instances onto resources"),
    FaaSComponent("function-router", "function-management",
                  "routes events/requests to instances"),
    FaaSComponent("function-autoscaler", "function-management",
                  "scales instances with demand, to zero"),
    FaaSComponent("function-instance", "function-management",
                  "the executing unit with its runtime"),
    # Workflow composition layer.
    FaaSComponent("workflow-registry", "workflow-composition",
                  "stores workflow definitions"),
    FaaSComponent("workflow-engine", "workflow-composition",
                  "drives multi-function compositions"),
    FaaSComponent("workflow-scheduler", "workflow-composition",
                  "decides when/where workflow steps run"),
    # Business logic / ops.
    FaaSComponent("event-sources", "business-logic",
                  "triggers: HTTP, queues, timers, storage events"),
    FaaSComponent("monitoring", "operations",
                  "metrics, logs, tracing of invocations"),
    FaaSComponent("billing", "operations",
                  "fine-grained pay-per-use accounting"),
]}


#: Stylized component inventories of surveyed platforms.
KNOWN_PLATFORMS: dict[str, frozenset[str]] = {
    "aws-lambda": frozenset({
        "resource-orchestration", "naming-service", "function-registry",
        "function-builder", "function-deployer", "function-router",
        "function-autoscaler", "function-instance", "event-sources",
        "monitoring", "billing"}),
    "aws-lambda+step-functions": frozenset({
        "resource-orchestration", "naming-service", "function-registry",
        "function-builder", "function-deployer", "function-router",
        "function-autoscaler", "function-instance", "workflow-registry",
        "workflow-engine", "workflow-scheduler", "event-sources",
        "monitoring", "billing"}),
    "fission": frozenset({
        "resource-orchestration", "function-registry", "function-builder",
        "function-deployer", "function-router", "function-autoscaler",
        "function-instance", "event-sources", "monitoring"}),
    "fission+workflows": frozenset({
        "resource-orchestration", "function-registry", "function-builder",
        "function-deployer", "function-router", "function-autoscaler",
        "function-instance", "workflow-registry", "workflow-engine",
        "workflow-scheduler", "event-sources", "monitoring"}),
    "openwhisk": frozenset({
        "resource-orchestration", "naming-service", "function-registry",
        "function-deployer", "function-router", "function-autoscaler",
        "function-instance", "event-sources", "monitoring", "billing"}),
    "bare-container-platform": frozenset({
        "resource-orchestration", "naming-service", "monitoring"}),
}


def platform_coverage(components: Sequence[str] | frozenset[str]) -> float:
    """Fraction of the reference architecture a platform realizes."""
    unknown = set(components) - set(FAAS_COMPONENTS)
    if unknown:
        raise KeyError(f"unknown components: {sorted(unknown)}")
    return len(set(components)) / len(FAAS_COMPONENTS)


def layer_coverage(components: Sequence[str] | frozenset[str]
                   ) -> dict[str, float]:
    """Per-layer coverage — where a platform is strong or absent."""
    present = set(components)
    layers: dict[str, list[str]] = {}
    for comp in FAAS_COMPONENTS.values():
        layers.setdefault(comp.layer, []).append(comp.name)
    return {
        layer: sum(1 for n in names if n in present) / len(names)
        for layer, names in sorted(layers.items())
    }
