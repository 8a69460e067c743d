"""Serverless computing and FaaS (paper §6.4, Table 7).

- :mod:`repro.serverless.platform` — a FaaS platform on the DES kernel:
  function registry, instance pools with cold starts and keep-alive,
  request routing, autoscaled concurrency, fine-grained (GB-second)
  billing — the three serverless principles of the paper's [101];
- :mod:`repro.serverless.workflow` — a Fission-Workflows-style engine
  executing function DAGs over the platform;
- :mod:`repro.serverless.refarch` — the SPEC-RG FaaS reference
  architecture ([103]): the common components of seemingly widely varying
  platforms, and platform-to-architecture mapping.
"""

from repro.serverless.platform import (
    FaaSPlatform,
    FunctionSpec,
    Invocation,
    PlatformConfig,
)
from repro.serverless.workflow import (
    FunctionWorkflow,
    WorkflowEngine,
    WorkflowRun,
)
from repro.serverless.refarch import (
    FAAS_COMPONENTS,
    FaaSComponent,
    KNOWN_PLATFORMS,
    platform_coverage,
)

__all__ = [
    "FAAS_COMPONENTS",
    "FaaSComponent",
    "FaaSPlatform",
    "FunctionSpec",
    "FunctionWorkflow",
    "Invocation",
    "KNOWN_PLATFORMS",
    "PlatformConfig",
    "WorkflowEngine",
    "WorkflowRun",
    "platform_coverage",
]
