"""simlint: static analysis and runtime sanitizers for the sim kernel.

The deterministic :class:`repro.sim.Environment` and the named
:class:`repro.sim.RandomStreams` only deliver reproducibility (the paper's
Challenge C3) if every domain model keeps honoring their contracts — no
hidden global RNG state, no wall clock, events only from the environment,
resources released on every path. This package makes those obligations
machine-checked:

- :mod:`repro.analysis.rules` — the per-file AST lint rules SL001–SL006
  and SL011;
- :mod:`repro.analysis.graph` — the project symbol table and call graph
  behind the whole-program rules;
- :mod:`repro.analysis.layers` — the checked-in architecture manifest
  (package layering DAG, hot files, slots/event-loop registries);
- :mod:`repro.analysis.project_rules` — the interprocedural rules: the
  flow-aware SL001 RNG-provenance pass plus SL007–SL010;
- :mod:`repro.analysis.lint` — the CLI / API driver
  (``python -m repro.analysis.lint src/``);
- :mod:`repro.analysis.sanitizers` — opt-in runtime checks: the
  determinism sanitizer (same seed ⇒ same event trace), the
  resource-leak sanitizer (no outstanding acquires at teardown), and the
  shared-state sanitizer (no unordered same-timestamp writes).
"""

from repro.analysis.rules import Finding, RULES, lint_source
from repro.analysis.graph import Project, build_project
from repro.analysis.layers import LAYERS, layer_for_module
from repro.analysis.project_rules import PROJECT_RULES, run_project_rules

_LAZY = {
    "lint_file": "lint", "lint_paths": "lint", "lint_sources": "lint",
    "main": "lint",
    "DeterminismSanitizer": "sanitizers", "DeterminismViolation": "sanitizers",
    "Livelock": "sanitizers",
    "ResourceLeakError": "sanitizers", "ResourceLeakSanitizer": "sanitizers",
    "SharedStateSanitizer": "sanitizers", "SharedStateViolation": "sanitizers",
    "TraceDigest": "sanitizers",
    "WatchedDict": "sanitizers", "WatchedList": "sanitizers",
    "WatchedSet": "sanitizers",
}


# The CLI and the sanitizers load lazily: the linter itself is pure stdlib
# (a bare CI runner can `python -m repro.analysis.lint` without the sim
# stack's numpy dependency), and eagerly importing the CLI module here
# would trip runpy's double-import warning under `python -m`.
def __getattr__(name):
    module = _LAZY.get(name)
    if module is not None:
        import importlib
        return getattr(
            importlib.import_module(f"repro.analysis.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DeterminismSanitizer",
    "DeterminismViolation",
    "Finding",
    "LAYERS",
    "Livelock",
    "PROJECT_RULES",
    "Project",
    "ResourceLeakError",
    "ResourceLeakSanitizer",
    "RULES",
    "SharedStateSanitizer",
    "SharedStateViolation",
    "TraceDigest",
    "WatchedDict",
    "WatchedList",
    "WatchedSet",
    "build_project",
    "layer_for_module",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "run_project_rules",
]
