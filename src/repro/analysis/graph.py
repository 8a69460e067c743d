"""Project symbol table and call graph for whole-program lint passes.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time; the project rules (SL007–SL010 and the interprocedural SL001
flow pass in :mod:`repro.analysis.project_rules`) need to know *who
calls whom* across the tree. This module builds that view with nothing
but :mod:`ast`:

- :func:`build_project` parses a ``{path: source}`` mapping into a
  :class:`Project` — modules, classes, functions, and one
  :class:`CallSite` per call expression;
- call targets are resolved through import aliases, module-level names,
  ``self.method()`` (including project-resolvable base classes), and
  ``module.func()``. Anything dynamic — a callable in a variable, a
  subscripted lookup, ``getattr`` — resolves to ``UNKNOWN``, and
  **unknown never produces a finding**: the analysis is deliberately
  under-approximate so every report is actionable;
- :meth:`Project.reachable_from` walks the resolved edges (cycles are
  fine) — rules use it to ask "can a sim process reach this write?".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.rules import _Module, _is_event_yield

__all__ = [
    "PROJECT", "EXTERNAL", "UNKNOWN",
    "CallSite", "ClassInfo", "FunctionInfo", "Project", "ProjectModule",
    "build_project", "module_name_for_path",
]

#: Resolution kinds for :class:`CallSite`.
PROJECT = "project"    # resolved to a function/class built from the sources
EXTERNAL = "external"  # resolved to a dotted name outside the project
UNKNOWN = "unknown"    # dynamic dispatch — produces no findings, ever


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/sim/events.py`` -> ``repro.sim.events``. Paths without a
    ``repro`` segment (e.g. test fixtures) become single-segment modules
    named after the file, which makes a lone file a one-module project.
    """
    parts = path.replace("\\", "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts)
    return parts[-1]


@dataclass
class FunctionInfo:
    """One function or method, with the derived facts the rules share."""

    qualname: str                #: ``repro.sim.events.Process._resume``
    module: str                  #: dotted module name
    name: str                    #: bare name
    class_name: Optional[str]    #: enclosing class, if a method
    node: ast.AST                #: the FunctionDef / AsyncFunctionDef
    is_generator: bool = False
    #: Generator that yields kernel events — a sim-process body.
    is_sim_process: bool = False

    @property
    def params(self) -> list[str]:
        a = self.node.args
        return ([p.arg for p in a.posonlyargs] + [p.arg for p in a.args]
                + [p.arg for p in a.kwonlyargs])

    def param_default(self, param: str) -> Optional[ast.expr]:
        """Default expression for ``param``, or None if required."""
        a = self.node.args
        positional = [p.arg for p in a.posonlyargs] + [p.arg for p in a.args]
        if param in positional:
            offset = len(positional) - len(a.defaults)
            idx = positional.index(param) - offset
            return a.defaults[idx] if idx >= 0 else None
        for kw, default in zip(a.kwonlyargs, a.kw_defaults):
            if kw.arg == param:
                return default
        return None


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Declares ``__slots__`` directly or via ``@dataclass(slots=True)``.
    has_slots: bool = False


@dataclass
class CallSite:
    """One call expression, with its (attempted) resolution."""

    caller: str             #: qualname of the enclosing function/module
    module: str             #: module the call appears in
    node: ast.Call
    kind: str               #: PROJECT | EXTERNAL | UNKNOWN
    target: Optional[str]   #: qualname (project) or dotted name (external)


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "__slots__":
                return True
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            name = deco.func
            if (isinstance(name, ast.Name) and name.id == "dataclass"
                    or isinstance(name, ast.Attribute)
                    and name.attr == "dataclass"):
                for kw in deco.keywords:
                    if (kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True):
                        return True
    return False


class ProjectModule:
    """One parsed module plus its symbol tables."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.name = module_name_for_path(path)
        self.is_package = path.replace("\\", "/").endswith("__init__.py")
        tree = ast.parse(source, filename=path)
        self.mod = _Module(tree, source, path)
        self.tree = tree
        #: Import alias -> dotted target, for project-absolute imports
        #: (``from repro.sim import Environment`` -> Environment ->
        #: ``repro.sim.Environment``; ``import repro.sim.rng as r`` ->
        #: r -> ``repro.sim.rng``). Only in-project roots are recorded;
        #: external libraries go through ``_Module.canonical``.
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._collect_imports()
        self._collect_defs()

    def _collect_imports(self) -> None:
        root = self.name.split(".")[0]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == root:
                        self.imports[a.asname or a.name.split(".")[0]] = (
                            a.name if a.asname else a.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                base = self.import_base(node)
                if not base or base.split(".")[0] != root:
                    continue
                for a in node.names:
                    self.imports[a.asname or a.name] = f"{base}.{a.name}"

    def import_base(self, node: ast.ImportFrom) -> str:
        """Absolute dotted base of an import-from (resolves relatives)."""
        if not node.level:
            return node.module or ""
        parts = self.name.split(".")
        if not self.is_package:
            parts = parts[:-1]
        if node.level > 1:
            parts = parts[:len(parts) - (node.level - 1)]
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def _collect_defs(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{self.name}.{stmt.name}", module=self.name,
                    name=stmt.name, node=stmt,
                    has_slots=_declares_slots(stmt))
                self.classes[stmt.name] = info
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        finfo = self._add_function(sub, class_name=stmt.name)
                        info.methods[sub.name] = finfo

    def _add_function(self, node, class_name: Optional[str]) -> FunctionInfo:
        local = f"{class_name}.{node.name}" if class_name else node.name
        yields = [n for n in ast.walk(node)
                  if isinstance(n, (ast.Yield, ast.YieldFrom))
                  and self.mod.enclosing_function(n) is node]
        info = FunctionInfo(
            qualname=f"{self.name}.{local}", module=self.name,
            name=node.name, class_name=class_name, node=node,
            is_generator=bool(yields),
            is_sim_process=any(
                isinstance(y, ast.Yield) and _is_event_yield(y.value)
                for y in yields))
        self.functions[local] = info
        return info


class Project:
    """The whole-program view: symbols plus a resolved call graph."""

    def __init__(self, modules: Iterable[ProjectModule]):
        self.modules: dict[str, ProjectModule] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for pm in modules:
            self.modules[pm.name] = pm
            for info in pm.functions.values():
                self.functions[info.qualname] = info
            for cinfo in pm.classes.values():
                self.classes[cinfo.qualname] = cinfo
        #: caller qualname -> its call sites (module-level calls use the
        #: pseudo-caller ``<module>.<module-name>``).
        self.calls: dict[str, list[CallSite]] = {}
        for pm in self.modules.values():
            self._collect_calls(pm)

    # -- call collection ---------------------------------------------------
    def _collect_calls(self, pm: ProjectModule) -> None:
        for node in ast.walk(pm.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = pm.mod.enclosing_function(node)
            scope = None
            if fn is not None:
                scope = next((i for i in pm.functions.values()
                              if i.node is fn), None)
            caller = scope.qualname if scope else f"<module>.{pm.name}"
            kind, target = self.resolve_call(pm, scope, node)
            self.calls.setdefault(caller, []).append(
                CallSite(caller=caller, module=pm.name, node=node,
                         kind=kind, target=target))

    # -- resolution --------------------------------------------------------
    def _constructor(self, cinfo: ClassInfo) -> tuple[str, str]:
        """Resolve instantiating a project class to its ``__init__``."""
        seen = set()
        cur: Optional[ClassInfo] = cinfo
        while cur is not None and cur.qualname not in seen:
            seen.add(cur.qualname)
            init = cur.methods.get("__init__")
            if init is not None:
                return PROJECT, init.qualname
            cur = self._project_base(cur)
        return PROJECT, cinfo.qualname  # marker: class with inherited init

    def _project_base(self, cinfo: ClassInfo) -> Optional[ClassInfo]:
        """First base class resolvable inside the project, if any."""
        for base in cinfo.node.bases:
            dotted = self.resolve_name(self.modules[cinfo.module], base)
            if dotted is not None and dotted in self.classes:
                return self.classes[dotted]
        return None

    def base_names(self, cinfo: ClassInfo) -> list[str]:
        """All direct bases as dotted names (project or external)."""
        pm = self.modules[cinfo.module]
        out = []
        for base in cinfo.node.bases:
            dotted = self.resolve_name(pm, base)
            if dotted is not None:
                out.append(dotted)
            elif isinstance(base, ast.Name):
                out.append(base.id)
            elif isinstance(base, ast.Attribute):
                out.append(base.attr)
        return out

    def transitive_bases(self, cinfo: ClassInfo) -> set[str]:
        """Dotted names of all bases reachable through project classes."""
        out: set[str] = set()
        stack = [cinfo]
        seen = {cinfo.qualname}
        while stack:
            cur = stack.pop()
            for dotted in self.base_names(cur):
                out.add(dotted)
                nxt = self.classes.get(dotted)
                if nxt is not None and nxt.qualname not in seen:
                    seen.add(nxt.qualname)
                    stack.append(nxt)
        return out

    def resolve_name(self, pm: ProjectModule,
                     expr: ast.expr) -> Optional[str]:
        """Resolve a Name/Attribute expression to a dotted name."""
        if isinstance(expr, ast.Name):
            if expr.id in pm.classes:
                return pm.classes[expr.id].qualname
            if expr.id in pm.functions:
                return pm.functions[expr.id].qualname
            if expr.id in pm.imports:
                return self._canonicalize(pm.imports[expr.id])
            return None
        if isinstance(expr, ast.Attribute):
            base = self.resolve_name(pm, expr.value)
            if base is None:
                return None
            return self._canonicalize(f"{base}.{expr.attr}")
        return None

    def _canonicalize(self, dotted: str) -> str:
        """Follow re-export hops: ``repro.sim.Event`` -> the definition."""
        for _ in range(8):  # bounded: re-export chains are short
            if dotted in self.classes or dotted in self.functions:
                return dotted
            head, _, leaf = dotted.rpartition(".")
            pm = self.modules.get(head)
            if pm is None:
                return dotted
            if leaf in pm.classes:
                return pm.classes[leaf].qualname
            if leaf in pm.functions:
                return pm.functions[leaf].qualname
            if leaf in pm.imports:
                dotted = pm.imports[leaf]
                continue
            return dotted
        return dotted

    def resolve_method(self, cinfo: ClassInfo,
                       attr: str) -> Optional[FunctionInfo]:
        """Find ``attr`` on the class or its project-resolvable bases."""
        seen = set()
        cur: Optional[ClassInfo] = cinfo
        while cur is not None and cur.qualname not in seen:
            seen.add(cur.qualname)
            if attr in cur.methods:
                return cur.methods[attr]
            cur = self._project_base(cur)
        return None

    def resolve_call(self, pm: ProjectModule, scope: Optional[FunctionInfo],
                     call: ast.Call) -> tuple[str, Optional[str]]:
        """Resolve a call's target; dynamic dispatch is UNKNOWN, never
        a guess."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in pm.functions:
                return PROJECT, pm.functions[func.id].qualname
            if func.id in pm.classes:
                return self._constructor(pm.classes[func.id])
            if func.id in pm.imports:
                dotted = self._canonicalize(pm.imports[func.id])
                if dotted in self.functions:
                    return PROJECT, dotted
                if dotted in self.classes:
                    return self._constructor(self.classes[dotted])
                if dotted in self.modules:
                    return UNKNOWN, None  # calling a module: nonsense
                return EXTERNAL, dotted
            ext = pm.mod.canonical(func)
            if ext is not None:
                return EXTERNAL, ext
            return UNKNOWN, None
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if (value.id == "self" and scope is not None
                        and scope.class_name is not None):
                    cinfo = pm.classes.get(scope.class_name)
                    if cinfo is not None:
                        method = self.resolve_method(cinfo, func.attr)
                        if method is not None:
                            return PROJECT, method.qualname
                    return UNKNOWN, None
                if value.id in pm.classes:  # ClassName.method(...)
                    method = self.resolve_method(
                        pm.classes[value.id], func.attr)
                    if method is not None:
                        return PROJECT, method.qualname
                    return UNKNOWN, None
                if value.id in pm.imports:
                    dotted = self._canonicalize(
                        f"{pm.imports[value.id]}.{func.attr}")
                    if dotted in self.functions:
                        return PROJECT, dotted
                    if dotted in self.classes:
                        return self._constructor(self.classes[dotted])
                    return EXTERNAL, dotted
            ext = pm.mod.canonical(func)
            if ext is not None:
                return EXTERNAL, ext
            return UNKNOWN, None
        return UNKNOWN, None

    # -- graph queries -----------------------------------------------------
    def callees(self, qualname: str) -> list[CallSite]:
        return self.calls.get(qualname, [])

    def sim_process_roots(self) -> set[str]:
        """Qualnames of generator functions that yield kernel events."""
        return {q for q, info in self.functions.items()
                if info.is_sim_process}

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Functions reachable from ``roots`` over resolved project
        edges. Cycles terminate; UNKNOWN edges are simply not edges."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for site in self.calls.get(cur, ()):
                if site.kind == PROJECT and site.target is not None:
                    if site.target not in seen:
                        stack.append(site.target)
        return seen


def build_project(sources: dict[str, str]) -> Project:
    """Parse ``{path: source}`` into a :class:`Project`.

    Raises :class:`SyntaxError` (with the offending filename) if any
    module fails to parse, mirroring :func:`repro.analysis.lint_source`.
    """
    return Project(ProjectModule(path, src)
                   for path, src in sorted(sources.items()))
