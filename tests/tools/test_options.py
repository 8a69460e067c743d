"""Every defaulted parameter in ``src/repro`` must be passed by some caller.

A default that no call site ever overrides is a constant dressed as an
option: it doubles the configurations a reader has to consider and no
workload uses the other half. This test scans ``src/repro`` with the
stdlib ``ast`` for defaulted parameters and searches the call sites in
:data:`CALLER_DIRS` for one that passes each of them. A call passes an
option when it names it as a keyword, passes enough positional arguments
to reach it, or uses a ``*``/``**`` splat.

Calls are matched by name: ``f(...)`` (through ``from m import f as g``
aliases) reaches functions named ``f``, ``x.f(...)`` reaches functions and
methods named ``f``, ``C(...)``/``cls(...)``/``super().__init__(...)``
reach ``__init__``. Matching by name over-approximates the callers, so
the scan errs toward missing a dead option, not flagging a live one. A
callable that is also referenced other than by a direct call (stored in
a table, passed as a callback, or named in a string that ``getattr``
may look up) is skipped: its callers cannot be found by reading call
sites.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench", "tools")

#: Parameters that stay options by design, whatever their call sites.
EXEMPT_PARAMS = {
    # Injection points: a caller shares one tracer, registry or monitor
    # across components; the default builds a private one.
    "tracer", "registry", "monitor",
}

#: Callables whose options stay options, with the reason.
EXEMPT_CALLABLES = {
    # ``python -m repro.campaign run --world-kwarg NAME=VALUE`` sets any
    # keyword argument of a world runner from the command line.
    ("repro/faults/chaos.py", "run_partition_scenario"),
    ("repro/faults/chaos.py", "run_failover_scenario"),
}

#: Options no call site passes that stay, as "file:qualname.param": reason.
ALLOWLIST: dict[str, str] = {}

_DECORATORS_THAT_HIDE_CALLS = {"property", "setter", "getter", "deleter"}


@dataclass(frozen=True)
class Option:
    path: str
    qualname: str
    param: str
    index: int | None  # positional index, None for keyword-only

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}.{self.param}"


@dataclass
class Definition:
    path: str
    qualname: str
    name: str
    cls: str | None
    offset: int  # positional arguments of an attribute call skip this many
    options: list[Option]


def _decorator_names(node: ast.FunctionDef) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name):
            names.add(dec.id)
        elif isinstance(dec, ast.Attribute):
            names.add(dec.attr)
    return names


def _options(path: str, qualname: str, args: ast.arguments) -> list[Option]:
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [Option(path, qualname, a.arg, i)
             for i, a in enumerate(positional) if i >= first]
    found += [Option(path, qualname, a.arg, None)
              for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return found


def list_definitions() -> list[Definition]:
    """Every function and method in ``src/repro`` with a defaulted
    parameter."""
    found = []
    for file in sorted(SOURCE.rglob("*.py")):
        path = file.relative_to(SOURCE.parent).as_posix()

        def visit(node, prefix, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child.name)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    decorators = _decorator_names(child)
                    options = _options(path, qualname, child.args)
                    dunder = (child.name.startswith("__")
                              and child.name != "__init__")
                    if (options and not dunder
                            and not decorators & _DECORATORS_THAT_HIDE_CALLS):
                        offset = (0 if cls is None
                                  or "staticmethod" in decorators else 1)
                        found.append(Definition(path, qualname, child.name,
                                                cls, offset, options))
                    visit(child, f"{qualname}.<locals>.", None)

        visit(ast.parse(file.read_text(), str(file)), "", None)
    return found


@dataclass
class Site:
    positional: int
    keywords: frozenset[str]
    splat: bool


class _CallIndex(ast.NodeVisitor):
    """Call sites and non-call references, by the name they use."""

    def __init__(self):
        self.name_calls = defaultdict(list)   # f(...)
        self.attr_calls = defaultdict(list)   # x.f(...)
        self.class_calls = defaultdict(list)  # cls(...) inside class C
        self.super_calls = defaultdict(list)  # super().__init__(...) in C
        self.referenced = set()               # names used other than called
        self.bases = defaultdict(set)         # class name -> base names
        self._aliases = {}
        self._callees = set()
        self._skip = set()
        self._class = []
        self._locals = []

    def scan(self, tree):
        # Node ids are only unique while their tree lives.
        self._callees, self._skip = set(), set()
        self._aliases = {a.asname: a.name for n in ast.walk(tree)
                         if isinstance(n, ast.ImportFrom)
                         for a in n.names if a.asname}
        self.visit(tree)

    def _resolve(self, name):
        return self._aliases.get(name, name)

    def visit_ClassDef(self, node):
        for base in node.bases:
            name = (base.id if isinstance(base, ast.Name)
                    else getattr(base, "attr", None))
            if name:
                self.bases[node.name].add(self._resolve(name))
            self._skip.add(id(base))
        self._class.append(node.name)
        self._locals.append(set())
        self.generic_visit(node)
        self._locals.pop()
        self._class.pop()

    def visit_FunctionDef(self, node):
        args = node.args
        names = {a.arg
                 for a in args.posonlyargs + args.args + args.kwonlyargs}
        names |= {a.arg for a in (args.vararg, args.kwarg) if a}
        names |= {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for a in ast.walk(node.args):
            if isinstance(a, ast.arg) and a.annotation is not None:
                self._skip.update(id(n) for n in ast.walk(a.annotation))
        if node.returns is not None:
            self._skip.update(id(n) for n in ast.walk(node.returns))
        self._locals.append(names)
        self.generic_visit(node)
        self._locals.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        self._skip.update(id(n) for n in ast.walk(node.annotation))
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        if node.type is not None:
            self._skip.update(id(n) for n in ast.walk(node.type))
        self.generic_visit(node)

    def visit_Call(self, node):
        site = Site(
            positional=sum(not isinstance(a, ast.Starred)
                           for a in node.args),
            keywords=frozenset(k.arg for k in node.keywords if k.arg),
            splat=any(isinstance(a, ast.Starred) for a in node.args)
            or any(k.arg is None for k in node.keywords))
        func = node.func
        self._callees.add(id(func))
        if isinstance(func, ast.Name):
            if func.id == "cls" and self._class:
                self.class_calls[self._class[-1]].append(site)
            elif (func.id in ("isinstance", "issubclass")
                  and len(node.args) == 2):
                self._skip.update(id(n) for n in ast.walk(node.args[1]))
            self.name_calls[self._resolve(func.id)].append(site)
        elif (isinstance(func, ast.Attribute) and func.attr == "__init__"
              and isinstance(func.value, ast.Call)
              and isinstance(func.value.func, ast.Name)
              and func.value.func.id == "super" and self._class):
            self.super_calls[self._class[-1]].append(site)
        elif isinstance(func, ast.Attribute):
            self.attr_calls[func.attr].append(site)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if (isinstance(node.ctx, ast.Load) and id(node) not in self._callees
                and id(node) not in self._skip):
            self.referenced.add(node.attr)
        # ``C.method(...)`` and ``C.attr`` use C as a namespace.
        self._skip.add(id(node.value))
        self.generic_visit(node)

    def visit_Constant(self, node):
        # A string naming a callable ("run_x", or a "run_x/variant" key)
        # may reach it through ``getattr``.
        if isinstance(node.value, str):
            self.referenced.add(node.value.split("/", 1)[0])

    def visit_Name(self, node):
        if (isinstance(node.ctx, ast.Load) and id(node) not in self._callees
                and id(node) not in self._skip
                and not (self._locals and node.id in self._locals[-1])):
            self.referenced.add(self._resolve(node.id))


def _caller_files():
    for folder in CALLER_DIRS:
        yield from sorted((ROOT / folder).rglob("*.py"))


def _reaches(option: Option, offset: int, site: Site) -> bool:
    if site.splat or option.param in site.keywords:
        return True
    return (option.index is not None
            and option.index < site.positional + offset)


def never_passed() -> list[Option]:
    """Defaulted parameters that no call site in :data:`CALLER_DIRS` passes."""
    index = _CallIndex()
    for file in _caller_files():
        index.scan(ast.parse(file.read_text(), str(file)))
    subclasses = defaultdict(set)
    for cls, bases in index.bases.items():
        for base in bases:
            subclasses[base].add(cls)

    def family(cls):
        seen, todo = set(), [cls]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(subclasses[name])
        return seen

    dead = []
    for fn in list_definitions():
        if (fn.path, fn.qualname) in EXEMPT_CALLABLES:
            continue
        if fn.name == "__init__":
            classes = family(fn.cls)
            if classes & index.referenced:
                continue
            sites = [(s, 1) for c in classes
                     for s in index.name_calls[c] + index.attr_calls[c]
                     + index.class_calls[c]]
            sites += [(s, 1) for c in classes - {fn.cls}
                      for s in index.super_calls[c]]
            sites += [(s, 1) for s in index.attr_calls["__init__"]]
        else:
            if fn.name in index.referenced:
                continue
            sites = [(s, fn.offset) for s in index.attr_calls[fn.name]]
            if fn.cls is None:
                sites += [(s, 0) for s in index.name_calls[fn.name]]
        for option in fn.options:
            if option.param in EXEMPT_PARAMS or option.key in ALLOWLIST:
                continue
            if not any(_reaches(option, offset, s) for s, offset in sites):
                dead.append(option)
    return dead


def test_every_option_is_passed_by_some_caller():
    dead = never_passed()
    assert not dead, (
        "defaulted parameters that no call site passes; make each a "
        "constant, or allowlist it with a reason:\n"
        + "\n".join(o.key for o in dead))


def test_allowlist_is_short_and_live():
    assert len(ALLOWLIST) <= 10
    assert all(reason.strip() for reason in ALLOWLIST.values())
    keys = {o.key for fn in list_definitions() for o in fn.options}
    assert set(ALLOWLIST) <= keys, "allowlist names an option that is gone"
