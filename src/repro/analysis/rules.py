"""The simlint rules: determinism and resource-safety obligations as AST checks.

Each rule carries a code (``SL001``…), a one-line summary, and a checker
over a parsed module. The rules are deliberately heuristic — they aim for
high-signal findings on simulation code. A ``# simlint: disable=SL00x``
comment on the flagged line, with a comment giving the reason, is the one
way to accept an intentional exception.

SL001  nondeterministic RNG
    Calls through module-global RNG state (``random.*``, ``np.random.*``)
    and unseeded ``default_rng()``. Seeded generator *construction*
    (``np.random.default_rng(seed)``, ``random.Random(seed)``) is allowed
    inside functions but flagged at module level, where it runs at import
    time and silently couples streams across the process. Named
    :class:`repro.sim.RandomStreams` streams are the sanctioned source.

SL002  wall clock in sim code
    ``time.time``/``perf_counter``/``monotonic``, ``datetime.now`` and
    friends. Simulated time comes from ``env.now``; wall-clock reads make
    results machine- and load-dependent.

SL003  non-event yield in a sim process
    In a generator that yields environment events (``env.timeout(...)``
    etc.), a bare ``yield`` or a ``yield`` of a literal is a latent crash:
    the kernel requires Event instances.

SL004  acquire without release-on-all-paths
    A ``.request()``/``.allocate()`` whose enclosing function neither uses
    a ``with`` block nor contains a ``try/finally`` releasing the claim,
    nor hands the claim to a process it spawns: ``env.process(self.m(...))``
    where the sibling generator method ``m`` releases in a ``try/finally``.

SL005  iteration over an unordered set
    ``for x in set(...)`` / set literals / set comprehensions. Set order
    is hash-randomized across interpreters; feeding it into scheduling or
    event-ordering decisions breaks run-to-run reproducibility. Wrap in
    ``sorted(...)``.

SL006  float equality on sim time
    ``==``/``!=`` against ``now``. Sim timestamps are accumulated floats;
    use :func:`repro.sim.time_eq` with an explicit epsilon.

SL011  unused module-level import
    A name bound by a module-level ``import``/``from`` that the module
    never reads as a name. ``__future__`` imports, ``__init__.py`` files
    (whose imports are the package's exports) and names listed in
    ``__all__`` are exempt.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Finding", "Rule", "RULES", "lint_source"]


@dataclass(frozen=True)
class Finding:
    """One lint finding, printable and JSON-serializable."""

    code: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line.
    snippet: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message, "snippet": self.snippet,
        }


@dataclass(frozen=True)
class Rule:
    code: str
    summary: str
    check: Callable[["_Module"], list]


# -- module model ----------------------------------------------------------

#: Stdlib-random constructors that are fine when seeded at function scope.
_SEEDED_CTORS = {
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator",
}

_WALLCLOCK = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Canonical roots for from-imports we resolve (name -> dotted prefix).
_FROM_IMPORT_ROOTS = {
    "numpy": "numpy",
    "numpy.random": "numpy.random",
    "random": "random",
    "time": "time",
    "datetime": "datetime",
}

#: Attribute names whose call marks a generator as a sim process.
_EVENT_FACTORIES = {
    "timeout", "process", "event", "request", "all_of", "any_of",
    "invoke", "get", "put", "acquire", "succeed", "fail",
}

#: Constructors of kernel events, when instantiated directly.
_EVENT_CLASSES = {"Timeout", "Event", "Process", "AllOf", "AnyOf", "Request"}

_DISABLE_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")
_CODE_RE = re.compile(r"SL\d{3}|all")


class _Module:
    """A parsed module plus the derived indexes the rules share."""

    def __init__(self, tree: ast.Module, source: str, path: str):
        self.tree = tree
        self.path = path
        self.lines = source.splitlines()
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self.aliases = self._collect_aliases()

    # -- imports -----------------------------------------------------------
    def _collect_aliases(self) -> dict[str, str]:
        """Names bound by imports -> canonical dotted prefix."""
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name in _FROM_IMPORT_ROOTS or a.name == "numpy.random":
                        aliases[a.asname or a.name.split(".")[0]] = (
                            a.name if a.asname else a.name.split(".")[0])
                    # `import numpy.random` binds the top-level name.
                    if a.name == "numpy.random" and a.asname is None:
                        aliases["numpy"] = "numpy"
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = _FROM_IMPORT_ROOTS.get(node.module)
                if base is None:
                    continue
                for a in node.names:
                    aliases[a.asname or a.name] = f"{base}.{a.name}"
        return aliases

    def canonical(self, func: ast.expr) -> Optional[str]:
        """Resolve a call's func to a canonical dotted name, if importable."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        return ".".join([root] + list(reversed(parts)))

    # -- structure ---------------------------------------------------------
    def ancestors(self, node: ast.AST):
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                return anc
        return None

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        return Finding(code=code, path=self.path, line=node.lineno,
                       col=node.col_offset, message=message,
                       snippet=self.snippet(node.lineno))

    def suppressed(self, finding: Finding) -> bool:
        """Honor ``# simlint: disable=SL00x[,SL00y]`` on the flagged line."""
        if not 1 <= finding.line <= len(self.lines):
            return False
        match = _DISABLE_RE.search(self.lines[finding.line - 1])
        if not match:
            return False
        codes = set(_CODE_RE.findall(match.group(1)))
        return finding.code in codes or "all" in codes


# -- SL001: nondeterministic RNG -------------------------------------------

def _check_sl001(mod: _Module) -> list[Finding]:
    out = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        name = mod.canonical(node.func)
        if name is None:
            continue
        in_function = mod.enclosing_function(node) is not None
        if name == "numpy.random.default_rng" and not node.args and not any(
                kw.arg == "seed" for kw in node.keywords):
            out.append(mod.finding(
                "SL001", node,
                "unseeded default_rng() — derive a stream from "
                "RandomStreams(seed).get(name) instead"))
        elif name in _SEEDED_CTORS:
            if not in_function:
                out.append(mod.finding(
                    "SL001", node,
                    f"module-level RNG construction ({name}) runs at import "
                    "time; create it inside the scenario from RandomStreams"))
        elif name.startswith("random.") or name.startswith("numpy.random."):
            where = "" if in_function else "module-level "
            out.append(mod.finding(
                "SL001", node,
                f"{where}call through global RNG state ({name}); use a "
                "named RandomStreams stream"))
    return out


# -- SL002: wall clock ------------------------------------------------------

def _check_sl002(mod: _Module) -> list[Finding]:
    out = []
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call):
            name = mod.canonical(node.func)
            if name in _WALLCLOCK:
                out.append(mod.finding(
                    "SL002", node,
                    f"wall-clock read ({name}) in sim code; simulated time "
                    "is env.now"))
    return out


# -- SL003: non-event yields in sim processes -------------------------------

def _is_event_yield(value: Optional[ast.expr]) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr in _EVENT_FACTORIES:
        return True
    if isinstance(func, ast.Name) and func.id in _EVENT_CLASSES:
        return True
    return False


def _check_sl003(mod: _Module) -> list[Finding]:
    out = []
    for fn in ast.walk(mod.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yields = [n for n in ast.walk(fn)
                  if isinstance(n, ast.Yield)
                  and mod.enclosing_function(n) is fn]
        if not any(_is_event_yield(y.value) for y in yields):
            continue  # not recognizably a sim process
        for y in yields:
            if y.value is None:
                out.append(mod.finding(
                    "SL003", y,
                    "bare yield in a sim process; the kernel requires an "
                    "Event (yield env.timeout(0) to cede the turn)"))
            elif isinstance(y.value, (ast.Constant, ast.List, ast.Tuple,
                                      ast.Dict, ast.Set, ast.ListComp,
                                      ast.SetComp, ast.DictComp)):
                out.append(mod.finding(
                    "SL003", y,
                    "yield of a non-Event literal in a sim process; yield "
                    "Timeout/Process/Request or another Event"))
    return out


# -- SL004: acquire without release-on-all-paths ----------------------------

_ACQUIRES = {"request", "allocate"}
_RELEASES = {"release", "cancel"}


def _finally_releases(try_node: ast.Try) -> bool:
    for stmt in try_node.finalbody:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RELEASES):
                return True
    return False


def _releases_in_finally(fn: ast.AST) -> bool:
    return any(isinstance(n, ast.Try) and _finally_releases(n)
               for n in ast.walk(fn))


def _spawns_releasing_method(mod: _Module, fn: ast.AST) -> bool:
    """Whether method ``fn`` spawns ``<env>.process(self.m(...))`` for a
    sibling generator method ``m`` that releases in a try/finally — the
    claim's ownership handed to the process that holds it."""
    cls = mod.parents.get(fn)
    if not isinstance(cls, ast.ClassDef):
        return False
    methods = {m.name: m for m in cls.body
               if isinstance(m, ast.FunctionDef)}
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process" and node.args):
            continue
        spawned = node.args[0]
        if not (isinstance(spawned, ast.Call)
                and isinstance(spawned.func, ast.Attribute)
                and isinstance(spawned.func.value, ast.Name)
                and spawned.func.value.id == "self"):
            continue
        method = methods.get(spawned.func.attr)
        if method is not None and _releases_in_finally(method) and any(
                isinstance(n, (ast.Yield, ast.YieldFrom))
                and mod.enclosing_function(n) is method
                for n in ast.walk(method)):
            return True
    return False


def _check_sl004(mod: _Module) -> list[Finding]:
    out = []
    for node in ast.walk(mod.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ACQUIRES):
            continue
        if any(isinstance(anc, ast.withitem) for anc in mod.ancestors(node)):
            continue  # context manager: released by __exit__
        fn = mod.enclosing_function(node)
        if fn is not None and (_releases_in_finally(fn)
                               or _spawns_releasing_method(mod, fn)):
            continue  # released here, or by the process it spawns
        out.append(mod.finding(
            "SL004", node,
            f".{node.func.attr}() without a with-block or try/finally "
            "release in the same function or in the generator method it "
            "spawns; a failure path leaks the claim"))
    return out


# -- SL005: iteration over unordered sets -----------------------------------

def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _check_sl005(mod: _Module) -> list[Finding]:
    out = []
    for node in ast.walk(mod.tree):
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it):
                out.append(mod.finding(
                    "SL005", it,
                    "iteration over an unordered set; wrap in sorted(...) "
                    "so downstream scheduling/event order is reproducible"))
    return out


# -- SL006: float equality on sim time --------------------------------------

def _is_sim_time(node: ast.expr) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "now")
            or (isinstance(node, ast.Name) and node.id == "now"))


def _check_sl006(mod: _Module) -> list[Finding]:
    out = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        eq_ops = [op for op in node.ops if isinstance(op, (ast.Eq, ast.NotEq))]
        if eq_ops and any(_is_sim_time(o) for o in operands):
            out.append(mod.finding(
                "SL006", node,
                "float ==/!= against sim time; use repro.sim.time_eq(a, b) "
                "with an explicit epsilon"))
    return out


# -- SL011: unused module-level imports ------------------------------------

def _module_statements(body: list):
    """Module-level statements, those under ``if``/``try`` included."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            nested = stmt.body + stmt.orelse + getattr(stmt, "finalbody", [])
            for handler in getattr(stmt, "handlers", ()):
                nested = nested + handler.body
            yield from _module_statements(nested)


def _check_sl011(mod: _Module) -> list[Finding]:
    if mod.path.rsplit("/", 1)[-1] == "__init__.py":
        return []
    read = {node.id for node in ast.walk(mod.tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for stmt in _module_statements(mod.tree.body):
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            read |= {node.value for node in ast.walk(stmt.value)
                     if isinstance(node, ast.Constant)}
    for stmt in _module_statements(mod.tree.body):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                isinstance(stmt, ast.ImportFrom)
                and stmt.module == "__future__"):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                out.append(mod.finding(
                    "SL011", alias,
                    f"{name!r} is imported but never used; delete the "
                    "import"))
    return out


RULES: list[Rule] = [
    Rule("SL001", "global/unseeded RNG use", _check_sl001),
    Rule("SL002", "wall-clock read in sim code", _check_sl002),
    Rule("SL003", "non-event yield in a sim process", _check_sl003),
    Rule("SL004", "resource acquire without guaranteed release", _check_sl004),
    Rule("SL005", "iteration over an unordered set", _check_sl005),
    Rule("SL006", "float equality on sim time", _check_sl006),
    Rule("SL011", "unused module-level import", _check_sl011),
]


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source, honoring inline suppressions."""
    tree = ast.parse(source, filename=path)
    mod = _Module(tree, source, path)
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(f for f in rule.check(mod) if not mod.suppressed(f))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
