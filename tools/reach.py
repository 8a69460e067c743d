#!/usr/bin/env python
"""Reachability: which ``src/repro`` functions the real entry points call.

Run from the repository root::

    python tools/reach.py --out reach.json

The run takes about 3 minutes on a 2-core VM, about 90 s of them in
the paper benches. It writes a JSON report with the totals, the unreached
body lines per package and per file, and the unreached functions.

How it measures. Each entry point runs in its own subprocess under a
global trace hook (``sys.settrace`` and ``threading.settrace``). The
hook returns ``None``, so it sees only ``call`` events and adds no
per-line cost; it records every code object whose file lies under the
package root. An AST pass lists every function, nested functions and
methods included, keyed by ``(file, first line, name)``. The first line
is the first decorator's, as ``co_firstlineno`` reports it. A function
that no entry point called is *unreached*. Its body lines run from its
``def`` line to its last line, so a nested function counts in its
enclosing one too.

Two totals come out. ``automated`` covers the entry points that CI and
the paper tables run (the nine golden scenarios, a 20-schedule
campaign, ``lint src/``, the examples and the benches). ``all`` adds
the CLIs a developer runs by hand: the golden check and a campaign
shrink and repro of one planted failing schedule.

Three traps, each of which silently under-counts:

- pytest-benchmark clears trace hooks while it times a call, so the
  benches run with ``--benchmark-disable``;
- ``cProfile`` displaces a profile hook, so the hook is a trace hook
  (``settrace``), not a profile hook (``setprofile``);
- forked pool children never flush their records, so the campaign runs
  with ``--workers 1``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOT = REPO / "src" / "repro"

#: Runs one campaign with a planted bug, then shrinks and replays the
#: first failing schedule through the CLI, in one process.
_SHRINK_AND_REPRO = """\
import sys, tempfile
from pathlib import Path
from repro.campaign.cli import main
out = Path(tempfile.mkdtemp())
main(["run", "--seed", "0", "--schedules", "4", "--worlds", "partition",
      "--no-double-run", "--world-kwarg", "report_retry=false",
      "--out-dir", str(out)])
failure = sorted(out.glob("failure-*.json"))[0]
main(["shrink", "--input", str(failure), "--out", str(out / "min.json")])
sys.exit(main(["repro", str(out / "min.json")]))
"""


@dataclass(frozen=True)
class Entry:
    """One entry point: ``kind`` is ``code``, ``module`` or ``path``."""

    name: str
    kind: str
    target: str
    args: tuple = ()
    manual: bool = False


def default_entries() -> list[Entry]:
    """The real entry points, in the order they run."""
    entries = [
        Entry("golden", "code",
              "from repro.observability.scenarios import GOLDEN_SEED, "
              "SCENARIOS, run_scenario\n"
              "for name in SCENARIOS:\n"
              "    run_scenario(name, seed=GOLDEN_SEED)\n"),
        Entry("campaign", "module", "repro.campaign",
              ("run", "--seed", "0", "--schedules", "20", "--workers", "1")),
        Entry("lint", "module", "repro.analysis.lint", ("src/",)),
    ]
    entries += [Entry(f"example:{p.stem}", "path", str(p.relative_to(REPO)))
                for p in sorted((REPO / "examples").glob("*.py"))]
    entries += [
        Entry("benches", "module", "pytest",
              ("benchmarks", "-q", "--benchmark-disable",
               "-p", "no:cacheprovider")),
        Entry("golden-check", "module", "repro.observability.golden",
              ("--check",), manual=True),
        Entry("campaign-shrink-repro", "code", _SHRINK_AND_REPRO,
              manual=True),
    ]
    return entries


# -- the functions ---------------------------------------------------------

@dataclass(frozen=True)
class Function:
    file: str          # relative to the package root, with "/" separators
    line: int          # first decorator line, else the ``def`` line
    name: str
    qualname: str
    body_lines: int

    @property
    def key(self) -> tuple:
        return (self.file, self.line, self.name)

    @property
    def package(self) -> str:
        head, sep, _ = self.file.partition("/")
        return head if sep else "."


def list_functions(root: Path) -> list[Function]:
    """Every function and method under ``root``, nested ones included."""
    found: list[Function] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, rel, [], found)
    return found


def _collect(node: ast.AST, rel: str, scope: list[str],
             found: list[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            qualname = ".".join(scope + [child.name])
            found.append(Function(
                rel, first, child.name, qualname,
                child.end_lineno - child.lineno + 1))
            _collect(child, rel, scope + [child.name, "<locals>"], found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, rel, scope + [child.name], found)
        else:
            _collect(child, rel, scope, found)


# -- the trace -------------------------------------------------------------

def _child(out: Path, root: Path, kind: str, target: str,
           args: list[str]) -> int:
    """Run one entry point under the call hook and dump what it reached."""
    codes: dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        codes[id(code)] = code  # holding the code keeps its id unique
        return None

    prefix = str(root.resolve()) + os.sep
    status = 0
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        if kind == "code":
            sys.argv = ["-c"]
            exec(compile(target, "<entry>", "exec"), {"__name__": "__main__"})
        elif kind == "module":
            sys.argv = [target, *args]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        elif kind == "path":
            sys.argv = [target, *args]
            runpy.run_path(target, run_name="__main__")
        else:
            raise ValueError(f"unknown entry kind {kind!r}")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (
            0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        reached = sorted(
            {(os.path.relpath(c.co_filename, root).replace(os.sep, "/"),
              c.co_firstlineno, c.co_name)
             for c in codes.values()
             if os.path.abspath(c.co_filename).startswith(prefix)})
        out.write_text(json.dumps(reached))
    return status


def run_entry(entry: Entry, root: Path = ROOT, cwd: Path = REPO,
              timeout_s: float | None = None) -> dict:
    """Run ``entry`` in a subprocess; return its reached keys and status."""
    env = dict(os.environ)
    src = str(root.resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reached.json"
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             str(out), str(root), entry.kind, entry.target, *entry.args],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout_s)
        seconds = time.monotonic() - started
        reached = ({tuple(k) for k in json.loads(out.read_text())}
                   if out.exists() else set())
    return {"name": entry.name, "manual": entry.manual,
            "exit": proc.returncode, "seconds": round(seconds, 1),
            "reached": reached, "stderr_tail": proc.stderr[-2000:]}


# -- the report ------------------------------------------------------------

def _totals(functions: list[Function], reached: set) -> dict:
    unreached = [f for f in functions if f.key not in reached]
    body = sum(f.body_lines for f in functions)
    lost = sum(f.body_lines for f in unreached)
    return {"functions": len(functions), "unreached": len(unreached),
            "body_lines": body, "unreached_body_lines": lost,
            "unreached_body_share": round(lost / body, 4) if body else 0.0}


def build_report(functions: list[Function], runs: list[dict],
                 root: Path = ROOT) -> dict:
    """The JSON report over the union of what ``runs`` reached."""
    reached_all: set = set()
    reached_auto: set = set()
    for run in runs:
        reached_all |= run["reached"]
        if not run["manual"]:
            reached_auto |= run["reached"]
    unreached = [f for f in functions if f.key not in reached_all]
    packages: dict[str, dict] = {}
    files: dict[str, dict] = {}
    for f in functions:
        for table, key in ((packages, f.package), (files, f.file)):
            row = table.setdefault(key, {"functions": 0, "unreached": 0,
                                         "unreached_body_lines": 0})
            row["functions"] += 1
            if f.key not in reached_all:
                row["unreached"] += 1
                row["unreached_body_lines"] += f.body_lines
    return {
        "root": os.path.relpath(root, REPO).replace(os.sep, "/"),
        "entries": [{k: run[k] for k in ("name", "manual", "exit", "seconds")}
                    | {"reached": len(run["reached"])} for run in runs],
        "totals": {"all": _totals(functions, reached_all),
                   "automated": _totals(functions, reached_auto)},
        "packages": dict(sorted(packages.items())),
        "files": dict(sorted(files.items())),
        "unreached": [{"file": f.file, "line": f.line,
                       "qualname": f.qualname, "body_lines": f.body_lines}
                      for f in unreached],
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        out, root, kind, target, *args = argv[1:]
        return _child(Path(out), Path(root), kind, target, args)
    parser = argparse.ArgumentParser(
        prog="python tools/reach.py",
        description="Which src/repro functions the real entry points call.")
    parser.add_argument("--out", type=Path, default=Path("reach.json"),
                        help="JSON report path (default reach.json)")
    args = parser.parse_args(argv)
    runs = []
    for entry in default_entries():
        run = run_entry(entry)
        print(f"{entry.name}: exit {run['exit']}, {run['seconds']} s, "
              f"{len(run['reached'])} code objects reached", flush=True)
        if run["exit"]:
            print(run["stderr_tail"], file=sys.stderr)
        runs.append(run)
    report = build_report(list_functions(ROOT), runs)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, totals in report["totals"].items():
        print(f"{name}: {totals['unreached']} of {totals['functions']} "
              f"functions unreached, {totals['unreached_body_lines']} of "
              f"{totals['body_lines']} body lines "
              f"({totals['unreached_body_share']:.0%})")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
