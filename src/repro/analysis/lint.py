"""simlint driver: walk files, apply the rules, report, gate CI.

Usage::

    python -m repro.analysis.lint src/ [--format=text|json]
        [--rules SL007,SL008]

Every run applies both the per-file rules (SL001–SL006, SL011) and the
whole-program rules (SL007–SL010 plus the interprocedural SL001 flow
pass): the linted files are parsed once into a project call graph, so a
single file is simply a one-module project. A finding is accepted only
by a ``# simlint: disable=SL00x`` comment on its line, with a comment
giving the reason.

Exit codes: 0 clean, 1 findings, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Optional

from repro.analysis.graph import build_project
from repro.analysis.project_rules import PROJECT_RULES, run_project_rules
from repro.analysis.rules import RULES, Finding, lint_source

__all__ = ["lint_file", "lint_paths", "lint_sources", "main"]


def _iter_py_files(path: str):
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _rel(path: str, root: Optional[str]) -> str:
    base = root or os.getcwd()
    try:
        rel = os.path.relpath(path, base)
    except ValueError:  # different drive (windows)
        rel = path
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")


def lint_sources(sources: dict[str, str]) -> list[Finding]:
    """Lint ``{path: source}``: per-file rules plus the project pass."""
    findings: list[Finding] = []
    for path, source in sorted(sources.items()):
        findings.extend(lint_source(source, path=path))
    project = build_project(sources)
    findings.extend(run_project_rules(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_file(path: str) -> list[Finding]:
    """Lint one file; paths in findings are relative to the cwd."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return lint_sources({_rel(path, None): source})


def lint_paths(paths: Iterable[str],
               root: Optional[str] = None) -> list[Finding]:
    """Lint files and directory trees; returns all findings, sorted."""
    sources: dict[str, str] = {}
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        for file_path in _iter_py_files(path):
            with open(file_path, encoding="utf-8") as fh:
                sources[_rel(file_path, root)] = fh.read()
    return lint_sources(sources)


def _rule_catalog() -> dict[str, str]:
    catalog = {r.code: r.summary for r in RULES}
    for r in PROJECT_RULES:
        catalog.setdefault(r.code, r.summary)
    return catalog


def _known_codes() -> set[str]:
    return {r.code for r in RULES} | {r.code for r in PROJECT_RULES}


def _render_text(findings: list[Finding]) -> str:
    lines = [f.format() for f in findings]
    summary = f"{len(findings)} finding(s)"
    lines.append(summary if findings else f"clean: {summary}")
    return "\n".join(lines)


def _render_json(findings: list[Finding]) -> str:
    return json.dumps({
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
        "rules": _rule_catalog(),
    }, indent=2)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="simlint: determinism, shard-safety, layering and "
                    "perf checks for the sim kernel and its domains.")
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--rules", default=None, metavar="CODES",
                        help="comma-separated rule codes to report "
                             "(e.g. SL007,SL008); default: all")
    args = parser.parse_args(argv)

    selected: Optional[set[str]] = None
    if args.rules:
        selected = {c.strip().upper() for c in args.rules.split(",")
                    if c.strip()}
        unknown = selected - _known_codes()
        if unknown:
            print(f"simlint: unknown rule code(s): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as err:
        print(f"simlint: no such path: {err}", file=sys.stderr)
        return 2
    except SyntaxError as err:
        print(f"simlint: cannot parse {err.filename}:{err.lineno}: {err.msg}",
              file=sys.stderr)
        return 2

    if selected is not None:
        findings = [f for f in findings if f.code in selected]

    render = _render_json if args.format == "json" else _render_text
    print(render(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
