"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures; the
regenerated rows/series are written to ``benchmarks/results/<id>.md`` (and
echoed to stdout, visible with ``pytest -s``) so EXPERIMENTS.md can quote
them. The ``benchmark`` fixture times a representative kernel of each
experiment.

A results file holds only what the code determines. Host wall times vary
from run to run, so benches print them and never write them there; CI
regenerates every file and fails if one changes.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis import TraceDigest
from repro.sim import Environment

RESULTS_DIR = Path(__file__).parent / "results"


def write_report(name: str, title: str, lines: list[str]) -> Path:
    """Persist a regenerated table/figure as markdown."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.md"
    content = f"# {title}\n\n" + "\n".join(lines) + "\n"
    path.write_text(content)
    print(f"\n--- {title} ---")
    print("\n".join(lines))
    return path


def markdown_table(headers: list[str], rows: list[list]) -> list[str]:
    """Simple markdown table renderer."""
    out = ["| " + " | ".join(str(h) for h in headers) + " |",
           "|" + "---|" * len(headers)]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return out


def _timed(run):
    """Run ``run`` twice and return ``(result, events, wall_s)``.

    The first run is an untimed warm-up under a :class:`TraceDigest`: it
    pays imports and cold caches, and ``events``, the number of kernel
    events it dispatched, is the deterministic cost a table may compare.
    The second run is timed and gives ``result``, so wall-time asserts
    compare warm runs.
    """
    digest = TraceDigest()
    with Environment.traced(digest):
        run()
    start = time.perf_counter()
    result = run()
    return result, digest.events, time.perf_counter() - start


@pytest.fixture(scope="session")
def report():
    return write_report


@pytest.fixture(scope="session")
def table():
    return markdown_table


@pytest.fixture(scope="session")
def timed():
    return _timed
