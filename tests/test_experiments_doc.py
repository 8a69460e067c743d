"""EXPERIMENTS.md and ``benchmarks/results/`` name the same files.

Every committed results file backs a claim in EXPERIMENTS.md, and every
file EXPERIMENTS.md cites is committed: a claim must trace to the
artifact that produced it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "benchmarks" / "results"

#: A results file as EXPERIMENTS.md cites it: its bare name in backticks.
CITATION = re.compile(r"`(\w+\.(?:md|json))`")


def _cited():
    return set(CITATION.findall((ROOT / "EXPERIMENTS.md").read_text()))


def test_every_cited_results_file_exists():
    assert sorted(name for name in _cited()
                  if not (RESULTS_DIR / name).is_file()) == []


def test_every_results_file_is_cited():
    cited = _cited()
    assert sorted(path.name for path in RESULTS_DIR.iterdir()
                  if path.name not in cited) == []
