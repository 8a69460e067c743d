"""The golden-trace regression harness: capture, diff, bless.

Every scenario in :data:`repro.observability.scenarios.SCENARIOS` has a
committed *golden document* under ``tests/golden/<name>.json``: the
scenario's full span trace, its metrics snapshot, its summary dict, and
a content digest, all captured at :data:`~repro.observability.scenarios.
GOLDEN_SEED`. The regression test re-runs each scenario and diffs the
fresh document against the committed one **structurally** — span by
span, field by field — so a behavior change fails with a readable list
of what moved (a span's status flipped, a retry event appeared, a
metric's total changed), not an opaque hash mismatch.

Workflow when a diff is *intended* (you changed domain behavior on
purpose): re-bless the corpus and commit the updated files together
with the code change, so the trace diff is reviewable in the PR::

    python -m repro.observability.golden --update

CLI::

    python -m repro.observability.golden --check            # diff all
    python -m repro.observability.golden --update [name...] # re-bless
    python -m repro.observability.golden --list             # corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.observability.scenarios import GOLDEN_SEED, SCENARIOS, \
    run_scenario

#: Bump when the golden *document* schema (not the trace schema) changes.
GOLDEN_FORMAT_VERSION = 1

#: Default corpus location: ``tests/golden/`` at the repo root.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: Span fields compared by the structural diff, in report order.
_SPAN_FIELDS = ("name", "domain", "status", "parent_id",
                "t_start", "t_end", "tags", "events")

_MAX_DIFF_LINES = 25


def capture(name: str, seed: int = GOLDEN_SEED) -> dict:
    """Run one scenario and build its golden document."""
    tracer, registry, summary = run_scenario(name, seed=seed)
    return {
        "format": GOLDEN_FORMAT_VERSION,
        "scenario": name,
        "seed": seed,
        "digest": tracer.digest(),
        "trace": tracer.to_dict(),
        "metrics": registry.snapshot(),
        "summary": summary,
    }


def document_json(doc: dict) -> str:
    """Canonical serialization of a golden document (what gets committed)."""
    return json.dumps(doc, sort_keys=True, indent=1,
                      ensure_ascii=True) + "\n"


def golden_path(name: str, directory: Optional[Path] = None) -> Path:
    return (directory or GOLDEN_DIR) / f"{name}.json"


def load(name: str, directory: Optional[Path] = None) -> dict:
    path = golden_path(name, directory)
    if not path.exists():
        raise FileNotFoundError(
            f"no golden document for {name!r} at {path}; bless it with "
            f"`python -m repro.observability.golden --update {name}`")
    return json.loads(path.read_text())


# -- structural diff ---------------------------------------------------------

def diff_traces(expected: dict, actual: dict) -> list[str]:
    """Span-level structural diff of two serialized traces.

    Returns human-readable difference lines (empty = traces match).
    Spans are matched by ``span_id`` — ids are allocation-ordered, so an
    inserted or dropped span shifts everything after it and shows up as
    a count mismatch plus the first diverging span.
    """
    diffs: list[str] = []
    exp_spans = expected.get("spans", [])
    act_spans = actual.get("spans", [])
    if expected.get("meta") != actual.get("meta"):
        diffs.append(f"trace meta: expected {expected.get('meta')!r}, "
                     f"got {actual.get('meta')!r}")
    if len(exp_spans) != len(act_spans):
        diffs.append(f"span count: expected {len(exp_spans)}, "
                     f"got {len(act_spans)}")
    for exp, act in zip(exp_spans, act_spans):
        label = f"span #{exp.get('span_id')} {exp.get('name')!r}"
        for fld in _SPAN_FIELDS:
            if exp.get(fld) != act.get(fld):
                diffs.append(f"{label} {fld}: expected {exp.get(fld)!r}, "
                             f"got {act.get(fld)!r}")
    return diffs


def diff_metrics(expected: dict, actual: dict) -> list[str]:
    """Key- and value-level diff of two registry snapshots."""
    diffs: list[str] = []
    for key in sorted(set(expected) - set(actual)):
        diffs.append(f"metric {key!r}: missing from this run")
    for key in sorted(set(actual) - set(expected)):
        diffs.append(f"metric {key!r}: not in the golden snapshot")
    for key in sorted(set(expected) & set(actual)):
        if expected[key] != actual[key]:
            diffs.append(f"metric {key!r}: expected {expected[key]!r}, "
                         f"got {actual[key]!r}")
    return diffs


def diff_documents(expected: dict, actual: dict) -> list[str]:
    """Full structural diff of two golden documents."""
    diffs = diff_traces(expected.get("trace", {}), actual.get("trace", {}))
    diffs += diff_metrics(expected.get("metrics", {}),
                          actual.get("metrics", {}))
    if expected.get("summary") != actual.get("summary"):
        diffs.append(f"summary: expected {expected.get('summary')!r}, "
                     f"got {actual.get('summary')!r}")
    if not diffs and expected.get("digest") != actual.get("digest"):
        # Should be unreachable: the digest covers exactly the trace the
        # span diff just compared. Report it rather than hide it.
        diffs.append(f"digest: expected {expected.get('digest')}, "
                     f"got {actual.get('digest')} (with no span diff!)")
    return diffs


def clip_diffs(diffs: list[str]) -> list[str]:
    if len(diffs) <= _MAX_DIFF_LINES:
        return diffs
    return diffs[:_MAX_DIFF_LINES] + [
        f"... and {len(diffs) - _MAX_DIFF_LINES} more differences"]


def check(name: str, directory: Optional[Path] = None,
          seed: int = GOLDEN_SEED) -> list[str]:
    """Re-run ``name`` and diff against its committed golden document."""
    return clip_diffs(diff_documents(load(name, directory),
                                     capture(name, seed=seed)))


def update(names: Optional[list[str]] = None,
           directory: Optional[Path] = None,
           seed: int = GOLDEN_SEED) -> list[Path]:
    """Re-capture and write golden documents (the blessing step)."""
    directory = directory or GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names or list(SCENARIOS):
        doc = capture(name, seed=seed)
        path = golden_path(name, directory)
        path.write_text(document_json(doc))
        written.append(path)
    return written


# -- CLI ---------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.golden",
        description="Capture, check, and bless golden scenario traces.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true",
                       help="diff every scenario against its golden file")
    group.add_argument("--update", action="store_true",
                       help="re-capture golden files (bless current "
                            "behavior)")
    group.add_argument("--list", action="store_true",
                       help="list scenarios and their golden digests")
    parser.add_argument("names", nargs="*",
                        help="scenario subset (default: all)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--dir", type=Path, default=None,
                        help=f"corpus directory (default: {GOLDEN_DIR})")
    args = parser.parse_args(argv)

    names = args.names or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios: {unknown}; "
                     f"known: {sorted(SCENARIOS)}")

    if args.list:
        for name in names:
            try:
                doc = load(name, args.dir)
                print(f"{name:<16} {doc['digest'][:16]}  "
                      f"{doc['trace']['n_spans']} spans")
            except FileNotFoundError:
                print(f"{name:<16} (not blessed)")
        return 0

    if args.update:
        for path in update(names, args.dir, seed=args.seed):
            print(f"blessed {path}")
        return 0

    failed = 0
    for name in names:
        try:
            diffs = check(name, args.dir, seed=args.seed)
        except FileNotFoundError as exc:
            print(f"{name}: MISSING — {exc}")
            failed += 1
            continue
        if diffs:
            failed += 1
            print(f"{name}: {len(diffs)} difference(s)")
            for line in diffs:
                print(f"  {line}")
        else:
            print(f"{name}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
