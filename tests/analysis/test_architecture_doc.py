"""The DAG table in ``docs/architecture.md`` cannot silently rot.

Mirror of the law-catalog doc test: the table rows are parsed and
compared — package set *and* allowed-dependency sets — against the
checked-in manifest ``repro.analysis.layers.LAYERS``.
"""

import importlib
import re
from pathlib import Path

from repro.analysis.layers import (
    EVENT_LOOP_FUNCTIONS,
    FILE_LAYERS,
    HOT_FILE_SUFFIXES,
    LAYERS,
    SLOTS_REQUIRED,
)

DOC = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"

ROW_RE = re.compile(r"^\| `([a-z0-9]+)` \| (.+?) \| .+\|$")


def documented_layers() -> dict[str, frozenset[str]]:
    """``{package: allowed-deps}`` parsed from the doc's DAG table."""
    out: dict[str, frozenset[str]] = {}
    for line in DOC.read_text().splitlines():
        m = ROW_RE.match(line)
        if m:
            deps = frozenset(re.findall(r"`([a-z0-9]+)`", m.group(2)))
            out[m.group(1)] = deps
    return out


def test_dag_table_parses_nonempty():
    docs = documented_layers()
    assert len(docs) >= 10, f"DAG table parse found only {sorted(docs)}"


def test_every_manifest_package_is_documented():
    missing = set(LAYERS) - set(documented_layers())
    assert not missing, (
        f"packages missing from docs/architecture.md DAG table: "
        f"{sorted(missing)}")


def test_documented_rows_match_the_manifest_exactly():
    docs = documented_layers()
    extra = set(docs) - set(LAYERS)
    assert not extra, f"doc rows for packages not in the manifest: {extra}"
    for pkg, deps in docs.items():
        assert deps == LAYERS[pkg], (
            f"docs/architecture.md row for {pkg!r} says {sorted(deps)}, "
            f"manifest says {sorted(LAYERS[pkg])}")


def test_harness_overrides_are_documented():
    text = DOC.read_text()
    for suffix in FILE_LAYERS:
        assert suffix in text, f"{suffix} missing from architecture.md"


def test_hot_path_registries_are_consistent():
    # Every event-loop function and slots-required class lives in a file
    # the hot-file registry covers — the manifest cannot contradict
    # itself — and names code that exists: SL009 skips a name it cannot
    # find, so a stale entry would silently shrink its scope.
    modules = {s[:-3].replace("/", ".") for s in HOT_FILE_SUFFIXES}
    for qual in EVENT_LOOP_FUNCTIONS | SLOTS_REQUIRED:
        module = ".".join(qual.split(".")[:-1])
        if module.split(".")[-1][0].isupper():  # Class.method qualname
            module = ".".join(qual.split(".")[:-2])
        assert any(module.endswith(m) for m in modules), (
            f"{qual} is not inside a HOT_FILE_SUFFIXES module")
        obj = importlib.import_module(module)
        for attr in qual[len(module) + 1:].split("."):
            assert hasattr(obj, attr), f"{qual} does not resolve"
            obj = getattr(obj, attr)
