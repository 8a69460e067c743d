"""The Distributed Systems Memex (paper Challenge C6).

The paper proposes archiving "large amounts of operational traces
collected from the distributed systems that currently underpin our
society", and adds a second aspect: *the preservation of original designs
and of their origins* — the artifacts, decisions, and discussions that
led to them, before the generations that produced them retire.

The Memex here stores three entry kinds — designs (with their
C8 provenance documents), operational traces (via the Trace Archive
header), and dissemination artifacts — searchable by keyword, domain,
and era, with a *heritage report* that locates the gaps the paper warns
about (eras/domains with nothing preserved, designs preserved without
their decision provenance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.core.process import DesignDocument

ENTRY_KINDS = ("design", "trace", "artifact")


@dataclass
class MemexEntry:
    """One preserved item."""

    kind: str
    name: str
    year: int
    domain: str
    keywords: frozenset[str] = frozenset()
    #: For designs: the provenance document; for traces: the archive
    #: header; for artifacts: free-form metadata.
    payload: Any = None

    def __post_init__(self):
        if self.kind not in ENTRY_KINDS:
            raise ValueError(f"kind must be one of {ENTRY_KINDS}")

    @property
    def has_provenance(self) -> bool:
        if self.kind != "design":
            return True
        return isinstance(self.payload, DesignDocument) and bool(
            self.payload.events)


class DistributedSystemsMemex:
    """The archive: add, search, and audit preservation coverage."""

    def __init__(self, name: str = "ds-memex"):
        self.name = name
        self.entries: list[MemexEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    # -- ingestion ----------------------------------------------------------
    def add(self, entry: MemexEntry) -> MemexEntry:
        if any(e.name == entry.name and e.kind == entry.kind
               for e in self.entries):
            raise ValueError(
                f"{entry.kind} entry {entry.name!r} already archived")
        self.entries.append(entry)
        return entry

    def preserve_design(self, document: DesignDocument, year: int,
                        domain: str,
                        keywords: Iterable[str] = ()) -> MemexEntry:
        """Archive a design with its full provenance document."""
        return self.add(MemexEntry(
            kind="design", name=document.problem, year=year, domain=domain,
            keywords=frozenset(keywords), payload=document))

    def preserve_trace(self, header: dict, year: int,
                       keywords: Iterable[str] = ()) -> MemexEntry:
        """Archive a Trace Archive's header (the FAIR metadata)."""
        return self.add(MemexEntry(
            kind="trace", name=header["name"], year=year,
            domain=header.get("domain", "unknown"),
            keywords=frozenset(keywords), payload=header))

    # -- search -------------------------------------------------------------
    def search(self, keyword: Optional[str] = None,
               domain: Optional[str] = None,
               kind: Optional[str] = None,
               era: Optional[tuple[int, int]] = None) -> list[MemexEntry]:
        """All entries matching every given criterion."""
        hits = []
        for entry in self.entries:
            if keyword is not None and keyword not in entry.keywords:
                continue
            if domain is not None and entry.domain != domain:
                continue
            if kind is not None and entry.kind != kind:
                continue
            if era is not None and not era[0] <= entry.year <= era[1]:
                continue
            hits.append(entry)
        return sorted(hits, key=lambda e: (e.year, e.name))

    def domains(self) -> list[str]:
        return sorted({e.domain for e in self.entries})

    # -- heritage audit -----------------------------------------------------
    def heritage_report(self, first_year: int,
                        last_year: int) -> dict[str, Any]:
        """Where are we losing heritage?

        Reports, per domain, the decades with nothing preserved, plus the
        designs preserved *without* decision provenance — the two loss
        modes C6 names.
        """
        if last_year < first_year:
            raise ValueError("last_year must be >= first_year")
        decades = list(range(first_year - first_year % 10, last_year + 1, 10))
        gaps: dict[str, list[int]] = {}
        for domain in self.domains():
            years = {e.year for e in self.entries if e.domain == domain}
            gaps[domain] = [
                d for d in decades
                if not any(d <= y < d + 10 for y in years)
            ]
        missing_provenance = sorted(
            e.name for e in self.entries
            if e.kind == "design" and not e.has_provenance)
        designs = [e for e in self.entries if e.kind == "design"]
        return {
            "entries": len(self.entries),
            "domains": self.domains(),
            "decade_gaps": gaps,
            "designs_without_provenance": missing_provenance,
            "provenance_coverage": (
                1.0 - len(missing_provenance) / len(designs)
                if designs else 1.0),
        }

    # -- persistence -----------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        with path.open("w") as fh:
            fh.write(json.dumps({"memex": self.name,
                                 "entries": len(self.entries)}) + "\n")
            for entry in self.entries:
                payload: Any
                if isinstance(entry.payload, DesignDocument):
                    payload = json.loads(entry.payload.to_json())
                else:
                    payload = entry.payload
                fh.write(json.dumps({
                    "kind": entry.kind, "name": entry.name,
                    "year": entry.year, "domain": entry.domain,
                    "keywords": sorted(entry.keywords),
                    "payload": payload,
                }, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DistributedSystemsMemex":
        path = Path(path)
        with path.open() as fh:
            header = json.loads(fh.readline())
            memex = cls(name=header["memex"])
            for line in fh:
                data = json.loads(line)
                payload = data["payload"]
                if data["kind"] == "design" and isinstance(payload, dict) \
                        and "events" in payload:
                    document = DesignDocument(problem=payload["problem"])
                    for event in payload["events"]:
                        document.log(event["iteration"], event["stage"],
                                     event["action"],
                                     note=event.get("note", ""))
                    payload = document
                memex.entries.append(MemexEntry(
                    kind=data["kind"], name=data["name"],
                    year=data["year"], domain=data["domain"],
                    keywords=frozenset(data["keywords"]),
                    payload=payload))
        if len(memex.entries) != header["entries"]:
            raise ValueError(f"memex file {path} truncated")
        return memex
