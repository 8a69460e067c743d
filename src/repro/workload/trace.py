"""The Trace Archive: FAIR sharing of workload and operational traces.

Reproduces the paper's dissemination artifacts — the Peer-to-Peer Trace
Archive [64] and the Game Trace Archive [83] — as one record format with
explicit metadata, so experiments can exchange traces between the
simulation domains ("one of the key contributions a team can make ...
is sharing workload and operational traces in a FAIR and/or FOAD archive",
§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


@dataclass
class TraceRecord:
    """One event of a trace: (time, kind, entity, attributes)."""

    time: float
    kind: str
    entity: str = ""
    attributes: dict[str, Any] = field(default_factory=dict)


class TraceArchive:
    """A named collection of trace records with FAIR metadata.

    Metadata follows the archive papers' schema: domain, source system,
    collection instrument, time range, and free-form provenance notes.
    """

    FORMAT_VERSION = 1

    def __init__(self, name: str, domain: str,
                 instrument: str = "simulation",
                 provenance: str = "",
                 metadata: Optional[dict[str, Any]] = None):
        self.name = name
        self.domain = domain
        self.instrument = instrument
        self.provenance = provenance
        self.metadata = dict(metadata or {})
        self.records: list[TraceRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def add(self, time: float, kind: str, entity: str = "",
            **attributes: Any) -> TraceRecord:
        record = TraceRecord(time=float(time), kind=kind, entity=entity,
                             attributes=attributes)
        self.records.append(record)
        return record

    # -- metadata --------------------------------------------------------------
    def header(self) -> dict[str, Any]:
        return {
            "format_version": self.FORMAT_VERSION,
            "name": self.name,
            "domain": self.domain,
            "instrument": self.instrument,
            "provenance": self.provenance,
            "metadata": self.metadata,
            "n_records": len(self.records),
        }
