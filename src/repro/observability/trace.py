"""Structured tracing: hierarchical spans over simulated time.

A :class:`Span` is a named interval of *sim* time with a domain, tags,
point events, and an optional parent — the unit the golden-trace
regression harness diffs. A :class:`Tracer` allocates spans with stable,
monotone ids, binds to one or more :class:`~repro.sim.Environment`
clocks, and serializes the whole trace to a canonical JSON form whose
SHA-256 content digest identifies the *behavior* of a scenario run:
same seed, same code, same digest — byte for byte.

Spans deliberately do not use an implicit "current span" stack across
``yield`` boundaries: simulation processes interleave, so parenting is
explicit (``tracer.start_span(..., parent=root)``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Optional

__all__ = ["Span", "SpanEvent", "Tracer", "TRACE_FORMAT_VERSION"]

#: Bump when the serialized trace schema changes (golden corpora must be
#: re-blessed with ``python -m repro.observability.golden --update``).
TRACE_FORMAT_VERSION = 1

#: Sim-time decimals kept in serialized traces. Same-seed runs produce
#: bit-identical floats, so this is cosmetic — it keeps the JSON tidy and
#: the diffs readable, not a tolerance mechanism.
_TIME_DECIMALS = 9


def _round(t: Optional[float]) -> Optional[float]:
    return None if t is None else round(float(t), _TIME_DECIMALS)


def _jsonable_tag(value: Any) -> Any:
    """Coerce a tag value into a deterministic JSON scalar."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _round(value)
    return str(value)


@dataclass(slots=True)
class SpanEvent:
    """A point-in-time annotation inside a span (retry, crash, shed...)."""

    t: float
    name: str
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"t": _round(self.t), "name": self.name}
        if self.fields:
            out["fields"] = {k: _jsonable_tag(v)
                             for k, v in sorted(self.fields.items())}
        return out


@dataclass(slots=True)
class Span:
    """A named interval of simulated time, possibly nested under a parent."""

    span_id: int
    name: str
    domain: str
    t_start: float
    t_end: Optional[float] = None
    parent_id: Optional[int] = None
    tags: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    status: str = "ok"

    @property
    def finished(self) -> bool:
        return self.t_end is not None

    def to_dict(self) -> dict:
        out = {
            "span_id": self.span_id,
            "name": self.name,
            "domain": self.domain,
            "t_start": _round(self.t_start),
            "t_end": _round(self.t_end),
            "parent_id": self.parent_id,
            "status": self.status,
            "tags": {k: _jsonable_tag(v)
                     for k, v in sorted(self.tags.items())},
        }
        if self.events:
            out["events"] = [e.to_dict() for e in self.events]
        return out


class Tracer:
    """Allocates, finishes, and serializes :class:`Span` objects.

    The tracer's clock is the bound environment's ``now`` (see
    :meth:`bind`); every span/event method also accepts an explicit
    ``t=`` for time-stepped domains (MMOG provisioning, autoscaling)
    that advance time outside a DES environment.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self._ids = count()
        self.spans: list[Span] = []
        self._env = None
        #: Free-form run metadata (seed, scenario name, config digest...).
        #: Keep values JSON scalars — they serialize into the trace.
        self.meta: dict = {}

    # -- clock -------------------------------------------------------------
    @property
    def env(self):
        """The bound environment, or None (see :meth:`bind`)."""
        return self._env

    def bind(self, env) -> "Tracer":
        """Use ``env.now`` as the default clock for spans and events."""
        self._env = env
        return self

    def now(self, t: Optional[float] = None) -> float:
        if t is not None:
            return float(t)
        if self._env is None:
            raise ValueError(
                "tracer is not bound to an environment; pass t= explicitly "
                "or call tracer.bind(env) first")
        return self._env.now

    # -- span lifecycle ----------------------------------------------------
    def start_span(self, name: str, domain: Optional[str] = None,
                   parent: Optional[Span] = None,
                   t: Optional[float] = None, **tags: Any) -> Span:
        """Open a span at the current (or given) time.

        ``domain`` defaults to the first dotted component of ``name``
        (``"serverless.invoke"`` -> ``"serverless"``).
        """
        span = Span(
            span_id=next(self._ids),
            name=name,
            domain=domain if domain is not None else name.split(".", 1)[0],
            t_start=self.now(t),
            parent_id=parent.span_id if parent is not None else None,
            tags=dict(tags),
        )
        self.spans.append(span)
        return span

    def end_span(self, span: Span, t: Optional[float] = None,
                 status: Optional[str] = None, **tags: Any) -> Span:
        """Close ``span`` at the current (or given) time."""
        if span.t_end is not None:
            raise ValueError(f"span {span.name}#{span.span_id} already ended")
        span.t_end = self.now(t)
        if status is not None:
            span.status = status
        span.tags.update(tags)
        return span

    def add_event(self, span: Span, name: str,
                  t: Optional[float] = None, **fields: Any) -> SpanEvent:
        """Attach a point event to ``span`` at the current (or given) time."""
        event = SpanEvent(t=self.now(t), name=name, fields=dict(fields))
        span.events.append(event)
        return event

    # -- queries -----------------------------------------------------------
    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """The canonical trace document (stable key and span order)."""
        return {
            "format": TRACE_FORMAT_VERSION,
            "name": self.name,
            "meta": {k: _jsonable_tag(v)
                     for k, v in sorted(self.meta.items())},
            "n_spans": len(self.spans),
            "spans": [s.to_dict()
                      for s in sorted(self.spans,
                                      key=lambda s: s.span_id)],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON: sorted keys, stable separators, no locale."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          separators=(",", ": ") if indent else (",", ":"),
                          ensure_ascii=True)

    def digest(self) -> str:
        """SHA-256 content digest of the canonical JSON serialization."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def summary(self) -> str:
        """A short human-readable digest of the trace for reports."""
        by_name: dict[str, int] = {}
        for span in self.spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
        lines = [f"trace {self.name!r}: {len(self.spans)} spans, "
                 f"digest {self.digest()[:12]}"]
        for name in sorted(by_name):
            lines.append(f"  {name}: {by_name[name]}")
        return "\n".join(lines)
