"""A unified, namespaced metrics registry for scenario runs.

The registry absorbs the per-domain ad-hoc :class:`~repro.sim.Monitor`
instances into one coherent surface: every metric has a dotted,
lower-case name (``serverless.invocations.shed``), optional labels, and
is backed by the same :class:`~repro.sim.TimeSeries` / counter objects
the monitors always used — a :class:`~repro.sim.Monitor` constructed
with ``registry=`` and ``namespace=`` shares its objects with the
registry, so domain-local reads (``platform.monitor.counters["shed"]``)
and the unified snapshot see the *same* data.

``snapshot()`` returns a deterministic dict of everything recorded;
``export_text()`` renders it Prometheus-style for eyeballs and scrapers.
"""

from __future__ import annotations

import re
from typing import Any, Optional, Union

from repro.sim.monitor import Counter, TimeSeries

__all__ = ["METRIC_NAME_RE", "MetricsRegistry", "metric_name"]

#: Contract for registry metric names: dotted, at least two components,
#: each lower-case ``[a-z0-9_]+``. The cross-domain consistency test
#: holds every recorded metric to this and to the docs/observability.md
#: catalog table.
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

_SANITIZE_RE = re.compile(r"[^a-z0-9_.]+")


def metric_name(*parts: str) -> str:
    """Join and sanitize name components into a valid dotted metric name.

    ``metric_name("serverless", "latency:f")`` -> ``"serverless.latency_f"``
    — any character outside ``[a-z0-9_.]`` becomes ``_``.
    """
    joined = ".".join(p for p in parts if p)
    return _SANITIZE_RE.sub("_", joined.lower()).strip("._")


def _label_key(labels: Optional[dict]) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(label_key: tuple) -> str:
    if not label_key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return "{" + inner + "}"


class MetricsRegistry:
    """All metrics of one scenario run, keyed by (name, labels).

    ``strict`` (the default) rejects names that violate
    :data:`METRIC_NAME_RE` — pass names through :func:`metric_name` if
    they may contain stray characters.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._metrics: dict[tuple[str, tuple],
                            Union[Counter, TimeSeries]] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._metrics)

    def _validate(self, name: str) -> str:
        if self.strict and not METRIC_NAME_RE.match(name):
            raise ValueError(
                f"invalid metric name {name!r}: must match "
                f"{METRIC_NAME_RE.pattern} (try metric_name() to sanitize)")
        return name

    # -- metric factories --------------------------------------------------
    def counter(self, name: str, labels: Optional[dict] = None) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        key = (self._validate(name), _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Counter(name)
            self._metrics[key] = metric
        elif not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a series, not a counter")
        return metric

    def series(self, name: str, labels: Optional[dict] = None) -> TimeSeries:
        """Get or create the time series (gauge) ``name`` with ``labels``."""
        key = (self._validate(name), _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = TimeSeries(name)
            self._metrics[key] = metric
        elif not isinstance(metric, TimeSeries):
            raise TypeError(f"metric {name!r} is a counter, not a series")
        return metric

    # -- recording shorthands ----------------------------------------------
    def record(self, name: str, value: float, time: float) -> None:
        self.series(name).record(time, value)

    def incr(self, name: str, amount: int = 1, key: Any = None,
             labels: Optional[dict] = None) -> None:
        self.counter(name, labels).incr(key=key, amount=amount)

    # -- adoption (Monitor bridge) -----------------------------------------
    def adopt(self, name: str, metric: Union[Counter, TimeSeries],
              labels: Optional[dict] = None) -> Union[Counter, TimeSeries]:
        """Register an existing metric object under ``name``.

        Used by :class:`~repro.sim.Monitor` so its domain-local objects
        and the registry's are one and the same. Returns the registered
        object — the caller's if the slot was free, the registry's
        existing object otherwise (first writer wins, so a re-created
        monitor keeps appending to the same series).
        """
        key = (self._validate(name), _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            return existing
        self._metrics[key] = metric
        return metric

    # -- introspection -----------------------------------------------------
    def names(self) -> list[str]:
        """Sorted unique metric names (label sets collapsed)."""
        return sorted({key[0] for key in self._metrics})

    def get(self, name: str, labels: Optional[dict] = None
            ) -> Optional[Union[Counter, TimeSeries]]:
        return self._metrics.get((name, _label_key(labels)))

    def items(self):
        """Deterministic iteration: sorted by (name, labels)."""
        return sorted(self._metrics.items(), key=lambda kv: kv[0])

    def snapshot(self) -> dict:
        """A deterministic, JSON-able dump of every metric.

        Keys are ``name{label="value",...}``; counter values carry
        ``total`` (and ``by_key`` when present), series carry count,
        last value, and time-average.
        """
        out: dict[str, dict] = {}
        for (name, label_key), metric in self.items():
            display = name + _format_labels(label_key)
            if isinstance(metric, Counter):
                entry: dict[str, Any] = {"type": "counter",
                                         "total": metric.total}
                if metric.by_key:
                    entry["by_key"] = {str(k): v for k, v in
                                       sorted(metric.by_key.items(),
                                              key=lambda kv: str(kv[0]))}
            else:
                entry = {"type": "series", "count": len(metric)}
                if len(metric):
                    entry["first_t"] = metric.times[0]
                    entry["last_t"] = metric.times[-1]
                    entry["last"] = metric.values[-1]
                    entry["time_average"] = metric.time_average()
            out[display] = entry
        return out

    def export_text(self) -> str:
        """Prometheus-style exposition (dots become underscores).

        Counters export as ``<name>_total``; series export their last
        value as a gauge plus a ``<name>_samples`` count.
        """
        lines: list[str] = []
        for (name, label_key), metric in self.items():
            flat = name.replace(".", "_")
            labels = _format_labels(label_key)
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {flat}_total counter")
                lines.append(f"{flat}_total{labels} {metric.total}")
                for k in sorted(metric.by_key, key=str):
                    sub = _format_labels(label_key
                                         + (("key", str(k)),))
                    lines.append(f"{flat}_total{sub} {metric.by_key[k]}")
            else:
                last = metric.values[-1] if len(metric) else float("nan")
                lines.append(f"# TYPE {flat} gauge")
                lines.append(f"{flat}{labels} {last:g}")
                lines.append(f"{flat}_samples{labels} {len(metric)}")
        return "\n".join(lines) + ("\n" if lines else "")
