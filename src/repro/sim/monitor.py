"""Instrumentation for simulations: time series, counters, and summaries.

The paper stresses that "monitoring only reveals what is measurable and
measured" (§2.1); these helpers make measuring cheap so experiments measure
everything they report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np


@dataclass
class TimeSeries:
    """Timestamped samples of a scalar signal."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.values)

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted mean, treating the signal as right-continuous steps."""
        if not self.times:
            return math.nan
        times = list(self.times)
        values = list(self.values)
        end = until if until is not None else times[-1]
        if end <= times[0]:
            return values[0]
        total = 0.0
        for i in range(len(times)):
            t0 = times[i]
            t1 = times[i + 1] if i + 1 < len(times) else end
            t1 = min(t1, end)
            if t1 > t0:
                total += values[i] * (t1 - t0)
        return total / (end - times[0])

    def resample(self, step: float, until: Optional[float] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Sample the step signal on a regular grid (for metric pipelines)."""
        if not self.times:
            return np.array([]), np.array([])
        end = until if until is not None else self.times[-1]
        grid = np.arange(self.times[0], end + step / 2, step)
        times = np.asarray(self.times)
        idx = np.searchsorted(times, grid, side="right") - 1
        idx = np.clip(idx, 0, len(times) - 1)
        return grid, np.asarray(self.values)[idx]


@dataclass
class Counter:
    """A monotone event counter with optional per-key breakdown."""

    name: str
    total: int = 0
    by_key: dict[Any, int] = field(default_factory=dict)

    def incr(self, key: Any = None, amount: int = 1) -> None:
        self.total += amount
        if key is not None:
            self.by_key[key] = self.by_key.get(key, 0) + amount


class Monitor:
    """A namespace of :class:`TimeSeries` and :class:`Counter` objects.

    Every monitor is backed by a
    :class:`~repro.observability.MetricsRegistry`: pass one (plus a
    ``namespace``) to pool metrics from many components into a single
    scenario-wide registry, or let the monitor own a private registry.
    The registry holds the *same* objects as :attr:`series` /
    :attr:`counters`, under dotted names — a local ``record("queue_length",
    ...)`` in namespace ``"scheduling"`` is the registry metric
    ``scheduling.queue_length``. Local names containing ``:`` (the
    historical per-entity convention, e.g. ``latency:f``) keep their full
    name locally but register as the base name with a ``key`` label.

    Timestamps come from ``env.now``, an explicit ``time=``, or — only
    when constructed with ``ordinal_time=True`` — a per-series ordinal
    (0, 1, 2, ...). Without any of the three, :meth:`record` raises
    rather than guessing (and rather than silently dropping the sample).

    A counter name has one writer per monitor: the component that counts
    that fact. Component counters (``Network.sent``, ``Journal.appended``)
    are read-only views over it through :meth:`total`, which never creates
    a counter, so reading a view leaves :attr:`counters` and the registry
    as they were.
    """

    def __init__(self, env=None, registry=None, namespace: str = "sim",
                 ordinal_time: bool = False):
        if registry is None:
            from repro.sim.registry import MetricsRegistry
            registry = MetricsRegistry()
        self.env = env
        self.registry = registry
        self.namespace = namespace
        #: Explicit opt-in for env-less monitors: timestamp records with
        #: the series' sample index instead of raising.
        self.ordinal_time = ordinal_time
        self.series: dict[str, TimeSeries] = {}
        self.counters: dict[str, Counter] = {}

    def _registry_key(self, name: str) -> tuple[str, Optional[dict]]:
        """Map a local name to (registry name, labels)."""
        from repro.sim.registry import metric_name
        base, sep, key = name.partition(":")
        labels = {"key": key} if sep else None
        return metric_name(self.namespace, base), labels

    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            reg_name, labels = self._registry_key(name)
            series = self.registry.adopt(reg_name, TimeSeries(name), labels)
            self.series[name] = series
        return series

    def _counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            reg_name, labels = self._registry_key(name)
            counter = self.registry.adopt(reg_name, Counter(name), labels)
            self.counters[name] = counter
        return counter

    def record(self, name: str, value: float,
               time: Optional[float] = None) -> None:
        series = self._series(name)
        if time is None:
            if self.env is not None:
                time = self.env.now
            elif self.ordinal_time:
                time = float(len(series))
            else:
                raise ValueError(
                    "no env attached; pass time explicitly or construct "
                    "the Monitor with ordinal_time=True")
        series.record(time, value)

    def count(self, name: str, key: Any = None, amount: int = 1) -> None:
        # Counter.incr inlined: this is the hottest instrumentation call.
        counter = self.counters.get(name)
        if counter is None:
            counter = self._counter(name)
        counter.total += amount
        if key is not None:
            by_key = counter.by_key
            by_key[key] = by_key.get(key, 0) + amount

    def total(self, name: str) -> int:
        """The counter's total; 0 (and no new counter) if it never counted."""
        counter = self.counters.get(name)
        return 0 if counter is None else counter.total

    def __getitem__(self, name: str) -> TimeSeries:
        return self.series[name]

    def __contains__(self, name: str) -> bool:
        return name in self.series or name in self.counters


def summarize(values) -> dict[str, float]:
    """Distributional summary matching the paper's violin-plot statistics.

    Returns mean, median, IQR bounds, whiskers (1.5×IQR clipped to data),
    min, max, and count — the exact annotations of Figure 3.

    Empty input returns ``{"count": 0}`` and nothing else; ``None`` and
    NaN samples are dropped before summarizing (so a series that never
    fired, e.g. ``TimeSeries.last()`` of an empty series, cannot poison
    the percentiles), and input that is *all* None/NaN is treated as
    empty.
    """
    arr = np.asarray([v for v in values if v is not None], dtype=float)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return {"count": 0}
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo_whisk = arr[arr >= q1 - 1.5 * iqr].min()
    hi_whisk = arr[arr <= q3 + 1.5 * iqr].max()
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(med),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "q1": float(q1),
        "q3": float(q3),
        "iqr": float(iqr),
        "whisker_low": float(lo_whisk),
        "whisker_high": float(hi_whisk),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
