"""Discrete-event simulation kernel for the AtLarge reproduction.

A self-contained, deterministic, generator-based discrete-event simulation
(DES) engine in the style of SimPy, built from scratch because the paper's
experiments (P2P swarms, MMOG worlds, datacenter schedulers, FaaS platforms,
autoscalers) all need a common notion of simulated time, concurrent
processes, and contended resources.

Public surface:

- :class:`Environment` — the simulation clock and event loop.
- :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf`,
  :class:`AnyOf` — the event types processes wait on.
- :class:`Ticker` — a pure-delay process on the kernel's timeout fast
  path (yields raw delays or ``(period, n)`` batches instead of events).
- :class:`Interrupt` — exception thrown into interrupted processes.
- :class:`Resource` — a capacity-limited resource with a FIFO queue.
- :class:`BoundedQueue` — capacity-bounded FIFO that rejects arrivals
  when full (the FaaS platform's front-door queue).
- :class:`Network` — fault-aware message routing between named nodes
  (partitions, loss, and latency attach as duck-typed fault models).
- :class:`RandomStreams` — named, reproducible RNG streams.
- :class:`Monitor`, :class:`TimeSeries`, :class:`Counter` — instrumentation.
- :func:`time_eq` — epsilon comparison for sim timestamps (simlint SL006).
- :class:`DebugViolation` — raised by ``Environment(debug=True)`` when a
  kernel invariant (clock monotonicity, non-negative delay) fails.

Example
-------
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         log.append((name, env.now))
...         yield env.timeout(tick)
>>> _ = env.process(clock(env, 'fast', 1))
>>> env.run(until=3)
>>> log
[('fast', 0), ('fast', 1), ('fast', 2)]
"""

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Ticker,
    Timeout,
)
from repro.sim.environment import (
    DebugViolation,
    Environment,
    StopSimulation,
    TIME_EPSILON,
    time_eq,
)
from repro.sim.resources import BoundedQueue, Resource
from repro.sim.rng import RandomStreams
from repro.sim.monitor import Counter, Monitor, TimeSeries, summarize
from repro.sim.network import Network
from repro.sim.registry import METRIC_NAME_RE, MetricsRegistry, metric_name

__all__ = [
    "AllOf",
    "AnyOf",
    "BoundedQueue",
    "Counter",
    "DebugViolation",
    "Environment",
    "Event",
    "Interrupt",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "metric_name",
    "Monitor",
    "Network",
    "Process",
    "RandomStreams",
    "Resource",
    "StopSimulation",
    "TIME_EPSILON",
    "Ticker",
    "TimeSeries",
    "Timeout",
    "summarize",
    "time_eq",
]
