"""A fault-aware message fabric between named simulation nodes.

The paper's ecosystem lens (§3) treats communication as a first-class
failure domain: components do not call each other, they *send messages*
that a real network may delay, drop, or — during a partition — refuse to
carry at all. :class:`Network` carries them: senders name their
endpoints, attached fault models vote on each message, and the fabric
keeps conservation accounting the invariant engine can audit::

    sent == delivered + blocked + dropped + in_flight

Fault models attach duck-typed — any object may implement any subset of:

- ``blocks(src, dst) -> bool`` — partition semantics: the message cannot
  leave the source at all (e.g.
  :class:`~repro.faults.NetworkPartitionModel`);
- ``drops(src, dst, kind) -> bool`` — loss semantics: the message leaves
  but never arrives (e.g. :class:`~repro.faults.GrayFailureModel`);
- ``extra_latency_s(src, dst) -> float`` — added one-way delay.

Keeping the protocol structural (no base class) means :mod:`repro.sim`
does not import :mod:`repro.faults`; the dependency points the same way
it always has.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.environment import Environment
from repro.sim.monitor import Monitor

__all__ = ["Network"]

#: Verdicts :meth:`Network.send` can return.
DELIVERED = "delivered"
BLOCKED = "blocked"
DROPPED = "dropped"
IN_FLIGHT = "in_flight"
#: The ledger's counters, in the order of each ``by_kind`` row.
_LEDGER = ("sent", DELIVERED, BLOCKED, DROPPED)


class Network:
    """Message routing between registered nodes, filtered by fault models.

    ``send`` consults every attached model in attach order: a *block*
    (partition) beats a *drop* (loss), and extra latencies are additive.
    With zero total latency the payload callback runs synchronously —
    message passing costs nothing unless a model says otherwise, so a
    fabric without faults is behaviorally invisible to its users.

    The ledger is kept once, in the monitor's ``sent``, ``delivered``,
    ``blocked`` and ``dropped`` counters keyed by message kind (each made
    at its first booking), so the monitor and its registry namespace
    must serve this network alone; without one it keeps a private one.
    The same-named attributes and :attr:`by_kind` are read-only views;
    :attr:`in_flight` is a separate int, so the conservation law
    compares two independent books.
    """

    # Every simulated message crosses this object; keep it dict-free.
    __slots__ = ("env", "monitor", "default_latency_s", "_nodes", "_blocks",
                 "_drops", "_latencies", "in_flight")

    def __init__(self, env: Environment, monitor: Optional[Monitor] = None,
                 default_latency_s: float = 0.0):
        if default_latency_s < 0:
            raise ValueError("default_latency_s must be non-negative")
        self.env = env
        self.monitor = Monitor(env) if monitor is None else monitor
        self.default_latency_s = default_latency_s
        self._nodes: dict[str, None] = {}  # insertion-ordered set
        #: Each attached model's protocol hooks, bound once by
        #: :meth:`attach`, in attach order.
        self._blocks: list[Callable[[str, str], bool]] = []
        self._drops: list[Callable[[str, str, str], bool]] = []
        self._latencies: list[Callable[[str, str], float]] = []
        self.in_flight = 0

    # -- ledger views -------------------------------------------------------
    sent = property(lambda self: self.monitor.total("sent"))
    delivered = property(lambda self: self.monitor.total(DELIVERED))
    blocked = property(lambda self: self.monitor.total(BLOCKED))
    dropped = property(lambda self: self.monitor.total(DROPPED))

    @property
    def by_kind(self) -> dict[str, dict[str, int]]:
        """The ledger per message kind, in first-sent order (a copy)."""
        columns = [(n, getattr(self.monitor.counters.get(n), "by_key", {}))
                   for n in _LEDGER]
        return {kind: {n: by_key.get(kind, 0) for n, by_key in columns}
                for kind in columns[0][1]}

    # -- topology ----------------------------------------------------------
    def add_node(self, name: str) -> str:
        """Register a node (idempotent); returns the name for chaining."""
        self._nodes[str(name)] = None
        return str(name)

    def add_nodes(self, names) -> None:
        for name in names:
            self.add_node(name)

    @property
    def nodes(self) -> list[str]:
        """Registered node names, in registration order."""
        return list(self._nodes)

    def attach(self, model: Any) -> Any:
        """Attach a fault model (evaluated in attach order); returns it.

        The model's hooks are looked up here, once: a hook added to or
        replaced on the model after it is attached is not seen.
        """
        for hooks, name in ((self._blocks, "blocks"), (self._drops, "drops"),
                            (self._latencies, "extra_latency_s")):
            hook = getattr(model, name, None)
            if hook is not None:
                hooks.append(hook)
        return model

    # -- verdicts ----------------------------------------------------------
    def _require(self, name: str) -> None:
        if name not in self._nodes:
            raise KeyError(f"unknown network node {name!r}; "
                           f"known: {self.nodes}")

    def allows(self, src: str, dst: str) -> bool:
        """Whether a message from ``src`` to ``dst`` would not be blocked."""
        self._require(src)
        self._require(dst)
        return not any(blocks(src, dst) for blocks in self._blocks)

    def latency_s(self, src: str, dst: str) -> float:
        """One-way delay ``src`` -> ``dst`` under the attached models."""
        total = self.default_latency_s
        for extra in self._latencies:
            total += float(extra(src, dst))
        return total

    # -- transmission ------------------------------------------------------
    def send(self, src: str, dst: str, deliver: Callable[[], Any],
             size_mb: float = 0.0, kind: str = "message") -> str:
        """Attempt one message; returns its immediate verdict.

        - ``"blocked"`` — a partition refused it; ``deliver`` never runs.
        - ``"dropped"`` — a loss model ate it in transit; ``deliver``
          never runs.
        - ``"delivered"`` — ``deliver()`` ran synchronously (zero-latency
          path).
        - ``"in_flight"`` — a positive latency applies; ``deliver()`` runs
          after it (the message counts as in flight until then).
        """
        nodes = self._nodes
        if src not in nodes:
            self._require(src)
        if dst not in nodes:
            self._require(dst)
        # SL009: each loop walks a local, not a self.<attr> load.
        count = self.monitor.count
        count("sent", kind)
        blockers = self._blocks
        for blocks in blockers:
            if blocks(src, dst):
                count(BLOCKED, kind)
                return BLOCKED
        droppers = self._drops
        for drops in droppers:
            if drops(src, dst, kind):
                count(DROPPED, kind)
                return DROPPED
        delay = self.default_latency_s
        latencies = self._latencies
        for extra in latencies:
            delay += float(extra(src, dst))
        if delay <= 0:
            count(DELIVERED, kind)
            deliver()
            return DELIVERED
        self.in_flight += 1
        self.env.process(self._deliver_later(deliver, delay, kind))
        return IN_FLIGHT

    def _deliver_later(self, deliver: Callable[[], Any], delay: float,
                       kind: str):
        yield self.env.timeout(delay)
        self.in_flight -= 1
        self.monitor.count(DELIVERED, kind)
        deliver()
