"""A fault-aware message fabric between named simulation nodes.

The paper's ecosystem lens (§3) treats communication as a first-class
failure domain: components do not call each other, they *send messages*
that a real network may delay, drop, or — during a partition — refuse to
carry at all. Before this module, every domain hand-rolled its own loss
check (the P2P swarm consulted a :class:`~repro.faults.MessageLossModel`
inline, heartbeats went straight into the detector, dispatches teleported
onto machines). :class:`Network` centralizes that: senders name their
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


class Network:
    """Message routing between registered nodes, filtered by fault models.

    ``send`` consults every attached model in attach order: a *block*
    (partition) beats a *drop* (loss), and extra latencies are additive.
    With zero total latency the payload callback runs synchronously —
    message passing costs nothing unless a model says otherwise, so a
    fabric without faults is behaviorally invisible to its users.
    """

    # Every simulated message crosses this object; keep it dict-free.
    __slots__ = ("env", "monitor", "default_latency_s", "_nodes", "_blocks",
                 "_drops", "_latencies", "sent", "delivered", "blocked",
                 "dropped", "in_flight", "by_kind")

    def __init__(self, env: Environment, monitor: Optional[Monitor] = None,
                 default_latency_s: float = 0.0):
        if default_latency_s < 0:
            raise ValueError("default_latency_s must be non-negative")
        self.env = env
        self.monitor = monitor
        self.default_latency_s = default_latency_s
        self._nodes: dict[str, None] = {}  # insertion-ordered set
        #: Each attached model's protocol hooks, bound once by
        #: :meth:`attach`, in attach order.
        self._blocks: list[Callable[[str, str], bool]] = []
        self._drops: list[Callable[[str, str, str], bool]] = []
        self._latencies: list[Callable[[str, str], float]] = []
        #: Conservation ledger (``sent == delivered + blocked + dropped
        #: + in_flight`` at every instant).
        self.sent = 0
        self.delivered = 0
        self.blocked = 0
        self.dropped = 0
        self.in_flight = 0
        #: Per-kind breakdown of the same ledger.
        self.by_kind: dict[str, dict[str, int]] = {}

    # -- topology ----------------------------------------------------------
    def add_node(self, name: str) -> str:
        """Register a node (idempotent); returns the name for chaining."""
        self._nodes[str(name)] = None
        return str(name)

    def add_nodes(self, names) -> None:
        for name in names:
            self.add_node(name)

    def remove_node(self, name: str) -> None:
        self._nodes.pop(str(name), None)

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
    def _require(self, name: str) -> str:
        if name not in self._nodes:
            raise KeyError(f"unknown network node {name!r}; "
                           f"known: {self.nodes}")
        return name

    def allows(self, src: str, dst: str) -> bool:
        """Whether a message from ``src`` to ``dst`` would not be blocked."""
        self._require(src)
        self._require(dst)
        for blocks in self._blocks:
            if blocks(src, dst):
                return False
        return True

    def latency_s(self, src: str, dst: str) -> float:
        """One-way delay ``src`` -> ``dst`` under the attached models."""
        total = self.default_latency_s
        for extra in self._latencies:
            total += float(extra(src, dst))
        return total

    def _book(self, outcome: str, kind: str) -> None:
        per_kind = self.by_kind.get(kind)
        if per_kind is None:
            per_kind = self.by_kind[kind] = {
                "sent": 0, DELIVERED: 0, BLOCKED: 0, DROPPED: 0}
        per_kind[outcome] += 1
        if self.monitor is not None:
            self.monitor.count(outcome, key=kind)

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
        self.sent += 1
        book = self._book
        book("sent", kind)
        # SL009: each loop walks a local, not a self.<attr> load.
        blockers = self._blocks
        for blocks in blockers:
            if blocks(src, dst):
                self.blocked += 1
                book(BLOCKED, kind)
                return BLOCKED
        droppers = self._drops
        for drops in droppers:
            if drops(src, dst, kind):
                self.dropped += 1
                book(DROPPED, kind)
                return DROPPED
        delay = self.default_latency_s
        latencies = self._latencies
        for extra in latencies:
            delay += float(extra(src, dst))
        if delay <= 0:
            self.delivered += 1
            self._book(DELIVERED, kind)
            deliver()
            return DELIVERED
        self.in_flight += 1
        self.env.process(self._deliver_later(deliver, delay, kind))
        return IN_FLIGHT

    def _deliver_later(self, deliver: Callable[[], Any], delay: float,
                       kind: str):
        yield self.env.timeout(delay)
        self.in_flight -= 1
        self.delivered += 1
        self._book(DELIVERED, kind)
        deliver()
