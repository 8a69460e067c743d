"""Fencing tokens: the machines' defense against a deposed leader.

Election terms double as fencing tokens. Every dispatch carries the
sending brain's current term; every completion report carries the
highest term its machine has witnessed. At failover the new leader
broadcasts a ``fence`` message that raises each machine's floor to the
new term *before* the new brain dispatches, so:

- a deposed leader's dispatches arrive with ``token < floor`` and are
  rejected at the machine — split-brain writes become a counted
  non-event instead of silent corruption;
- a report stamped with a pre-fence token is refused by the live brain
  (``admit_report``), which teaches the machine the current term.

One :class:`FencingGate` instance is the simulation's shared ledger for
both sides of the protocol: the control plane's current term and every
machine's witnessed floor.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Monitor


class FencingGate:
    """Term floor per machine plus the control plane's current term."""

    def __init__(self, monitor: Optional[Monitor] = None):
        self.term = 0
        self._floor: dict[str, int] = {}
        self.accepted = 0
        self.fence_raises = 0
        self.monitor = Monitor() if monitor is None else monitor

    #: Dispatches rejected at a machine because the token was below the
    #: machine's fenced floor — the split-brain counter the
    #: ``replication.fenced_writes_rejected`` law audits.
    rejected = property(lambda self: self.monitor.total("fenced_rejections"))
    fenced_reports = property(
        lambda self: self.monitor.total("fenced_reports"))

    def advance(self, term: int) -> None:
        """The control plane moved to ``term`` (promotion or boot)."""
        self.term = max(self.term, int(term))

    def raise_floor(self, target: str, term: int) -> None:
        """A ``fence`` message landed at ``target``: lift its floor."""
        if term > self._floor.get(target, 0):
            self._floor[target] = int(term)
            self.fence_raises += 1

    def floor_of(self, target: str) -> int:
        return self._floor.get(target, 0)

    def dispatch_token(self) -> int:
        """Token the current brain stamps on an outgoing dispatch."""
        return self.term

    def admit_dispatch(self, target: str, token: int) -> bool:
        """Machine-side check: does this dispatch outrank the fence?"""
        floor = self._floor.get(target, 0)
        if token < floor:
            self.monitor.count("fenced_rejections", key=target)
            return False
        if token > floor:
            self._floor[target] = int(token)
        self.accepted += 1
        return True

    def report_token(self, target: str) -> int:
        """Token a machine stamps on an outgoing completion report."""
        return self._floor.get(target, 0)

    def admit_report(self, target: str, token: int) -> bool:
        """Brain-side check on an arriving report.

        A token below the current term means the machine has not
        witnessed the newest fence yet; refuse the report (the sender
        retries) and teach the machine the live term.
        """
        if token < self.term:
            self.monitor.count("fenced_reports", key=target)
            self.raise_floor(target, self.term)
            return False
        return True
