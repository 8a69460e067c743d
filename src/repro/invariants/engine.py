"""The invariant engine: continuous conservation checking as a process.

Register laws, and the engine re-evaluates every one on a fixed sim-time
cadence (plus on demand via :meth:`InvariantEngine.check_now`). A
violation raises :class:`~repro.invariants.InvariantViolation` *inside
the simulation* — the run dies at the first inconsistent instant with a
labeled delta, not at the end with a mysterious total. Check and
violation counts flow into the metrics registry (``invariants.checks``,
``invariants.violations``) so golden traces also pin how often the
auditor looked.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.invariants.laws import ConservationLaw, InvariantViolation
from repro.sim import Environment, Monitor

__all__ = ["InvariantEngine"]


class InvariantEngine:
    """Continuously audits a set of :class:`ConservationLaw` objects.

    ``halt=True`` (the default) lets the first violation propagate and
    kill the run — the self-auditing mode chaos scenarios want.
    ``halt=False`` records violations (counted, kept in
    :attr:`violation_log`) and keeps going — the survey mode property
    tests use to count how *many* laws a corruption breaks.
    """

    def __init__(self, env: Environment,
                 laws: Iterable[ConservationLaw] = (),
                 check_interval_s: float = 1.0,
                 monitor: Optional[Monitor] = None,
                 halt: bool = True,
                 seed: Optional[int] = None):
        if check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        self.env = env
        self.laws: list[ConservationLaw] = []
        self.check_interval_s = check_interval_s
        self.monitor = Monitor(env) if monitor is None else monitor
        self.halt = halt
        #: The world's root seed, stamped into every violation's message
        #: so campaign verdicts are self-describing without a re-run.
        self.seed = seed
        self.violation_log: list[InvariantViolation] = []
        for law in laws:
            self.register(law)
        self._proc = env.process(self._audit())

    checks = property(lambda self: self.monitor.total("checks"))
    violations = property(lambda self: self.monitor.total("violations"))

    def register(self, law: ConservationLaw) -> ConservationLaw:
        if any(existing.name == law.name for existing in self.laws):
            raise ValueError(f"duplicate law name {law.name!r}")
        self.laws.append(law)
        return law

    def law(self, name: str) -> ConservationLaw:
        for law in self.laws:
            if law.name == name:
                return law
        raise KeyError(f"unknown law {name!r}; "
                       f"known: {[l.name for l in self.laws]}")

    def check_now(self) -> list[InvariantViolation]:
        """Evaluate every law once; raise (halt) or collect (survey)."""
        found: list[InvariantViolation] = []
        now = self.env.now
        seed = self.seed
        count = self.monitor.count
        for law in self.laws:
            count("checks", law.name)
            try:
                law.check(now, seed=seed)
            except InvariantViolation as violation:
                self.violation_log.append(violation)
                count("violations", law.name)
                if self.halt:
                    raise
                found.append(violation)
        return found

    def _audit(self):
        while True:
            yield self.env.timeout(self.check_interval_s)
            self.check_now()
