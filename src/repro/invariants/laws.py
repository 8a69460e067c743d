"""Declarative conservation laws over live simulation state.

A law states that two sums of named terms are equal (within a
tolerance) whenever its guard holds. Terms are zero-argument getters, so
a law can mix sources freely: object counters, list lengths, and
:class:`~repro.observability.MetricsRegistry` counters (via
:func:`counter_term`) all read the *current* value at check time.

When a law fails, :class:`InvariantViolation` carries every term's
labeled value and the signed delta — the difference between "something
is off" and "``served`` is 3 high at t=184.0", which is what makes a
chaos run self-auditing instead of merely noisy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

__all__ = ["ConservationLaw", "InvariantViolation", "Term", "counter_term"]


@dataclass(frozen=True)
class Term:
    """One labeled addend of a conservation law."""

    label: str
    getter: Callable[[], float]

    def value(self) -> float:
        return float(self.getter())


def counter_term(registry, metric: str, label: Optional[str] = None) -> Term:
    """A term reading a registry counter's total (0 until first emitted).

    Reading through the registry — rather than the emitting object —
    is the point: if the snapshot pipeline ever diverges from the
    domain's own books, the law catches the divergence.
    """
    def read() -> float:
        counter = registry.get(metric)
        return float(counter.total) if counter is not None else 0.0
    return Term(label or metric, read)


class InvariantViolation(AssertionError):
    """A conservation law failed; carries the labeled per-term deltas.

    ``seed`` (when the checking engine knows it) and the sim-time ``t``
    ride in the message, so a violation collected by a fuzzing campaign
    is self-describing: the verdict line alone names the world that
    broke and when, without re-running anything.
    """

    def __init__(self, law: "ConservationLaw", time: float,
                 lhs_values: Sequence[tuple[str, float]],
                 rhs_values: Sequence[tuple[str, float]],
                 seed: Optional[int] = None):
        self.law = law
        self.time = time
        self.seed = seed
        self.lhs_values = list(lhs_values)
        self.rhs_values = list(rhs_values)
        self.lhs_total = sum(v for _, v in lhs_values)
        self.rhs_total = sum(v for _, v in rhs_values)
        self.delta = self.lhs_total - self.rhs_total
        lhs = " + ".join(f"{label}={value:g}" for label, value in lhs_values)
        rhs = " + ".join(f"{label}={value:g}" for label, value in rhs_values)
        origin = f"t={time:g}" if seed is None else f"t={time:g} seed={seed}"
        super().__init__(
            f"invariant {law.name!r} violated at {origin}: "
            f"[{lhs}] = {self.lhs_total:g} != [{rhs}] = {self.rhs_total:g} "
            f"(delta {self.delta:+g})")


@dataclass
class ConservationLaw:
    """``sum(lhs) == sum(rhs)`` within ``tol``, whenever ``when()`` holds."""

    name: str
    lhs: Sequence[Term]
    rhs: Sequence[Term]
    tol: float = 1e-6
    #: Optional guard: the law is only meaningful when this returns True
    #: (e.g. a checkpoint accounting identity that holds at completion).
    when: Optional[Callable[[], bool]] = None
    description: str = ""
    #: Times the law was evaluated / found violated (bookkeeping).
    checks: int = field(default=0, compare=False)
    violations: int = field(default=0, compare=False)

    def __post_init__(self):
        self.lhs = tuple(self.lhs)
        self.rhs = tuple(self.rhs)
        if not self.lhs or not self.rhs:
            raise ValueError(f"law {self.name!r} needs terms on both sides")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")

    def evaluate(self) -> tuple[list[tuple[str, float]],
                                list[tuple[str, float]]]:
        """Read every term once; returns labeled (lhs, rhs) values."""
        return ([(t.label, t.value()) for t in self.lhs],
                [(t.label, t.value()) for t in self.rhs])

    def check(self, time: float = 0.0, seed: Optional[int] = None) -> None:
        """Evaluate and raise :class:`InvariantViolation` on imbalance."""
        when = self.when
        if when is not None and not when():
            return
        self.checks += 1
        # The same floats summed in the same order as the labeled values
        # of :meth:`evaluate`, which only a failing law needs: getters
        # are side-effect-free reads, so re-reading them is exact.
        lhs_total = sum([float(t.getter()) for t in self.lhs])
        rhs_total = sum([float(t.getter()) for t in self.rhs])
        if abs(lhs_total - rhs_total) > self.tol:
            self.violations += 1
            lhs_values, rhs_values = self.evaluate()
            raise InvariantViolation(self, time, lhs_values, rhs_values,
                                     seed=seed)
