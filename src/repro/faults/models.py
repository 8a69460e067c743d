"""Fault models: the ways components stop working.

The paper makes availability a first-class non-functional requirement (P3)
and its challenges C3/C6 call for evaluating designs under realistic failure
regimes, not happy paths. These models are domain-agnostic generators of
misbehavior on top of :mod:`repro.sim`:

- :class:`CrashRestart` — fail-stop targets with exponential holding times
  (generalizes the cluster :class:`~repro.cluster.failures.FailureInjector`);
- :class:`TransientErrorModel` — probabilistic per-operation failure
  (the serverless "function invocation errored" model);
- :class:`StragglerModel` — per-operation latency multiplier (slow, not
  dead — the graph-analytics straggler);
- :class:`MessageLossModel` — piece loss on a lossy transfer channel.

All randomness comes from caller-provided seeded ``numpy`` generators so
every chaotic run replays deterministically (Challenge C3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.sim import Environment, Monitor


@dataclass
class TransientErrorModel:
    """Probabilistic per-operation failure.

    Call :meth:`should_fail` once per operation; it draws from the seeded
    stream and keeps injection statistics. Setting ``enabled`` to False
    makes the model a no-op *without* consuming random numbers, so a
    baseline run and a chaotic run of the same seed stay comparable.
    """

    rng: np.random.Generator
    error_rate: float
    enabled: bool = True
    checks: int = 0
    injected: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate {self.error_rate} not in [0, 1]")

    def should_fail(self) -> bool:
        """Draw one operation's fate."""
        self.checks += 1
        if not self.enabled or self.error_rate == 0.0:
            return False
        hit = bool(self.rng.random() < self.error_rate)
        if hit:
            self.injected += 1
        return hit


@dataclass
class StragglerModel:
    """Per-operation slowdown: with probability p, an operation runs
    ``multiplier``× slower (slow-but-alive, the hardest failure mode to
    detect — hedging, not retry, is the mitigation)."""

    rng: np.random.Generator
    probability: float
    multiplier: float = 4.0
    draws: int = 0
    stragglers: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} not in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def runtime_factor(self) -> float:
        """Multiplier for one operation's service time (1.0 or ``multiplier``)."""
        self.draws += 1
        if self.probability and self.rng.random() < self.probability:
            self.stragglers += 1
            return self.multiplier
        return 1.0


@dataclass
class MessageLossModel:
    """Loss on a lossy transfer channel, at ~1 MB piece granularity.

    :meth:`transfer` returns the goodput of an attempted transfer and books
    the lost remainder (the sender's bandwidth is spent either way).
    """

    rng: np.random.Generator
    loss_rate: float
    delivered_mb: float = 0.0
    lost_mb: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate {self.loss_rate} not in [0, 1)")

    def transfer(self, mb: float) -> float:
        """Goodput of an attempted ``mb`` transfer (the rest is lost)."""
        if mb <= 0:
            return 0.0
        if self.loss_rate == 0.0:
            self.delivered_mb += mb
            return mb
        pieces = max(1, int(round(mb)))
        lost = float(self.rng.binomial(pieces, self.loss_rate)) / pieces * mb
        self.lost_mb += lost
        self.delivered_mb += mb - lost
        return mb - lost


def _default_is_up(target: Any) -> bool:
    up = getattr(target, "is_up", None)
    if up is not None:
        return up() if callable(up) else bool(up)
    raise TypeError(
        f"{target!r} has no is_up; pass is_up= to the fault model")


def _default_fail(target: Any) -> None:
    target.fail()


def _default_repair(target: Any) -> None:
    target.repair()


class CrashRestart:
    """Fail-stop crash/restart over arbitrary targets.

    Each target lives an UP ~ Exp(mtbf) / DOWN ~ Exp(mttr) alternating
    renewal process. The expected long-run availability is the classic
    ``mtbf / (mtbf + mttr)``; :meth:`empirical_availability` measures the
    realized one so tests can assert the model is well calibrated.

    Targets need ``fail()``/``repair()`` methods and an ``is_up`` predicate
    (overridable via the ``fail``/``repair``/``is_up`` hooks), which lets the
    same model drive cluster machines, serverless instance pools, or peers.
    """

    def __init__(self, env: Environment, targets: Sequence[Any],
                 rng: np.random.Generator,
                 mtbf_s: float, mttr_s: float,
                 fail: Callable[[Any], None] = _default_fail,
                 repair: Callable[[Any], None] = _default_repair,
                 is_up: Callable[[Any], bool] = _default_is_up,
                 on_fail: Optional[Callable[[Any], None]] = None,
                 on_repair: Optional[Callable[[Any], None]] = None,
                 monitor: Optional[Monitor] = None,
                 name: str = "crash"):
        if not (mtbf_s > 0 and mttr_s > 0):  # NaN fails too
            raise ValueError("mtbf_s and mttr_s must be positive")
        self.env = env
        self.targets = list(targets)
        self.rng = rng
        self.mtbf_s = mtbf_s
        self.mttr_s = mttr_s
        self._fail = fail
        self._repair = repair
        self._is_up = is_up
        self.on_fail = on_fail
        self.on_repair = on_repair
        self.monitor = Monitor(env) if monitor is None else monitor
        self.name = name
        #: Summed DOWN time over completed outages, across all targets.
        self._downtime_s = 0.0
        self._down_since: dict[int, float] = {}
        self._started_at = env.now
        self._procs = [env.process(self._life(t)) for t in self.targets]

    failures = property(
        lambda self: self.monitor.total(f"{self.name}_failures"))
    repairs = property(lambda self: self.monitor.total(f"{self.name}_repairs"))

    def _life(self, target: Any):
        while True:
            # Sample this target's next uptime. If the timer lands while the
            # target is already down (another injector, a burst fault, an
            # operator drain), the sample is void: resample a fresh uptime
            # rather than crash-on-repair, which would skew the effective
            # MTBF and double-count the outage.
            yield self.env.timeout(float(self.rng.exponential(self.mtbf_s)))
            if not self._is_up(target):
                continue
            self.fail_now(target)
            yield self.env.timeout(float(self.rng.exponential(self.mttr_s)))
            self.repair_now(target)

    # -- manual triggers --------------------------------------------------
    def fail_now(self, target: Any) -> None:
        self._fail(target)
        self._down_since[id(target)] = self.env.now
        self.monitor.count(f"{self.name}_failures",
                           key=getattr(target, "name", None))
        if self.on_fail is not None:
            self.on_fail(target)

    def repair_now(self, target: Any) -> None:
        self._repair(target)
        down_since = self._down_since.pop(id(target), None)
        if down_since is not None:
            self._downtime_s += self.env.now - down_since
        self.monitor.count(f"{self.name}_repairs",
                           key=getattr(target, "name", None))
        if self.on_repair is not None:
            self.on_repair(target)

    # -- measurement -------------------------------------------------------
    @property
    def expected_availability(self) -> float:
        return self.mtbf_s / (self.mtbf_s + self.mttr_s)

    def empirical_availability(self, until: Optional[float] = None) -> float:
        """Realized time-averaged availability across all targets."""
        until = self.env.now if until is None else until
        horizon = until - self._started_at
        if horizon <= 0 or not self.targets:
            return 1.0
        down = self._downtime_s + sum(
            until - since for since in self._down_since.values())
        return 1.0 - down / (horizon * len(self.targets))
