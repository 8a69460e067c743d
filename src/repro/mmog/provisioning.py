"""Prediction-driven cloud provisioning for MMOGs ([71], [87]).

The paper's design: predict the player load ahead of the cloud's
provisioning delay, provision server capacity to meet it, and measure the
NFR cost of mispredictions — under-provisioning degrades the game
(players above capacity), over-provisioning wastes money.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class LoadPredictor:
    """Base class: predict load ``horizon`` samples ahead of history."""

    name = "abstract"

    def predict(self, history: Sequence[float], horizon: int = 1) -> float:
        raise NotImplementedError


class LastValuePredictor(LoadPredictor):
    """Naive persistence: the future equals the present."""

    name = "last-value"

    def predict(self, history: Sequence[float], horizon: int = 1) -> float:
        if not len(history):
            return 0.0
        return float(history[-1])


class TrendPredictor(LoadPredictor):
    """Linear extrapolation over the last ``window`` samples — the class of
    predictor the paper's MMOG provisioning used to stay ahead of the
    diurnal ramp."""

    name = "trend"

    def __init__(self, window: int = 6):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window

    def predict(self, history: Sequence[float], horizon: int = 1) -> float:
        hist = list(history)
        if len(hist) < 2:
            return hist[-1] if hist else 0.0
        tail = np.asarray(hist[-self.window:], dtype=float)
        x = np.arange(tail.size)
        slope, intercept = np.polyfit(x, tail, 1)
        return float(max(0.0, intercept + slope * (tail.size - 1 + horizon)))


@dataclass
class ProvisioningResult:
    """Quality/cost of one provisioning policy run."""

    predictor: str
    players_per_server: int
    step_s: float
    demand: np.ndarray
    provisioned: np.ndarray  # servers online at each step
    server_hours: float = 0.0

    @property
    def capacity(self) -> np.ndarray:
        return self.provisioned * self.players_per_server

    @property
    def underprovisioned_fraction(self) -> float:
        """Fraction of time demand exceeded capacity (NFR violations)."""
        return float(np.mean(self.demand > self.capacity))

    @property
    def unserved_player_time(self) -> float:
        """Player-seconds above capacity (the degraded-experience mass)."""
        excess = np.maximum(self.demand - self.capacity, 0.0)
        return float(excess.sum() * self.step_s)

    @property
    def mean_utilization(self) -> float:
        cap = self.capacity
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(cap > 0, np.minimum(self.demand, cap) / cap, 0.0)
        return float(util.mean())


def run_provisioning(demand: Sequence[float],
                     predictor: LoadPredictor,
                     players_per_server: int = 100,
                     step_s: float = 300.0,
                     provisioning_delay_steps: int = 2,
                     headroom: float = 1.1,
                     min_servers: int = 1,
                     tracer=None, registry=None) -> ProvisioningResult:
    """Replay a demand signal against a prediction-driven policy.

    At each step the policy predicts demand ``provisioning_delay_steps``
    ahead, requests ``ceil(pred × headroom / players_per_server)`` servers,
    and the fleet reaches that size only after the delay — capturing the
    cloud's elasticity limit that the paper's experiments quantify.
    """
    if players_per_server <= 0:
        raise ValueError("players_per_server must be positive")
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1.0")
    demand_arr = np.asarray(demand, dtype=float)
    n = demand_arr.size
    # This domain is time-stepped (no DES environment), so spans and
    # metric samples carry explicit times: step i happens at i * step_s.
    monitor = None
    if registry is not None:
        from repro.sim import Monitor
        monitor = Monitor(registry=registry, namespace="mmog")
    span = None
    if tracer is not None:
        span = tracer.start_span("mmog.provisioning", t=0.0,
                                 predictor=predictor.name, steps=n)
    provisioned = np.zeros(n)
    pending: list[tuple[int, int]] = []  # (effective_step, target)
    current = min_servers
    for i in range(n):
        # Apply provisioning decisions that have matured.
        for at, target in list(pending):
            if at <= i:
                current = target
                if span is not None:
                    tracer.add_event(span, "resize", t=i * step_s,
                                     servers=target)
                pending.remove((at, target))
        provisioned[i] = current
        if monitor is not None:
            monitor.record("demand", float(demand_arr[i]), time=i * step_s)
            monitor.record("provisioned", current, time=i * step_s)
        prediction = predictor.predict(demand_arr[: i + 1],
                                       horizon=provisioning_delay_steps)
        target = max(min_servers,
                     math.ceil(prediction * headroom / players_per_server))
        pending.append((i + provisioning_delay_steps, target))
    server_hours = float(provisioned.sum() * step_s / 3600.0)
    if span is not None:
        tracer.end_span(span, t=n * step_s, server_hours=server_hours)
    return ProvisioningResult(
        predictor=predictor.name, players_per_server=players_per_server,
        step_s=step_s, demand=demand_arr, provisioned=provisioned,
        server_hours=server_hours)


@dataclass
class BrownoutProvisioningResult(ProvisioningResult):
    """Provisioning run with a brownout controller riding the fleet.

    ``modes[i]`` is the :class:`~repro.resilience.ServiceMode` value at
    step ``i``; ``effective_capacity`` is the stretched capacity after
    shedding world-update fidelity; ``fidelity[i]`` is the fraction of
    world updates delivered.
    """

    modes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    effective_capacity: np.ndarray = field(
        default_factory=lambda: np.zeros(0))
    fidelity: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Player-seconds turned away at the door during CRITICAL steps.
    refused_player_time: float = 0.0
    #: Player-seconds above even the stretched capacity outside CRITICAL.
    unserved_effective_player_time: float = 0.0

    @property
    def mean_update_fidelity(self) -> float:
        """Demand-weighted world-update fidelity (what players felt)."""
        total = float(self.demand.sum())
        if total <= 0:
            return 1.0
        return float((self.fidelity * self.demand).sum() / total)

    @property
    def degraded_fraction(self) -> float:
        """Fraction of steps spent out of NORMAL mode."""
        if not self.modes.size:
            return 0.0
        return float(np.mean(self.modes > 0))


def run_brownout_provisioning(
        demand: Sequence[float],
        predictor: LoadPredictor,
        controller,
        players_per_server: int = 100,
        step_s: float = 300.0,
        provisioning_delay_steps: int = 2,
        headroom: float = 1.1,
        min_servers: int = 1,
        degraded_capacity_factor: float = 1.5,
        critical_capacity_factor: float = 2.0,
        fidelity_degraded: float = 0.6,
        fidelity_critical: float = 0.35,
        tracer=None, registry=None) -> BrownoutProvisioningResult:
    """Prediction-driven provisioning with brownout while elasticity lags.

    The elastic fleet still takes ``provisioning_delay_steps`` to grow —
    the flash-crowd gap the paper's MMOG studies quantify. Instead of
    degrading silently, the ``controller`` (a
    :class:`repro.resilience.BrownoutController`) watches instantaneous
    pressure (demand over nominal capacity) each step:

    - DEGRADED: shed non-essential world updates (fidelity drops to
      ``fidelity_degraded``), which stretches each server to
      ``degraded_capacity_factor`` times its nominal player count;
    - CRITICAL: minimal updates only (``fidelity_critical``), capacity
      stretched by ``critical_capacity_factor`` — and players beyond even
      that are *refused* at the door rather than admitted to an unplayable
      world.

    Refusing players is the last resort; the whole point of brownout is
    how much player time the fidelity ladder saves before that.
    """
    if degraded_capacity_factor < 1.0 or critical_capacity_factor < 1.0:
        raise ValueError("capacity factors must be >= 1.0")
    if not 0.0 < fidelity_critical <= fidelity_degraded <= 1.0:
        raise ValueError(
            "need 0 < fidelity_critical <= fidelity_degraded <= 1")
    base = run_provisioning(
        demand, predictor, players_per_server=players_per_server,
        step_s=step_s, provisioning_delay_steps=provisioning_delay_steps,
        headroom=headroom, min_servers=min_servers,
        tracer=tracer, registry=registry)
    monitor = None
    if registry is not None:
        from repro.sim import Monitor
        monitor = Monitor(registry=registry, namespace="mmog")
    n = base.demand.size
    span = None
    if tracer is not None:
        span = tracer.start_span("mmog.brownout", t=0.0,
                                 predictor=predictor.name, steps=n)
    modes = np.zeros(n, dtype=int)
    effective = np.zeros(n)
    fidelity = np.ones(n)
    refused = 0.0
    unserved_eff = 0.0
    prev_mode = 0
    for i in range(n):
        nominal_cap = base.provisioned[i] * players_per_server
        pressure = base.demand[i] / nominal_cap if nominal_cap > 0 else 1.0
        mode = controller.observe(pressure, now=i * step_s)
        modes[i] = mode.value
        if span is not None and mode.value != prev_mode:
            tracer.add_event(span, "mode_change", t=i * step_s,
                             mode=mode.name)
        prev_mode = mode.value
        if monitor is not None:
            monitor.record("fidelity",
                           (fidelity_critical if mode.value >= 2 else
                            fidelity_degraded if mode.value == 1 else 1.0),
                           time=i * step_s)
        if mode.value >= 2:  # CRITICAL
            factor, fid = critical_capacity_factor, fidelity_critical
        elif mode.value == 1:  # DEGRADED
            factor, fid = degraded_capacity_factor, fidelity_degraded
        else:
            factor, fid = 1.0, 1.0
        effective[i] = nominal_cap * factor
        fidelity[i] = fid
        excess = max(0.0, float(base.demand[i]) - effective[i])
        if mode.value >= 2:
            refused += excess * step_s
        else:
            unserved_eff += excess * step_s
    controller.finish(n * step_s)
    if monitor is not None and refused > 0:
        monitor.count("refused_player_time_s", amount=int(refused))
    if span is not None:
        tracer.end_span(span, t=n * step_s,
                        degraded_steps=int(np.sum(modes > 0)))
    return BrownoutProvisioningResult(
        predictor=f"{base.predictor}+brownout",
        players_per_server=players_per_server, step_s=step_s,
        demand=base.demand, provisioned=base.provisioned,
        server_hours=base.server_hours, modes=modes,
        effective_capacity=effective, fidelity=fidelity,
        refused_player_time=refused,
        unserved_effective_player_time=unserved_eff)


def static_provisioning(demand: Sequence[float],
                        percentile: float = 100.0) -> ProvisioningResult:
    """The non-elastic baseline: size the fleet of 100-player servers for
    a demand percentile, over 300 s samples."""
    demand_arr = np.asarray(demand, dtype=float)
    target = math.ceil(np.percentile(demand_arr, percentile) / 100)
    provisioned = np.full(demand_arr.size, max(target, 1), dtype=float)
    return ProvisioningResult(
        predictor=f"static-p{percentile:g}",
        players_per_server=100, step_s=300.0,
        demand=demand_arr, provisioned=provisioned,
        server_hours=float(provisioned.sum() * 300.0 / 3600.0))
