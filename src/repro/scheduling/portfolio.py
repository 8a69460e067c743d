"""The portfolio scheduler ([114], [115]).

At every decision epoch the portfolio scheduler *simulates* each candidate
policy on the current system state (queued + running tasks) and installs
the policy with the best predicted objective. Two phenomena from the
paper's studies are modelled explicitly:

- **online simulation cost** grows with #policies × system size — the
  [114] problem that made full portfolios too slow to run online. The
  modeled cost counts every candidate simulated, even when candidates
  that order the queue alike share one prediction here;
- the **active set** ([115]): only the top-k recently-best policies are
  simulated each epoch (with periodic full refreshes), trading a little
  decision quality for bounded online cost.

Because the internal simulations use runtime *estimates*, domains with
poor estimates (big data, [120]) can mislead the selection — the paper's
open problem, reproducible here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.scheduling.policies import Policy
from repro.scheduling.simulator import SLOWDOWN_BOUND_S, ClusterSimulator
from repro.sim import Environment


@dataclass
class PortfolioConfig:
    """Knobs of the portfolio scheduler."""

    decision_interval_s: float = 300.0
    #: Max policies simulated per epoch (None = the full portfolio).
    active_set_size: Optional[int] = None
    #: Every this many epochs, simulate the full portfolio regardless.
    full_refresh_epochs: int = 8
    #: Modeled cost of simulating one policy on one task (seconds of
    #: scheduler compute per task) — the online-overhead accounting.
    sim_cost_per_task_s: float = 0.002
    #: EWMA smoothing of per-policy predicted objectives.
    ewma_alpha: float = 0.4

    def __post_init__(self) -> None:
        # Written as ``not (x > 0)`` so that NaN is rejected too.
        if not self.decision_interval_s > 0:
            raise ValueError("decision_interval_s must be positive")
        if self.active_set_size is not None and self.active_set_size < 1:
            raise ValueError("active_set_size must be None or >= 1")
        if self.full_refresh_epochs < 1:
            raise ValueError("full_refresh_epochs must be >= 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not self.sim_cost_per_task_s >= 0:
            raise ValueError("sim_cost_per_task_s must be non-negative")


@dataclass
class PortfolioStats:
    """What the portfolio did and what it cost."""

    selections: list[tuple[float, str]] = field(default_factory=list)
    policy_use_epochs: dict[str, int] = field(default_factory=dict)
    simulated_policy_epochs: int = 0
    total_sim_cost_s: float = 0.0
    switches: int = 0

    @property
    def epochs(self) -> int:
        return len(self.selections)


def predict_objective(policy: Policy,
                      queued: Sequence, running: Sequence[tuple[float, int]],
                      total_cores: int, now: float,
                      order: Optional[Sequence] = None) -> float:
    """Fast list-schedule prediction of mean bounded slowdown.

    ``queued`` are Task-like objects (uses cores, submit_time, and
    runtime_estimate/work); ``running`` is (estimated_finish, cores)
    pairs. ``order`` is ``policy.order(queued, now)`` when the caller
    already has it (the default computes it); the same order always
    predicts the same float. Placement ignores per-machine fragmentation
    — it is a *predictor*, deliberately cheaper than the real simulator.
    """
    # Hot path (one call per distinct candidate order per decision
    # epoch): pre-bound heap ops and plain comparisons instead of
    # builtins. Each ``b if b > a else a`` returns the same float as
    # ``max(a, b)``, ties included.
    heappop = heapq.heappop
    heappush = heapq.heappush
    heapreplace = heapq.heapreplace
    bound = SLOWDOWN_BOUND_S
    heap = list(running)
    heapq.heapify(heap)
    free = total_cores
    for _, cores in running:
        free -= cores
    t = now
    total_slowdown = 0.0
    if order is None:
        order = policy.order(queued, now)
    for task in order:
        estimate = task.runtime_estimate or task.work
        need = task.cores
        if free >= need:
            free -= need
            heappush(heap, (t + estimate, need))
        else:
            # Wait for releases, earliest first. The release that makes
            # room is replaced by this task's own in one sift: entries are
            # plain tuples, so the heap pops the same values as after a
            # pop and a push.
            while heap:
                finish, cores = heap[0]
                if finish > t:
                    t = finish
                free += cores
                if free >= need:
                    free -= need
                    heapreplace(heap, (t + estimate, need))
                    break
                heappop(heap)
            else:
                # Even an empty system cannot host it; treat as unplaceable.
                total_slowdown += 1000.0
                continue
        slowdown = ((t - task.submit_time) + estimate) / (
            bound if bound > estimate else estimate)
        total_slowdown += 1.0 if 1.0 > slowdown else slowdown
    return total_slowdown / (len(order) or 1)


class PortfolioScheduler:
    """Drives a :class:`ClusterSimulator`'s policy by online simulation."""

    def __init__(self, env: Environment, simulator: ClusterSimulator,
                 portfolio: Sequence[Policy],
                 config: Optional[PortfolioConfig] = None):
        if not portfolio:
            raise ValueError("portfolio must contain at least one policy")
        names = [p.name for p in portfolio]
        if len(set(names)) != len(names):
            raise ValueError("duplicate policy names in portfolio")
        self.env = env
        self.simulator = simulator
        self.portfolio = list(portfolio)
        self.config = config or PortfolioConfig()
        self.stats = PortfolioStats()
        #: EWMA of predicted objectives (lower = better).
        self._scores: dict[str, float] = {p.name: 0.0 for p in portfolio}
        self._epoch = 0
        self._last_queue_size = -1
        # Re-select before a scheduling pass whenever the ready queue's
        # length differs from the last pass's, not only on the periodic
        # epoch — "select the policy online, based on the current system
        # state". A pass that finds the same length (one task in, one
        # out) keeps the current policy.
        simulator.pre_schedule = self._on_queue_change
        self.process = env.process(self._run())

    def _on_queue_change(self) -> None:
        queue_size = len(self.simulator.ready)
        if queue_size == self._last_queue_size:
            return
        self._last_queue_size = queue_size
        self._epoch += 1
        self._select()

    def _candidates(self) -> list[Policy]:
        k = self.config.active_set_size
        if (k is None or k >= len(self.portfolio)
                or self._epoch % self.config.full_refresh_epochs == 0):
            return list(self.portfolio)
        ranked = sorted(self.portfolio,
                        key=lambda p: (self._scores[p.name], p.name))
        return ranked[:k]

    def _snapshot(self):
        # The live queue, not a copy: each candidate's ``order`` copies
        # its own sorted view of it, and nothing here changes it.
        queued = self.simulator.ready
        running = [
            (start + (task.runtime_estimate or task.work), task.cores)
            for task, machine, start in self.simulator.running.values()
        ]
        return queued, running

    def _decide(self) -> Policy:
        queued, running = self._snapshot()
        candidates = self._candidates()
        system_size = len(queued) + len(running)
        total_cores = self.simulator.cluster.total_cores
        now = self.env.now
        best_policy = self.simulator.policy
        best_score = float("inf")
        # Candidates that order the queue alike (fcfs and backfill always;
        # fair-share too while one user is queued) share one prediction.
        # The modeled cost below still counts every candidate.
        predicted: list[tuple[list, float]] = []
        for policy in candidates:
            order = policy.order(queued, now)
            for seen, score in predicted:
                if seen == order:
                    break
            else:
                score = predict_objective(policy, queued, running,
                                          total_cores, now, order)
                predicted.append((order, score))
            self.stats.simulated_policy_epochs += 1
            self.stats.total_sim_cost_s += (
                self.config.sim_cost_per_task_s * system_size)
            alpha = self.config.ewma_alpha
            self._scores[policy.name] = (
                alpha * score + (1 - alpha) * self._scores[policy.name])
            if score < best_score:
                best_score = score
                best_policy = policy
        return best_policy

    def _select(self) -> None:
        chosen = self._decide()
        if chosen.name != self.simulator.policy.name:
            self.stats.switches += 1
        self.simulator.policy = chosen
        self.stats.selections.append((self.env.now, chosen.name))
        self.stats.policy_use_epochs[chosen.name] = (
            self.stats.policy_use_epochs.get(chosen.name, 0) + 1)

    def _run(self):
        while True:
            self._epoch += 1
            self._select()
            self.simulator._kick()
            if self.simulator.all_done:
                return
            yield self.env.timeout(self.config.decision_interval_s)
