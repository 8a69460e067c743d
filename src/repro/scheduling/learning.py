"""Learning-based portfolio selection (Ananke, the paper's [119]).

Ananke replaced simulation-based portfolio selection with Q-learning:
the scheduler *learns* which policy pays off in which system state from
realized rewards, instead of simulating every candidate each epoch.

Here: an epsilon-greedy contextual bandit over a coarse state (queue
pressure), rewarded with the negative realized bounded slowdown of tasks
finished since the previous epoch. Compared against the simulation-based
portfolio it trades a learning period for near-zero per-epoch cost —
the [119] motivation (industrial workflows ran the selector continuously,
so simulation cost mattered).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.scheduling.policies import Policy
from repro.scheduling.simulator import SLOWDOWN_BOUND_S, ClusterSimulator
from repro.sim import Environment, RandomStreams

#: Queue lengths at which the coarse system states begin.
QUEUE_LEVELS = (0, 4, 16, 64)

def queue_pressure_state(simulator: ClusterSimulator) -> int:
    """Coarse system state: index of the :data:`QUEUE_LEVELS` bucket."""
    queue = len(simulator.ready)
    state = 0
    for idx, threshold in enumerate(QUEUE_LEVELS):
        if queue >= threshold:
            state = idx
    return state


@dataclass
class BanditStats:
    selections: list[tuple[float, str]] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    explorations: int = 0
    switches: int = 0

    @property
    def epochs(self) -> int:
        return len(self.selections)


class LearningPortfolioScheduler:
    """Epsilon-greedy policy selection from realized rewards.

    Q[state][policy] is updated with the mean realized bounded slowdown
    of tasks that finished during the epoch the policy was active
    (negated: higher reward = lower slowdown).
    """

    def __init__(self, env: Environment, simulator: ClusterSimulator,
                 portfolio: Sequence[Policy],
                 epoch_s: float = 300.0,
                 epsilon: float = 0.15,
                 learning_rate: float = 0.3,
                 rng: Optional[np.random.Generator] = None):
        if not portfolio:
            raise ValueError("portfolio must not be empty")
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        self.env = env
        self.simulator = simulator
        self.portfolio = list(portfolio)
        self.epoch_s = epoch_s
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        # Named-stream fallback keeps exploration reproducible and isolated
        # from every other stream (determinism contract, simlint SL001).
        self.rng = (rng if rng is not None
                    else RandomStreams(0).get("scheduling.bandit"))
        self.q: dict[tuple[int, str], float] = {
            (state, policy.name): 0.0
            for state in range(len(QUEUE_LEVELS)) for policy in portfolio
        }
        self.stats = BanditStats()
        self._finished_seen = 0
        self._last: Optional[tuple[int, str]] = None
        self.process = env.process(self._run())

    def _reward_since_last_epoch(self) -> Optional[float]:
        new_tasks = self.simulator.finished[self._finished_seen:]
        self._finished_seen = len(self.simulator.finished)
        if not new_tasks:
            return None
        slowdowns = [
            max(t.response_time / max(t.runtime, SLOWDOWN_BOUND_S), 1.0)
            for t in new_tasks
        ]
        return -float(np.mean(slowdowns))

    def _choose(self, state: int) -> Policy:
        if self.rng.random() < self.epsilon:
            self.stats.explorations += 1
            return self.portfolio[int(self.rng.integers(
                0, len(self.portfolio)))]
        return max(self.portfolio,
                   key=lambda p: (self.q[(state, p.name)], p.name))

    def _run(self):
        while True:
            # Learn from the epoch that just ended.
            if self._last is not None:
                reward = self._reward_since_last_epoch()
                if reward is not None:
                    old = self.q[self._last]
                    self.q[self._last] = old + self.learning_rate * (
                        reward - old)
                    self.stats.rewards.append(reward)
            state = queue_pressure_state(self.simulator)
            chosen = self._choose(state)
            if chosen.name != self.simulator.policy.name:
                self.stats.switches += 1
            self.simulator.policy = chosen
            self.stats.selections.append((self.env.now, chosen.name))
            self._last = (state, chosen.name)
            self.simulator._kick()
            if self.simulator.all_done:
                return
            yield self.env.timeout(self.epoch_s)

    def best_policy_for(self, state: int) -> str:
        """The currently-learned best policy in a state."""
        return max(self.portfolio,
                   key=lambda p: (self.q[(state, p.name)], p.name)).name
