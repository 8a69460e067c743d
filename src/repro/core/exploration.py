"""Design-space exploration processes (paper Figures 6 and 7).

Four processes share one budgeted interface:

- :class:`FreeExploration` — pure design abduction: uniform random
  sampling of the whole space. Can find radical designs, but success
  probability shrinks with space size.
- :class:`FixTheWhatExploration` — pins some dimensions ("fixing the
  concepts / technology at play") and explores the rest.
- :class:`FixTheHowExploration` — restricts the *moves*: local search from
  a current design via one-dimension re-framings (hill climbing with
  sideways moves).
- :class:`CoEvolvingExploration` — iterates any inner process; when
  progress stalls, *evolves the problem itself* (a new landscape epoch),
  keeping the best design found per problem — the Figure 7 narrative.

An exploration records problems posed, solutions found, and failures, so
benchmarks can reproduce the figure's annotated trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.space import Candidate, DesignProblem


@dataclass
class ExplorationResult:
    """The Figure 7 trajectory of one exploration run."""

    process: str
    problems_posed: int = 0
    solutions: list[tuple[Candidate, float]] = field(default_factory=list)
    failures: int = 0
    evaluations: int = 0
    best_quality: float = 0.0
    best_candidate: Optional[Candidate] = None
    #: Per-problem best quality (non-trivial only for co-evolving runs).
    per_problem_best: list[float] = field(default_factory=list)

    def record_solution(self, candidate: Candidate, quality: float) -> None:
        self.solutions.append((candidate, quality))
        if quality > self.best_quality:
            self.best_quality = quality
            self.best_candidate = candidate

    @property
    def succeeded(self) -> bool:
        return bool(self.solutions)

    @property
    def yield_per_evaluation(self) -> float:
        if self.evaluations == 0:
            return 0.0
        return len(self.solutions) / self.evaluations


class Explorer:
    """Base class: explore ``problem`` within an evaluation budget."""

    name = "abstract"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def explore(self, problem: DesignProblem,
                budget: int) -> ExplorationResult:
        raise NotImplementedError

    def _result(self) -> ExplorationResult:
        return ExplorationResult(process=self.name, problems_posed=1)


class FreeExploration(Explorer):
    """Uniform random sampling of the full design space."""

    name = "free"

    def explore(self, problem: DesignProblem,
                budget: int) -> ExplorationResult:
        result = self._result()
        for _ in range(budget):
            candidate = problem.space.random_candidate(self.rng)
            quality = problem.evaluate(candidate)
            result.evaluations += 1
            if quality >= problem.satisfice_threshold:
                result.record_solution(candidate, quality)
            else:
                result.failures += 1
                if quality > result.best_quality:
                    result.best_quality = quality
                    result.best_candidate = candidate
        result.per_problem_best = [result.best_quality]
        return result


class FixTheWhatExploration(Explorer):
    """Fix a fraction of dimensions to a probe candidate's options.

    Spends a small scouting budget choosing what to fix, then explores the
    restricted space. Trades radical innovation for success likelihood, as
    the paper describes.
    """

    name = "fix-the-what"

    def __init__(self, rng: np.random.Generator, fix_fraction: float = 0.5,
                 scout_budget: int = 16):
        super().__init__(rng)
        if not 0 <= fix_fraction < 1:
            raise ValueError("fix_fraction must be in [0, 1)")
        self.fix_fraction = fix_fraction
        self.scout_budget = scout_budget

    def explore(self, problem: DesignProblem,
                budget: int) -> ExplorationResult:
        result = self._result()
        scout = min(self.scout_budget, max(budget // 4, 1))
        best_probe, best_quality = None, -1.0
        for _ in range(scout):
            probe = problem.space.random_candidate(self.rng)
            quality = problem.evaluate(probe)
            result.evaluations += 1
            if quality > best_quality:
                best_probe, best_quality = probe, quality
        # Fix the chosen fraction of dimensions to the best probe's options.
        dims = [d.name for d in problem.space.dimensions]
        n_fix = int(len(dims) * self.fix_fraction)
        fixed_dims = list(self.rng.choice(dims, size=n_fix, replace=False))
        fixed = {d: best_probe[d] for d in fixed_dims}
        subspace = problem.space.restrict(fixed)
        for _ in range(budget - result.evaluations):
            candidate = subspace.random_candidate(self.rng)
            quality = problem.evaluate(candidate)
            result.evaluations += 1
            if quality >= problem.satisfice_threshold:
                result.record_solution(candidate, quality)
            else:
                result.failures += 1
                if quality > result.best_quality:
                    result.best_quality = quality
                    result.best_candidate = candidate
        result.per_problem_best = [result.best_quality]
        return result


class FixTheHowExploration(Explorer):
    """Local search: only one-dimension re-framings of the current design."""

    name = "fix-the-how"

    def __init__(self, rng: np.random.Generator, restarts: int = 4):
        super().__init__(rng)
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self.restarts = restarts

    def explore(self, problem: DesignProblem,
                budget: int) -> ExplorationResult:
        result = self._result()
        per_restart = max(budget // self.restarts, 1)
        for _ in range(self.restarts):
            if result.evaluations >= budget:
                break
            current = problem.space.random_candidate(self.rng)
            current_q = problem.evaluate(current)
            result.evaluations += 1
            spent = 1
            while spent < per_restart and result.evaluations < budget:
                neighbors = problem.space.neighbors(current)
                idx = self.rng.permutation(len(neighbors))
                improved = False
                for i in idx:
                    if spent >= per_restart or result.evaluations >= budget:
                        break
                    quality = problem.evaluate(neighbors[int(i)])
                    result.evaluations += 1
                    spent += 1
                    if quality > current_q:
                        current, current_q = neighbors[int(i)], quality
                        improved = True
                        break
                if not improved:
                    break  # local optimum
            if current_q >= problem.satisfice_threshold:
                result.record_solution(current, current_q)
            else:
                result.failures += 1
                if current_q > result.best_quality:
                    result.best_quality = current_q
                    result.best_candidate = current
        result.per_problem_best = [result.best_quality]
        return result


class CoEvolvingExploration(Explorer):
    """Co-evolving problem-solution exploration (Figure 7).

    Runs an inner explorer; when an iteration fails to improve on the
    problem's best design, the *problem evolves* — ``evolve_problem`` is
    asked for the next problem (typically a shifted landscape epoch or a
    re-thresholded variant). The best design per problem is kept, so a
    satisficing solution stays available after the first success.
    """

    name = "co-evolving"

    def __init__(self, rng: np.random.Generator, inner: Explorer,
                 evolve_problem, max_problems: int = 8,
                 stall_iterations: int = 2):
        super().__init__(rng)
        self.inner = inner
        self.evolve_problem = evolve_problem
        self.max_problems = max_problems
        self.stall_iterations = stall_iterations

    def explore(self, problem: DesignProblem,
                budget: int) -> ExplorationResult:
        result = ExplorationResult(process=self.name)
        remaining = budget
        current_problem = problem
        for problem_idx in range(self.max_problems):
            if remaining <= 0:
                break
            result.problems_posed += 1
            problem_best = 0.0
            stalls = 0
            while remaining > 0 and stalls < self.stall_iterations:
                slice_budget = min(remaining,
                                   max(budget // (self.max_problems * 2), 8))
                inner_result = self.inner.explore(current_problem,
                                                  slice_budget)
                remaining -= inner_result.evaluations
                result.evaluations += inner_result.evaluations
                result.failures += inner_result.failures
                for candidate, quality in inner_result.solutions:
                    result.record_solution(candidate, quality)
                iteration_best = max(inner_result.best_quality, problem_best)
                if iteration_best > problem_best + 1e-12:
                    problem_best = iteration_best
                    stalls = 0
                else:
                    stalls += 1
            result.per_problem_best.append(problem_best)
            if remaining <= 0:
                break
            evolved = self.evolve_problem(current_problem, problem_idx)
            if evolved is None:
                break
            current_problem = evolved
        return result


def compare_explorers(problem_factory, explorers: dict[str, Explorer],
                      budget: int, repetitions: int = 10
                      ) -> dict[str, dict[str, float]]:
    """Head-to-head comparison across fresh problem instances.

    ``problem_factory(rep)`` must return a fresh :class:`DesignProblem`
    per repetition so no explorer benefits from another's evaluations.
    Returns per-explorer success rate, mean solutions, and mean best
    quality — the Figure 6 comparison table.
    """
    stats = {name: {"successes": 0, "solutions": 0.0, "best_quality": 0.0,
                    "problems_posed": 0.0}
             for name in explorers}
    for rep in range(repetitions):
        for name, explorer in explorers.items():
            problem = problem_factory(rep)
            result = explorer.explore(problem, budget)
            stats[name]["successes"] += int(result.succeeded)
            stats[name]["solutions"] += len(result.solutions)
            stats[name]["best_quality"] += result.best_quality
            stats[name]["problems_posed"] += result.problems_posed
    return {
        name: {
            "success_rate": s["successes"] / repetitions,
            "mean_solutions": s["solutions"] / repetitions,
            "mean_best_quality": s["best_quality"] / repetitions,
            "mean_problems_posed": s["problems_posed"] / repetitions,
        }
        for name, s in stats.items()
    }
