"""Design spaces and design problems.

A design space is the cross product of named discrete dimensions (the
technologies, mechanisms, and policies a designer can pick). A design
problem attaches a quality function and a *satisficing* threshold — the
paper (following Simon) treats "good enough" as the realistic stopping
point for ill-defined problems.

The synthetic :class:`RuggedLandscape` provides NK-style tunably-rugged
quality functions so exploration processes can be compared quantitatively
(the Figure 6/7 experiments).
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np


@dataclass(frozen=True)
class Dimension:
    """One axis of the design space: a name and its discrete options."""

    name: str
    options: tuple[str, ...]

    def __post_init__(self):
        if not self.options:
            raise ValueError(f"dimension {self.name}: no options")
        if len(set(self.options)) != len(self.options):
            raise ValueError(f"dimension {self.name}: duplicate options")


@dataclass(frozen=True)
class Candidate:
    """A complete assignment of one option per dimension."""

    choices: tuple[tuple[str, str], ...]  # ((dimension, option), ...)

    def as_dict(self) -> dict[str, str]:
        return dict(self.choices)

    def __getitem__(self, dimension: str) -> str:
        return self.as_dict()[dimension]

    def with_choice(self, dimension: str, option: str) -> "Candidate":
        new = dict(self.choices)
        if dimension not in new:
            raise KeyError(dimension)
        new[dimension] = option
        return Candidate(tuple(sorted(new.items())))


class DesignSpace:
    """The cross product of dimensions, with neighbour structure."""

    def __init__(self, dimensions: Iterable[Dimension]):
        self.dimensions = list(dimensions)
        if not self.dimensions:
            raise ValueError("a design space needs at least one dimension")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dimension names")
        self._by_name = {d.name: d for d in self.dimensions}

    @property
    def size(self) -> int:
        size = 1
        for d in self.dimensions:
            size *= len(d.options)
        return size

    def dimension(self, name: str) -> Dimension:
        return self._by_name[name]

    def candidate(self, **choices: str) -> Candidate:
        """Build a candidate, validating every choice."""
        if set(choices) != set(self._by_name):
            missing = set(self._by_name) - set(choices)
            extra = set(choices) - set(self._by_name)
            raise ValueError(
                f"candidate must assign every dimension; missing={missing}, "
                f"unknown={extra}")
        for dim, opt in choices.items():
            if opt not in self._by_name[dim].options:
                raise ValueError(
                    f"{opt!r} is not an option of dimension {dim!r}")
        return Candidate(tuple(sorted(choices.items())))

    def random_candidate(self, rng: np.random.Generator) -> Candidate:
        choices = {
            d.name: d.options[int(rng.integers(0, len(d.options)))]
            for d in self.dimensions
        }
        return Candidate(tuple(sorted(choices.items())))

    def neighbors(self, candidate: Candidate) -> list[Candidate]:
        """All candidates differing in exactly one dimension."""
        result = []
        for dim, current in candidate.choices:
            for option in self._by_name[dim].options:
                if option != current:
                    result.append(candidate.with_choice(dim, option))
        return result

    def all_candidates(self) -> Iterable[Candidate]:
        """Exhaustive enumeration (use only for small spaces)."""
        names = [d.name for d in self.dimensions]
        for options in itertools.product(*(d.options
                                           for d in self.dimensions)):
            yield Candidate(tuple(sorted(zip(names, options))))

    def restrict(self, fixed: dict[str, str]) -> "DesignSpace":
        """The sub-space with some dimensions pinned (Fix-the-What)."""
        dims = []
        for d in self.dimensions:
            if d.name in fixed:
                if fixed[d.name] not in d.options:
                    raise ValueError(
                        f"{fixed[d.name]!r} not an option of {d.name!r}")
                dims.append(Dimension(d.name, (fixed[d.name],)))
            else:
                dims.append(d)
        return DesignSpace(dims)


class ProblemStructure(enum.Enum):
    """Simon's classification (§2.4)."""

    WELL_STRUCTURED = "well-structured"
    ILL_STRUCTURED = "ill-structured"
    WICKED = "wicked"


@dataclass
class DesignProblem:
    """A problem over a design space.

    ``quality`` maps a candidate to [0, 1]. ``satisfice_threshold`` is the
    "good enough" bar; ``optimize_threshold`` (if reachable) marks
    near-optimal designs. The five Simon criteria (§2.4) are explicit
    booleans so :func:`classify_problem` can derive the structure class.
    """

    name: str
    space: DesignSpace
    quality: Callable[[Candidate], float]
    satisfice_threshold: float = 0.7
    optimize_threshold: float = 0.95
    # Simon's well-structuredness criteria:
    has_evaluation_criterion: bool = True
    has_unambiguous_representation: bool = True
    has_complete_domain_knowledge: bool = True
    captures_nature_interaction: bool = True
    is_tractable: bool = True
    # Wickedness markers (Rittel & Webber):
    has_final_formulation: bool = True
    stakeholders_agree_on_success: bool = True
    evaluations: int = field(default=0, init=False)

    def evaluate(self, candidate: Candidate) -> float:
        self.evaluations += 1
        value = self.quality(candidate)
        if not 0.0 <= value <= 1.0 + 1e-9:
            raise ValueError(
                f"quality function returned {value}; must be in [0, 1]")
        return min(value, 1.0)

    def satisfices(self, candidate: Candidate) -> bool:
        return self.evaluate(candidate) >= self.satisfice_threshold

    def structure(self) -> ProblemStructure:
        return classify_problem(self)


def classify_problem(problem: DesignProblem) -> ProblemStructure:
    """Simon / Rittel-Webber classification from the declared criteria."""
    if not (problem.has_final_formulation
            and problem.stakeholders_agree_on_success):
        return ProblemStructure.WICKED
    simon = [
        problem.has_evaluation_criterion,
        problem.has_unambiguous_representation,
        problem.has_complete_domain_knowledge,
        problem.captures_nature_interaction,
        problem.is_tractable,
    ]
    if all(simon):
        return ProblemStructure.WELL_STRUCTURED
    return ProblemStructure.ILL_STRUCTURED


class RuggedLandscape:
    """A deterministic, tunably-rugged quality function (NK-style).

    ``k`` controls epistasis: quality is the mean of per-dimension
    contributions, where each contribution depends on the option chosen in
    its own dimension *and in k other dimensions*. ``k = 0`` gives a smooth
    separable landscape (hill-climbing suffices); larger ``k`` creates the
    many local optima that motivate co-evolving exploration.

    The landscape is seeded: the same (seed, epoch) yields the same
    function. ``shift_epoch`` perturbs the landscape — modelling the
    problem itself changing under co-evolution.
    """

    def __init__(self, space: DesignSpace, seed: int = 0, k: int = 2,
                 epoch: int = 0):
        n_dims = len(space.dimensions)
        if k < 0 or k >= max(n_dims, 1):
            if not (k == 0 and n_dims == 1):
                raise ValueError(
                    f"k={k} must be in [0, {n_dims - 1}] for "
                    f"{n_dims} dimensions")
        self.space = space
        self.seed = seed
        self.k = k
        self.epoch = epoch
        rng = np.random.default_rng(seed + 7919 * epoch)
        n = len(space.dimensions)
        # For each dimension, pick k interaction partners.
        self._partners = [
            sorted(rng.choice([j for j in range(n) if j != i],
                              size=min(k, n - 1), replace=False).tolist())
            for i in range(n)
        ]

    def _contribution(self, dim_idx: int, key: tuple[str, ...]) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{self.epoch}:{dim_idx}:{key}".encode()).digest()
        return int.from_bytes(digest[:8], "little") / 2**64

    def __call__(self, candidate: Candidate) -> float:
        choices = candidate.as_dict()
        names = [d.name for d in self.space.dimensions]
        total = 0.0
        for i, name in enumerate(names):
            key = (choices[name],) + tuple(
                choices[names[j]] for j in self._partners[i])
            total += self._contribution(i, key)
        return total / len(names)

    def shifted(self) -> "RuggedLandscape":
        """The same landscape family, in the next epoch (problem evolved)."""
        return RuggedLandscape(self.space, seed=self.seed, k=self.k,
                               epoch=self.epoch + 1)

    def best_quality(self) -> float:
        """Estimate of the global optimum from 2048 samples, exact below."""
        if self.space.size <= 2048:
            return max(self(c) for c in self.space.all_candidates())
        rng = np.random.default_rng(self.seed)
        return max(self(self.space.random_candidate(rng))
                   for _ in range(2048))
