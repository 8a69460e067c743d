"""Dorst's reasoning model (paper Figure 5), made executable.

The reasoning universe consists of *concepts* ("What?"), *relationships*
("How?") that map concept combinations to outcomes, and *outcomes*. Each
reasoning mode solves for a different unknown:

=====================  =========  =======  =========
Mode                   What?      How?     Outcome
=====================  =========  =======  =========
deduction              given      given    **solve**
induction              given      solve    given
abduction (problems)   **solve**  given    given
abduction (design)     **solve**  solve    given
unreasoning            anything   anything anything
=====================  =========  =======  =========

A :class:`Universe` holds finite sets of concepts and relationships, so
all four well-defined modes are implementable as search. Design abduction
is visibly the hardest: its search space is the product of the other two —
the formal core of the paper's claim that design is a distinct activity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class ReasoningMode(enum.Enum):
    DEDUCTION = "deduction"
    INDUCTION = "induction"
    ABDUCTION_PROBLEM_SOLVING = "abduction-problem-solving"
    ABDUCTION_DESIGN = "abduction-design"
    UNREASONING = "unreasoning"


@dataclass(frozen=True)
class Frame:
    """One (what, how, outcome) triple of the reasoning universe."""

    what: tuple[str, ...]
    how: str
    outcome: Any


class Universe:
    """A finite reasoning universe.

    ``concepts`` are named things; ``relationships`` map a tuple of
    concepts to an outcome via a callable.
    """

    def __init__(self):
        self.concepts: dict[str, Any] = {}
        self.relationships: dict[str, Callable[..., Any]] = {}

    def add_concept(self, name: str, value: Any = None) -> "Universe":
        self.concepts[name] = value
        return self

    def add_relationship(self, name: str,
                         fn: Callable[..., Any]) -> "Universe":
        self.relationships[name] = fn
        return self

    def apply(self, how: str, what: tuple[str, ...]) -> Any:
        """Evaluate a relationship on concept values."""
        fn = self.relationships[how]
        return fn(*(self.concepts[w] for w in what))

    def concept_tuples(self, arity: int) -> list[tuple[str, ...]]:
        """All ordered concept tuples of the given arity."""
        names = sorted(self.concepts)
        if arity == 0:
            return [()]
        tuples: list[tuple[str, ...]] = [()]
        for _ in range(arity):
            tuples = [t + (n,) for t in tuples for n in names]
        return tuples


@dataclass
class ReasoningResult:
    """Outcome of one reasoning episode."""

    mode: ReasoningMode
    frames: list[Frame] = field(default_factory=list)
    #: Number of (what, how) combinations examined — the search cost.
    examined: int = 0

    @property
    def solved(self) -> bool:
        return bool(self.frames)


def _outcomes_match(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            return abs(float(a) - float(b)) < 1e-9
        except (TypeError, ValueError):
            return False
    return a == b


def reason(universe: Universe, mode: ReasoningMode,
           what: Optional[tuple[str, ...]] = None,
           how: Optional[str] = None,
           outcome: Any = None,
           max_frames: Optional[int] = None) -> ReasoningResult:
    """Run one reasoning mode over the universe.

    - DEDUCTION: ``what`` + ``how`` given; computes the outcome.
    - INDUCTION: ``what`` + ``outcome`` given; finds relationships that
      produce the outcome.
    - ABDUCTION_PROBLEM_SOLVING: ``how`` + ``outcome`` given; finds concept
      pairs that produce the outcome.
    - ABDUCTION_DESIGN: only ``outcome`` given; searches the full product
      space of concepts × relationships.
    - UNREASONING: accepts any frame without evaluation (and is thus
      reported as solved but with zero evidential value).
    """
    result = ReasoningResult(mode=mode)

    if mode is ReasoningMode.DEDUCTION:
        if what is None or how is None:
            raise ValueError("deduction needs both what and how")
        value = universe.apply(how, what)
        result.examined = 1
        result.frames.append(Frame(what=what, how=how, outcome=value))
        return result

    if mode is ReasoningMode.INDUCTION:
        if what is None:
            raise ValueError("induction needs what (+ observed outcome)")
        for name in sorted(universe.relationships):
            result.examined += 1
            try:
                value = universe.apply(name, what)
            except Exception:
                continue
            if _outcomes_match(value, outcome):
                result.frames.append(Frame(what=what, how=name,
                                           outcome=value))
                if max_frames and len(result.frames) >= max_frames:
                    break
        return result

    if mode is ReasoningMode.ABDUCTION_PROBLEM_SOLVING:
        if how is None:
            raise ValueError("problem-solving abduction needs how")
        for candidate in universe.concept_tuples(2):
            result.examined += 1
            try:
                value = universe.apply(how, candidate)
            except Exception:
                continue
            if _outcomes_match(value, outcome):
                result.frames.append(Frame(what=candidate, how=how,
                                           outcome=value))
                if max_frames and len(result.frames) >= max_frames:
                    break
        return result

    if mode is ReasoningMode.ABDUCTION_DESIGN:
        for name in sorted(universe.relationships):
            for candidate in universe.concept_tuples(2):
                result.examined += 1
                try:
                    value = universe.apply(name, candidate)
                except Exception:
                    continue
                if _outcomes_match(value, outcome):
                    result.frames.append(Frame(what=candidate, how=name,
                                               outcome=value))
                    if max_frames and len(result.frames) >= max_frames:
                        return result
        return result

    if mode is ReasoningMode.UNREASONING:
        # "Facts don't matter": claim a frame without evaluating anything.
        result.frames.append(Frame(what=what or ("anything",),
                                   how=how or "anything", outcome=outcome))
        result.examined = 0
        return result

    raise ValueError(f"unknown mode {mode}")
