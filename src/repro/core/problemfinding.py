"""Problem-finding processes (paper §3.4).

Two of the framework's problem-finding methods, made executable:

- **morphological analysis** (archetype P5, after Zwicky [46]): lay out
  the design space as a morphological field, mark the cells occupied by
  known systems, and surface the *unoccupied niches* as curiosity-driven
  problems;
- **source-tagged collection** (archetypes P1–P3, sources S1–S3):
  aggregate observations from studies, expert discussion, and own
  experiments into problem statements tagged with archetype and source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.catalog import PROBLEM_ARCHETYPES, PROBLEM_SOURCES
from repro.core.space import Candidate, DesignSpace

#: Largest field that coverage and gap queries enumerate cell by cell.
MAX_ENUMERATED_CELLS = 100_000

@dataclass(frozen=True)
class KnownSystem:
    """A system occupying part of the morphological field.

    ``choices`` is a *partial* assignment: the system covers every full
    candidate compatible with it (e.g., BitTorrent covers all cells with
    topology=p2p, incentive=tit-for-tat, whatever the transport).
    """

    name: str
    choices: tuple[tuple[str, str], ...]

    def covers(self, candidate: Candidate) -> bool:
        assignment = candidate.as_dict()
        return all(assignment.get(dim) == opt
                   for dim, opt in self.choices)


@dataclass(frozen=True)
class ProblemStatement:
    """A found problem, tagged with its archetype and provenance."""

    title: str
    archetype: str          # index into PROBLEM_ARCHETYPES
    source: str             # "S1".."S3" or "morphological-analysis"
    detail: str = ""
    niche: Optional[Candidate] = None

    def __post_init__(self):
        if self.archetype not in PROBLEM_ARCHETYPES:
            raise ValueError(f"unknown archetype {self.archetype!r}")
        valid_sources = set(PROBLEM_SOURCES) | {
            "morphological-analysis", "empirical-science-process"}
        if self.source not in valid_sources:
            raise ValueError(f"unknown source {self.source!r}")


class MorphologicalField:
    """The P5 method: a design space with known systems marked on it."""

    def __init__(self, space: DesignSpace,
                 known_systems: Iterable[KnownSystem] = ()):
        self.space = space
        self.known_systems: list[KnownSystem] = []
        for system in known_systems:
            self.add_system(system)

    def add_system(self, system: KnownSystem) -> None:
        for dim, opt in system.choices:
            dimension = self.space.dimension(dim)  # raises on unknown dim
            if opt not in dimension.options:
                raise ValueError(
                    f"system {system.name}: {opt!r} is not an option of "
                    f"{dim!r}")
        self.known_systems.append(system)

    def occupied(self, candidate: Candidate) -> list[KnownSystem]:
        return [s for s in self.known_systems if s.covers(candidate)]

    def coverage_fraction(self) -> float:
        """Fraction of the field occupied by at least one system."""
        total = self.space.size
        return (total - len(self.gaps())) / total

    def gaps(self) -> list[Candidate]:
        """All unoccupied cells — the unexplored niches."""
        if self.space.size > MAX_ENUMERATED_CELLS:
            raise ValueError(
                f"field too large to enumerate ({self.space.size} cells)")
        return [c for c in self.space.all_candidates()
                if not self.occupied(c)]

    def find_problems(self, max_problems: Optional[int] = None
                      ) -> list[ProblemStatement]:
        """Turn unoccupied niches into P5 problem statements."""
        problems = []
        for candidate in self.gaps():
            desc = ", ".join(f"{dim}={opt}"
                             for dim, opt in candidate.choices)
            problems.append(ProblemStatement(
                title=f"explore the niche [{desc}]",
                archetype="P5",
                source="morphological-analysis",
                detail="no known system occupies this combination",
                niche=candidate))
            if max_problems is not None and len(problems) >= max_problems:
                break
        return problems


@dataclass
class ProblemCollector:
    """S1–S3 collection for archetypes P1–P3 (§3.4's 'How to identify
    meaningful problems')."""

    problems: list[ProblemStatement] = field(default_factory=list)

    def from_study(self, title: str, archetype: str,
                   detail: str = "") -> ProblemStatement:
        """S1: peer-reviewed studies on ecosystems."""
        return self._add(title, archetype, "S1", detail)

    def from_experts(self, title: str, archetype: str) -> ProblemStatement:
        """S2: expert discussion, tech reports, best-practice books."""
        return self._add(title, archetype, "S2", "")

    def from_own_experiments(self, title: str,
                             archetype: str) -> ProblemStatement:
        """S3: own thought and lab experiments."""
        return self._add(title, archetype, "S3", "")

    def _add(self, title: str, archetype: str, source: str,
             detail: str) -> ProblemStatement:
        expected = PROBLEM_ARCHETYPES[archetype].finding
        if source not in expected:
            raise ValueError(
                f"archetype {archetype} is not found via {source}; "
                f"its sources are {expected}")
        problem = ProblemStatement(title=title, archetype=archetype,
                                   source=source, detail=detail)
        self.problems.append(problem)
        return problem

    def by_archetype(self, archetype: str) -> list[ProblemStatement]:
        return [p for p in self.problems if p.archetype == archetype]
