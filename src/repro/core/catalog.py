"""Catalogs of the framework: Tables 1–3, problem archetypes, Altshuller.

Everything a designer would look up lives here as data, cross-linked:
principles (Table 2) ↔ challenges (Table 3), problem archetypes P1–P5
(§3.4) with problem sources S1–S3, the framework overview (Table 1), and
the two Altshuller assessments Challenge C2 cites (levels of creativity,
and performance baselines).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Table 1: the framework overview.
# ---------------------------------------------------------------------------
FRAMEWORK_OVERVIEW: dict[str, dict[str, str]] = {
    "Who?": {
        "Stakeholders": "designers, scientists, engineers, students, society",
    },
    "What?": {
        "Central Paradigm": "design, different from science and engineering",
        "Focus": "ecosystems, systems within; structure, organization, "
                 "dynamics",
        "Concerns": "functional and non-functional properties; phenomena, "
                    "evolution",
    },
    "How?": {
        "Design Thinking": "abductive thinking, processes, co-evolving "
                           "problem-solution",
        "Exploration": "design space, process to explore",
        "Problem-finding": "structured, ill-defined, wicked",
        "Problem-solving": "pragmatic, innovative, ethical",
        "Reporting": "articles, software, data",
    },
}


# ---------------------------------------------------------------------------
# Table 2: the eight core principles of MCS design.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Principle:
    index: str            # "P1".."P8"
    category: str         # Highest / Systems / Peopleware / Methodology
    statement: str
    key_aspects: str


PRINCIPLES: dict[str, Principle] = {p.index: p for p in [
    Principle("P1", "Highest", "Design needs design.", "design of design"),
    Principle("P2", "Systems", "This is the Age of Distributed Ecosystems.",
              "age of distributed ecosystems"),
    Principle("P3", "Systems",
              "Dynamic non-functional properties and phenomena are "
              "first-class concerns.", "NFRs, phenomena"),
    Principle("P4", "Systems",
              "Resource Management and Scheduling, and its interplay with "
              "various sources of information to achieve local and global "
              "Self-Awareness, are key concerns.", "RM&S, self-awareness"),
    Principle("P5", "Peopleware",
              "Education practices for MCS must ensure the competence and "
              "integrity needed for experimenting, creating, and operating "
              "ecosystems.", "education in design"),
    Principle("P6", "Peopleware",
              "Design communities can foster and curate pragmatic, "
              "innovative, and ethical design practices.",
              "pragmatic, innovative, ethical"),
    Principle("P7", "Methodology",
              "We understand and create together a science, practice, and "
              "culture of MCS design.", "design science, practice, culture"),
    Principle("P8", "Methodology",
              "We are aware of the history and evolution of MCS designs, "
              "key debates, and evolving patterns.",
              "evolution and emergence"),
]}


# ---------------------------------------------------------------------------
# Table 3: the ten challenges, each linked to its principles.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Challenge:
    index: str            # "C1".."C10"
    category: str
    key_aspects: str
    statement: str
    principles: tuple[str, ...]  # indices into PRINCIPLES


CHALLENGES: dict[str, Challenge] = {c.index: c for c in [
    Challenge("C1", "Highest", "Design of design",
              "Creating processes that enable and facilitate pragmatic and "
              "innovative MCS designs.", ("P1",)),
    Challenge("C2", "Highest", "What is good design?",
              "Understand (automatically) what is good design.", ("P1",)),
    Challenge("C3", "Highest", "Design space exploration",
              "Simulation-based approaches and experimentation for design "
              "space exploration; calibration and reproducibility are key.",
              ("P1",)),
    Challenge("C4", "Systems", "Design for ecosystems",
              "Design for MCS, not for individual systems.", ("P2",)),
    Challenge("C5", "Systems", "Catalog for MCS design",
              "Establish a catalog of components for MCS design.",
              ("P3", "P4")),
    Challenge("C6", "Peopleware", "Education, curriculum",
              "Create a teachable common body of knowledge for MCS designs, "
              "focusing on pragmatism, innovation, and ethics.", ("P5",)),
    Challenge("C7", "Peopleware", "Community engagement",
              "Create communities and environments for people to engage "
              "with the design and operation of ecosystems.", ("P6",)),
    Challenge("C8", "Methodology", "Documenting designs",
              "Design a formalism for documenting designs.",
              ("P5", "P6", "P7")),
    Challenge("C9", "Methodology", "Design in practice",
              "Understand MCS design in practice: how and when do "
              "practitioners design what they design?", ("P7",)),
    Challenge("C10", "Methodology", "Organizational similarity",
              "Organizational similarity in MCS design.", ("P7",)),
]}


def challenges_for_principle(principle_index: str) -> list[Challenge]:
    """All challenges that cite the given principle (Table 3's Pr. column)."""
    if principle_index not in PRINCIPLES:
        raise KeyError(f"unknown principle {principle_index!r}")
    return [c for c in CHALLENGES.values()
            if principle_index in c.principles]


# ---------------------------------------------------------------------------
# §3.4: problem archetypes P1-P5 and problem sources S1-S3.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProblemArchetype:
    index: str
    name: str
    description: str
    #: Which problem-finding sources apply (S1-S3, or a process note).
    finding: tuple[str, ...]


PROBLEM_SOURCES: dict[str, str] = {
    "S1": "peer-reviewed qualitative and quantitative studies on "
          "ecosystems and on systems within them",
    "S2": "discussion with experts; analysis of best-practices, technical "
          "reports, tech blogs, best-practice books",
    "S3": "own thought and lab experiments on key technology trends and "
          "known limitations",
}

PROBLEM_ARCHETYPES: dict[str, ProblemArchetype] = {
    a.index: a for a in [
        ProblemArchetype("P1", "ecosystem life-cycle",
                         "problems in ecosystem life-cycle, including for "
                         "new and emerging processes, services, and "
                         "ecosystems", ("S1", "S2", "S3")),
        ProblemArchetype("P2", "needs and phenomena",
                         "problems related to new and emerging needs of "
                         "ecosystem-clients and -operators; newly "
                         "discovered, emerging, and recurring phenomena; "
                         "harnessing new technology", ("S1", "S2", "S3")),
        ProblemArchetype("P3", "legacy components",
                         "problems related to leveraging and maintaining "
                         "legacy components", ("S1", "S2", "S3")),
        ProblemArchetype("P4", "morphology of ecosystems",
                         "understanding how new and emerging technology "
                         "actually works in practice or in ecosystems, and "
                         "what new phenomena appear",
                         ("empirical-science-process",)),
        ProblemArchetype("P5", "unexplored design space",
                         "problems related to previously unexplored parts "
                         "of the design space, driven by curiosity",
                         ("morphological-analysis",)),
    ]
}


# ---------------------------------------------------------------------------
# Challenge C2: Altshuller's levels, for assessing designs.
# ---------------------------------------------------------------------------
class CreativityLevel(enum.IntEnum):
    """Altshuller's five levels of design, by long-term impact."""

    TRIVIAL = 1       # existing design, minimal local adaptation
    NORMAL = 2        # selection among designs + careful adaptation
    NOVEL = 3         # significant adaptation of an existing design
    FUNDAMENTAL = 4   # new design or important feature (big data, FaaS)
    OUTSTANDING = 5   # a completely new ecosystem (the Internet, the cloud)


ALTSHULLER_LEVELS: dict[CreativityLevel, str] = {
    CreativityLevel.TRIVIAL:
        "using an existing design and minimally adapting it for local "
        "situations",
    CreativityLevel.NORMAL:
        "selecting one of several designs, and adapting the selected "
        "design after careful reasoning",
    CreativityLevel.NOVEL:
        "entailing significant adaptation of an existing design",
    CreativityLevel.FUNDAMENTAL:
        "development of a new design or important feature, or the complete "
        "adaptation of an existing design (e.g., big data, serverless "
        "computing)",
    CreativityLevel.OUTSTANDING:
        "a completely new ecosystem leading to significant scientific or "
        "technical advance (e.g., the Internet, the cloud)",
}

#: Altshuller's four performance baselines a design is judged against.
PERFORMANCE_BASELINES: tuple[str, ...] = (
    "random design", "naive design", "current practice",
    "ideal or optimal alternative")


def assess_creativity(reuses_existing: bool, adaptation_extent: float,
                      creates_new_feature: bool,
                      creates_new_ecosystem: bool) -> CreativityLevel:
    """Derive an Altshuller level from structured answers.

    ``adaptation_extent`` in [0, 1]: how much of the prior design changed.
    The mapping follows the level definitions: new ecosystem > new
    feature/design > significant adaptation > careful selection >
    minimal adaptation.
    """
    if not 0 <= adaptation_extent <= 1:
        raise ValueError("adaptation_extent must be in [0, 1]")
    if creates_new_ecosystem:
        return CreativityLevel.OUTSTANDING
    if creates_new_feature or adaptation_extent >= 0.9:
        return CreativityLevel.FUNDAMENTAL
    if reuses_existing and adaptation_extent >= 0.4:
        return CreativityLevel.NOVEL
    if reuses_existing and adaptation_extent >= 0.1:
        return CreativityLevel.NORMAL
    return CreativityLevel.TRIVIAL
