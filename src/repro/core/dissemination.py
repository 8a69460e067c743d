"""Dissemination artifacts and checklists (paper §3.6).

The framework treats dissemination itself as a design problem: articles,
free open-source software (FOSS), and FAIR / free open-access data (FOAD)
each get a checklist-backed artifact type, and a :class:`DisseminationPlan`
validates that a design effort ships all three where applicable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ArtifactKind(enum.Enum):
    ARTICLE = "article"
    SOFTWARE = "software"   # FOSS
    DATA = "data"           # FAIR / FOAD


#: The FAIR guiding principles (Wilkinson et al., the paper's [47]).
FAIR_CHECKLIST: tuple[str, ...] = (
    "findable: globally unique persistent identifier",
    "findable: rich metadata",
    "accessible: retrievable by identifier via open protocol",
    "accessible: metadata persists even when data is gone",
    "interoperable: formal shared knowledge representation",
    "interoperable: qualified references to other (meta)data",
    "reusable: clear usage license",
    "reusable: detailed provenance",
)

#: Checklists per artifact kind; items must be checked off before release.
CHECKLISTS: dict[ArtifactKind, tuple[str, ...]] = {
    ArtifactKind.ARTICLE: (
        "states the design problem and its archetype",
        "describes the design space and exploration process",
        "reports conceptual analysis",
        "reports experimental analysis",
        "discusses threats to validity and reproducibility",
    ),
    ArtifactKind.SOFTWARE: (
        "open-source license",
        "documented public API",
        "automated tests",
        "continuous integration configured",
        "versioned release",
    ),
    ArtifactKind.DATA: FAIR_CHECKLIST,
}


@dataclass
class Artifact:
    """A dissemination artifact with its release checklist."""

    kind: ArtifactKind
    title: str
    checked: set[str] = field(default_factory=set)

    @property
    def checklist(self) -> tuple[str, ...]:
        return CHECKLISTS[self.kind]

    def check(self, item: str) -> None:
        if item not in self.checklist:
            raise KeyError(
                f"{item!r} is not on the {self.kind.value} checklist")
        self.checked.add(item)

    def missing(self) -> list[str]:
        return [item for item in self.checklist if item not in self.checked]

    @property
    def release_ready(self) -> bool:
        return not self.missing()

    @property
    def completeness(self) -> float:
        return len(self.checked) / len(self.checklist)


@dataclass
class DisseminationPlan:
    """Stage 8 of the BDC as a plan: which artifacts a design effort ships."""

    design_name: str
    artifacts: list[Artifact] = field(default_factory=list)

    def add(self, kind: ArtifactKind, title: str) -> Artifact:
        artifact = Artifact(kind=kind, title=title)
        self.artifacts.append(artifact)
        return artifact

    def of_kind(self, kind: ArtifactKind) -> list[Artifact]:
        return [a for a in self.artifacts if a.kind is kind]

    @property
    def covers_all_kinds(self) -> bool:
        """Whether the plan ships article + software + data (the paper's
        full stage-8 expansion)."""
        return all(self.of_kind(kind) for kind in ArtifactKind)

    def release_report(self) -> dict[str, dict[str, object]]:
        return {
            artifact.title: {
                "kind": artifact.kind.value,
                "ready": artifact.release_ready,
                "completeness": round(artifact.completeness, 3),
                "missing": artifact.missing(),
            }
            for artifact in self.artifacts
        }
