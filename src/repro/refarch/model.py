"""Model of a layered reference architecture."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class Component:
    """A concrete ecosystem component (a system, engine, or service).

    ``concerns`` are free-form capability tags ("sql", "scheduling",
    "in-memory-fs", …) used to decide which layer(s) the component can
    map to.
    """

    name: str
    concerns: frozenset[str]
    description: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass
class Layer:
    """One layer of a reference architecture.

    A layer accepts a component when they share at least one concern.
    Sub-layers give the finer granularity the 2016 architecture introduces
    in its Front-end and Back-end layers.
    """

    index: int
    name: str
    concerns: set[str]
    description: str = ""
    sublayers: list["Layer"] = field(default_factory=list)
    orthogonal: bool = False

    def accepts(self, comp: Component) -> bool:
        if self.concerns & comp.concerns:
            return True
        return any(sub.accepts(comp) for sub in self.sublayers)


class ReferenceArchitecture:
    """A named, versioned stack of layers.

    The paper's Figure 9 shows two generations; both instantiate this
    class (see :mod:`repro.refarch.catalog`).
    """

    def __init__(self, name: str, era: str, layers: Iterable[Layer]):
        self.name = name
        self.era = era
        self.layers = sorted(layers, key=lambda l: l.index)
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"architecture {name}: duplicate layer names")

    def __repr__(self) -> str:
        return f"<ReferenceArchitecture {self.name} ({self.era}): " \
               f"{len(self.layers)} layers>"

    def place(self, comp: Component) -> list[Layer]:
        """All layers that accept the component (a component may span)."""
        return [layer for layer in self.layers if layer.accepts(comp)]
