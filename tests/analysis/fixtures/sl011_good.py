"""SL011 fixture (good): every module-level import is read."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Environment as Env

__all__ = ["Env", "Window", "span"]


@dataclass
class Window:
    start: float
    end: Optional[float] = None
    tags: list = field(default_factory=list)


def span(window: Window) -> float:
    return math.inf if window.end is None else window.end - window.start
