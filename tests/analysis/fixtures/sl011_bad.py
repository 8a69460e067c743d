"""SL011 fixture (bad): module-level imports the module never reads."""

import heapq
import os.path
from dataclasses import dataclass, field
from typing import Optional as Maybe


@dataclass
class Window:
    start: float
    end: float


def reads_an_attribute(window):
    # ``window.field`` is an attribute, not a read of the imported name.
    return window.field
