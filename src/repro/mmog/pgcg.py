"""POGGI-style procedural game-content generation ([78]).

POGGI generated puzzle content at scale on grids: workers generate
candidate puzzle instances, grade their difficulty by solving them, and
keep instances matching the requested difficulty band. Here the puzzle is
the classic 3x3 sliding puzzle; difficulty is the optimal solution length
found by breadth-first search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SOLVED = (1, 2, 3, 4, 5, 6, 7, 8, 0)  # 0 is the blank
_MOVES = {
    0: (1, 3), 1: (0, 2, 4), 2: (1, 5),
    3: (0, 4, 6), 4: (1, 3, 5, 7), 5: (2, 4, 8),
    6: (3, 7), 7: (4, 6, 8), 8: (5, 7),
}


@dataclass(frozen=True)
class PuzzleInstance:
    """One generated puzzle with its graded difficulty."""

    board: tuple[int, ...]
    difficulty: int  # optimal moves to solve


def _neighbors(board: tuple[int, ...]):
    blank = board.index(0)
    for target in _MOVES[blank]:
        new = list(board)
        new[blank], new[target] = new[target], new[blank]
        yield tuple(new)


def puzzle_difficulty(board: Sequence[int],
                      max_depth: int = 24) -> Optional[int]:
    """Optimal solution length by BFS; None if deeper than ``max_depth``
    (or unsolvable — half of all permutations)."""
    board = tuple(board)
    if sorted(board) != list(range(9)):
        raise ValueError("board must be a permutation of 0..8")
    if board == SOLVED:
        return 0
    seen = {board}
    frontier = deque([(board, 0)])
    while frontier:
        state, depth = frontier.popleft()
        if depth >= max_depth:
            continue
        for nxt in _neighbors(state):
            if nxt in seen:
                continue
            if nxt == SOLVED:
                return depth + 1
            seen.add(nxt)
            frontier.append((nxt, depth + 1))
    return None


def scramble(rng: np.random.Generator, walk_length: int
             ) -> tuple[int, ...]:
    """Random walk from the solved state (always solvable)."""
    board = SOLVED
    prev = None
    for _ in range(walk_length):
        options = [b for b in _neighbors(board) if b != prev]
        prev = board
        board = options[int(rng.integers(0, len(options)))]
    return board


def generate_puzzles(rng: np.random.Generator,
                     count: int,
                     difficulty_band: tuple[int, int] = (8, 16),
                     max_attempts: int = 10_000) -> list[PuzzleInstance]:
    """Generate ``count`` puzzles whose optimal length lies in the band.

    The generate-and-grade loop is the POGGI core; the rejection rate is
    what made distributed generation necessary at scale.
    """
    lo, hi = difficulty_band
    if lo < 1 or hi < lo:
        raise ValueError("invalid difficulty band")
    puzzles: list[PuzzleInstance] = []
    attempts = 0
    while len(puzzles) < count and attempts < max_attempts:
        attempts += 1
        board = scramble(rng, walk_length=int(rng.integers(lo, 2 * hi)))
        difficulty = puzzle_difficulty(board, max_depth=hi)
        if difficulty is not None and lo <= difficulty <= hi:
            puzzles.append(PuzzleInstance(board=board,
                                          difficulty=difficulty))
    if len(puzzles) < count:
        raise RuntimeError(
            f"only generated {len(puzzles)}/{count} puzzles in "
            f"{max_attempts} attempts")
    return puzzles
