"""Toxicity detection in multiplayer chat ([77]).

A lexicon-plus-context detector over synthetic chat: profanity and slurs
score base toxicity, amplified by shouting, repetition, and targeting
other players — the feature family the paper's study used. A generator
produces labelled synthetic chat with planted toxic players so detector
quality is measurable (precision/recall).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: A deliberately mild stand-in lexicon (scores in (0, 1]).
TOXIC_LEXICON: dict[str, float] = {
    "noob": 0.3, "trash": 0.5, "idiot": 0.7, "loser": 0.5, "garbage": 0.5,
    "uninstall": 0.6, "report": 0.2, "worst": 0.3, "useless": 0.5,
    "hate": 0.6, "stupid": 0.6, "pathetic": 0.6, "clown": 0.4,
}

FRIENDLY_PHRASES = [
    "good game", "well played", "nice shot", "thanks team",
    "group up mid", "push now", "need healing", "on my way",
    "great save", "gl hf",
]

TOXIC_TEMPLATES = [
    "you are such a {w}", "{w} team honestly", "report this {w}",
    "uninstall you {w}", "absolute {w}", "my team is {w}",
]


@dataclass
class ChatMessage:
    author: str
    text: str
    time: float
    #: Ground-truth label (known for synthetic chat).
    toxic: Optional[bool] = None


class ToxicityDetector:
    """Scores messages in [0, 1] and classifies above a threshold."""

    def __init__(self, threshold: float = 0.5,
                 lexicon: Optional[dict[str, float]] = None):
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.lexicon = dict(lexicon or TOXIC_LEXICON)
        self._recent: dict[str, list[float]] = {}

    def score(self, message: ChatMessage) -> float:
        text = message.text
        words = re.findall(r"[a-z']+", text.lower())
        if not words:
            return 0.0
        base = max((self.lexicon.get(w, 0.0) for w in words), default=0.0)
        if base == 0.0:
            return 0.0
        # Context amplifiers.
        if text.isupper() and len(text) > 5:
            base = min(1.0, base + 0.2)          # shouting
        if any(w in ("you", "your") for w in words):
            base = min(1.0, base + 0.15)         # targeting
        history = self._recent.setdefault(message.author, [])
        if history and message.time - history[-1] < 30.0:
            base = min(1.0, base + 0.1)          # rapid-fire repetition
        history.append(message.time)
        return base

    def is_toxic(self, message: ChatMessage) -> bool:
        return self.score(message) >= self.threshold

    def evaluate(self, messages: Sequence[ChatMessage]
                 ) -> dict[str, float]:
        """Precision/recall/F1 against ground-truth labels."""
        tp = fp = fn = tn = 0
        for msg in messages:
            if msg.toxic is None:
                raise ValueError("evaluate needs labelled messages")
            predicted = self.is_toxic(msg)
            if predicted and msg.toxic:
                tp += 1
            elif predicted and not msg.toxic:
                fp += 1
            elif not predicted and msg.toxic:
                fn += 1
            else:
                tn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return {"precision": precision, "recall": recall, "f1": f1,
                "accuracy": (tp + tn) / max(len(messages), 1)}

    def repeat_offenders(self, messages: Sequence[ChatMessage],
                         min_toxic: int = 3) -> list[str]:
        """Players with at least ``min_toxic`` toxic messages."""
        counts: dict[str, int] = {}
        for msg in messages:
            if self.is_toxic(msg):
                counts[msg.author] = counts.get(msg.author, 0) + 1
        return sorted(a for a, c in counts.items() if c >= min_toxic)


def generate_chat(rng: np.random.Generator, n_players: int = 20,
                  n_messages: int = 400,
                  toxic_player_fraction: float = 0.15,
                  toxic_message_rate: float = 0.6) -> list[ChatMessage]:
    """Synthetic labelled chat with planted toxic players."""
    if not 0 <= toxic_player_fraction <= 1:
        raise ValueError("toxic_player_fraction must be in [0, 1]")
    players = [f"p{i:02d}" for i in range(n_players)]
    n_toxic = int(round(n_players * toxic_player_fraction))
    toxic_players = set(players[:n_toxic])
    words = sorted(TOXIC_LEXICON)
    messages = []
    t = 0.0
    for _ in range(n_messages):
        t += float(rng.exponential(20.0))
        author = players[int(rng.integers(0, n_players))]
        is_toxic_msg = (author in toxic_players
                        and rng.random() < toxic_message_rate)
        if is_toxic_msg:
            template = TOXIC_TEMPLATES[int(rng.integers(
                0, len(TOXIC_TEMPLATES)))]
            word = words[int(rng.integers(0, len(words)))]
            text = template.format(w=word)
            if rng.random() < 0.3:
                text = text.upper()
        else:
            text = FRIENDLY_PHRASES[int(rng.integers(
                0, len(FRIENDLY_PHRASES)))]
        messages.append(ChatMessage(author=author, text=text, time=t,
                                    toxic=is_toxic_msg))
    return messages
