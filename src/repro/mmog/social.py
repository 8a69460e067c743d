"""Implicit social networks in games and matchmaking ([74], [91], [75]).

Players who repeatedly share matches form an implicit social network; the
paper's studies build the graph from co-play records, find communities,
and use graph proximity for matchmaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

#: Players per match.
PARTY_SIZE = 4

@dataclass(frozen=True)
class CoPlayRecord:
    """One match: the players who shared it."""

    match_id: int
    players: tuple[str, ...]


class InteractionGraph:
    """The implicit social network: weighted co-play graph."""

    def __init__(self):
        self.graph = nx.Graph()

    def add_match(self, players: Sequence[str]) -> None:
        players = list(dict.fromkeys(players))  # dedupe, keep order
        for player in players:
            if not self.graph.has_node(player):
                self.graph.add_node(player, matches=0)
            self.graph.nodes[player]["matches"] += 1
        for i, a in enumerate(players):
            for b in players[i + 1:]:
                if self.graph.has_edge(a, b):
                    self.graph[a][b]["weight"] += 1
                else:
                    self.graph.add_edge(a, b, weight=1)

    @property
    def n_players(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def n_ties(self) -> int:
        return self.graph.number_of_edges()

    def tie_strength(self, a: str, b: str) -> int:
        if self.graph.has_edge(a, b):
            return self.graph[a][b]["weight"]
        return 0

    def strong_ties(self, min_weight: int = 2) -> list[tuple[str, str, int]]:
        """Repeated co-play pairs — the *implicit* relationships."""
        return [(a, b, d["weight"])
                for a, b, d in self.graph.edges(data=True)
                if d["weight"] >= min_weight]

    def communities(self) -> list[set[str]]:
        """Greedy-modularity communities (guilds/friend clusters)."""
        if self.graph.number_of_edges() == 0:
            return [{n} for n in self.graph.nodes]
        return [set(c) for c in nx.community.greedy_modularity_communities(
            self.graph, weight="weight")]

    def suggest_teammates(self, player: str, k: int = 5) -> list[str]:
        """Matchmaking by social proximity: strongest ties first, then
        friends-of-friends by shared-neighbour count."""
        if player not in self.graph:
            return []
        direct = sorted(
            self.graph[player].items(),
            key=lambda kv: (-kv[1]["weight"], kv[0]))
        suggestions = [name for name, _ in direct]
        if len(suggestions) < k:
            fof: dict[str, int] = {}
            for friend in self.graph[player]:
                for candidate in self.graph[friend]:
                    if candidate != player and candidate not in self.graph[player]:
                        fof[candidate] = fof.get(candidate, 0) + 1
            suggestions += sorted(fof, key=lambda c: (-fof[c], c))
        return suggestions[:k]


def build_interaction_graph(records: Sequence[CoPlayRecord]
                            ) -> InteractionGraph:
    graph = InteractionGraph()
    for record in records:
        graph.add_match(record.players)
    return graph


def generate_coplay(rng: np.random.Generator, n_players: int = 60,
                    n_matches: int = 300, n_groups: int = 6,
                    social_bias: float = 0.8) -> list[CoPlayRecord]:
    """Synthetic co-play with planted friend groups.

    With probability ``social_bias`` a match is drawn from within one
    planted group (friends queueing together); otherwise players are
    sampled uniformly (solo queue). Community detection should recover
    the planted groups when bias is high.
    """
    if n_players < PARTY_SIZE:
        raise ValueError(f"need at least {PARTY_SIZE} players")
    players = [f"player-{i:03d}" for i in range(n_players)]
    groups = np.array_split(np.arange(n_players), n_groups)
    records = []
    for match_id in range(n_matches):
        if rng.random() < social_bias:
            group = groups[int(rng.integers(0, n_groups))]
            size = min(PARTY_SIZE, group.size)
            idx = rng.choice(group, size=size, replace=False)
        else:
            idx = rng.choice(n_players, size=PARTY_SIZE, replace=False)
        records.append(CoPlayRecord(
            match_id=match_id,
            players=tuple(players[int(i)] for i in idx)))
    return records


def matchmaking_quality(graph: InteractionGraph,
                        parties: Sequence[Sequence[str]]) -> float:
    """Mean tie strength inside proposed parties (higher = more social)."""
    strengths = []
    for party in parties:
        party = list(party)
        for i, a in enumerate(party):
            for b in party[i + 1:]:
                strengths.append(graph.tie_strength(a, b))
    return float(np.mean(strengths)) if strengths else 0.0
