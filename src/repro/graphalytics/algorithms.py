"""The six LDBC Graphalytics algorithm kernels.

Each kernel returns an :class:`AlgorithmResult` carrying the per-vertex
output *and* the iteration/edge-visit counts the platform cost models
consume — the quantities Granula breaks performance down into.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import networkx as nx
import numpy as np


@dataclass
class AlgorithmResult:
    """Output plus the work accounting of one kernel run."""

    algorithm: str
    values: dict[Any, float]
    iterations: int
    edges_visited: int

    def __len__(self) -> int:
        return len(self.values)


def bfs(graph: nx.Graph, source: Any) -> AlgorithmResult:
    """Breadth-first search: per-vertex depth from the source
    (unreachable vertices get +inf, per the LDBC spec)."""
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    depth = {v: float("inf") for v in graph.nodes}
    depth[source] = 0.0
    frontier = deque([source])
    edges_visited = 0
    max_depth = 0
    while frontier:
        u = frontier.popleft()
        for w in graph.neighbors(u):
            edges_visited += 1
            if depth[w] == float("inf"):
                depth[w] = depth[u] + 1
                max_depth = max(max_depth, int(depth[w]))
                frontier.append(w)
    return AlgorithmResult("bfs", depth, iterations=max_depth,
                           edges_visited=edges_visited)


def pagerank(graph: nx.Graph, max_iterations: int = 30) -> AlgorithmResult:
    """Power-iteration PageRank, damping 0.85 (the fixed-iteration LDBC
    variant with an early-out once the L1 change drops below 1e-6)."""
    n = graph.number_of_nodes()
    if n == 0:
        return AlgorithmResult("pagerank", {}, 0, 0)
    nodes = list(graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    rank = np.full(n, 1.0 / n)
    out_degree = np.array([max(graph.degree(v), 1) for v in nodes],
                          dtype=float)
    edges_visited = 0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_rank = np.full(n, (1 - 0.85) / n)
        contrib = 0.85 * rank / out_degree
        for v in nodes:
            i = index[v]
            for w in graph.neighbors(v):
                new_rank[index[w]] += contrib[i]
                edges_visited += 1
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < 1e-6:
            break
    return AlgorithmResult("pagerank",
                           {v: float(rank[index[v]]) for v in nodes},
                           iterations=iterations,
                           edges_visited=edges_visited)


def wcc(graph: nx.Graph) -> AlgorithmResult:
    """Weakly connected components: per-vertex component label."""
    labels: dict[Any, float] = {}
    edges_visited = 0
    for comp_id, component in enumerate(nx.connected_components(graph)):
        for v in component:
            labels[v] = float(comp_id)
        edges_visited += sum(graph.degree(v) for v in component)
    return AlgorithmResult("wcc", labels, iterations=1,
                           edges_visited=edges_visited)


def cdlp(graph: nx.Graph, max_iterations: int = 10) -> AlgorithmResult:
    """Community detection by (synchronous, deterministic) label
    propagation: each vertex adopts the smallest most-frequent neighbour
    label — the LDBC-specified tie-break."""
    labels = {v: v for v in graph.nodes}
    edges_visited = 0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_labels = {}
        changed = False
        for v in graph.nodes:
            counts: dict[Any, int] = {}
            for w in graph.neighbors(v):
                counts[labels[w]] = counts.get(labels[w], 0) + 1
                edges_visited += 1
            if counts:
                best = max(counts.values())
                new = min(l for l, c in counts.items() if c == best)
            else:
                new = labels[v]
            new_labels[v] = new
            changed = changed or new != labels[v]
        labels = new_labels
        if not changed:
            break
    return AlgorithmResult(
        "cdlp", {v: float(hash(l) % 10**9) if not isinstance(l, (int, float))
                 else float(l) for v, l in labels.items()},
        iterations=iterations, edges_visited=edges_visited)


def lcc(graph: nx.Graph) -> AlgorithmResult:
    """Local clustering coefficient per vertex."""
    values = {}
    edges_visited = 0
    for v in graph.nodes:
        neighbors = list(graph.neighbors(v))
        k = len(neighbors)
        edges_visited += k
        if k < 2:
            values[v] = 0.0
            continue
        links = 0
        neighbor_set = set(neighbors)
        for w in neighbors:
            links += sum(1 for x in graph.neighbors(w) if x in neighbor_set)
            edges_visited += graph.degree(w)
        values[v] = links / (k * (k - 1))
    return AlgorithmResult("lcc", values, iterations=1,
                           edges_visited=edges_visited)


def sssp(graph: nx.Graph, source: Any) -> AlgorithmResult:
    """Single-source shortest paths (Dijkstra over the ``weight`` edge
    attribute; unit weights if absent)."""
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    import heapq
    dist = {v: float("inf") for v in graph.nodes}
    dist[source] = 0.0
    heap = [(0.0, source)]
    edges_visited = 0
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for w in graph.neighbors(u):
            edges_visited += 1
            step = graph[u][w].get("weight", 1.0)
            if d + step < dist[w]:
                dist[w] = d + step
                heapq.heappush(heap, (dist[w], w))
    return AlgorithmResult("sssp", dist, iterations=len(settled),
                           edges_visited=edges_visited)


#: The LDBC Graphalytics suite. Values: (function, needs_source).
ALGORITHMS: dict[str, tuple] = {
    "bfs": (bfs, True),
    "pagerank": (pagerank, False),
    "wcc": (wcc, False),
    "cdlp": (cdlp, False),
    "lcc": (lcc, False),
    "sssp": (sssp, True),
}


def run_algorithm(name: str, graph: nx.Graph) -> AlgorithmResult:
    """Dispatch one kernel; one that needs a source starts from the
    smallest vertex."""
    if name not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; known: "
                       f"{sorted(ALGORITHMS)}")
    fn, needs_source = ALGORITHMS[name]
    if needs_source:
        if graph.number_of_nodes() == 0:
            raise ValueError("empty graph")
        return fn(graph, min(graph.nodes))
    return fn(graph)
