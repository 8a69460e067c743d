"""Dataset generators and their PAD-relevant properties."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import networkx as nx
import numpy as np


@dataclass(frozen=True)
class DatasetProperties:
    """The structural properties that make the 'D' of PAD matter."""

    name: str
    n_vertices: int
    n_edges: int
    max_degree: int
    mean_degree: float
    #: Degree skew: max/mean degree. Power-law graphs score high; this is
    #: what breaks GPU-style regular-parallel platforms ([109]).
    degree_skew: float
    clustering: float


def dataset_properties(name: str, graph: nx.Graph) -> DatasetProperties:
    degrees = [d for _, d in graph.degree()]
    mean_degree = float(np.mean(degrees)) if degrees else 0.0
    max_degree = max(degrees) if degrees else 0
    return DatasetProperties(
        name=name,
        n_vertices=graph.number_of_nodes(),
        n_edges=graph.number_of_edges(),
        max_degree=max_degree,
        mean_degree=mean_degree,
        degree_skew=max_degree / mean_degree if mean_degree else 0.0,
        clustering=float(nx.average_clustering(graph))
        if graph.number_of_nodes() else 0.0,
    )


def _scale_free(n: int, rng: np.random.Generator) -> nx.Graph:
    """Barabási-Albert: the social-network-like, heavily skewed dataset."""
    return nx.barabasi_albert_graph(n, m=3, seed=int(rng.integers(2**31)))


def _small_world(n: int, rng: np.random.Generator) -> nx.Graph:
    """Watts-Strogatz: high clustering, low skew."""
    return nx.watts_strogatz_graph(n, k=6, p=0.1,
                                   seed=int(rng.integers(2**31)))


def _road(n: int, rng: np.random.Generator) -> nx.Graph:
    """Grid-like road network: regular degrees, huge diameter."""
    side = max(2, int(np.sqrt(n)))
    graph = nx.grid_2d_graph(side, side)
    return nx.convert_node_labels_to_integers(graph)


def _random_uniform(n: int, rng: np.random.Generator) -> nx.Graph:
    """Erdős–Rényi with mean degree ~6: no structure at all."""
    p = min(1.0, 6.0 / max(n - 1, 1))
    return nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))


DATASET_GENERATORS: dict[str, Callable[[int, np.random.Generator],
                                       nx.Graph]] = {
    "scale-free": _scale_free,
    "small-world": _small_world,
    "road": _road,
    "random": _random_uniform,
}


def make_dataset(name: str, n_vertices: int,
                 rng: np.random.Generator,
                 weighted: bool = False) -> nx.Graph:
    """Generate a dataset; optionally attach uniform(1,10) edge weights
    (needed by SSSP)."""
    if name not in DATASET_GENERATORS:
        raise KeyError(f"unknown dataset family {name!r}; known: "
                       f"{sorted(DATASET_GENERATORS)}")
    if n_vertices < 4:
        raise ValueError("n_vertices must be >= 4")
    graph = DATASET_GENERATORS[name](n_vertices, rng)
    if weighted:
        for u, v in graph.edges:
            graph[u][v]["weight"] = float(rng.uniform(1.0, 10.0))
    return graph
