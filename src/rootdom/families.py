"""Seeded, deterministic generators for the graph families under study.

The same arguments with the same seed always yield a bit-identical edge list.
Random labeled trees come from Pruefer-sequence decoding (uniform over
labeled trees); random connected graphs from rejection-sampled G(n, p).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .graph import Graph, is_connected
from .product import RootedGraph

_MASK64 = (1 << 64) - 1


def child_seed(seed: int, index: int) -> int:
    """Derive the ``index``-th child seed with a SplitMix64 step.

    This is the documented splitting rule for concurrent generation:
    workers use ``child_seed(campaign_seed, job_index)`` so streams never
    overlap while staying reproducible.
    """
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"paths need order >= 2, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycles need order >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(m: int) -> RootedGraph:
    """Star with ``m`` leaves, rooted at the center (vertex 0)."""
    if m < 2:
        raise ValueError(f"stars need at least 2 leaves, got {m}")
    return RootedGraph(Graph(m + 1, [(0, i) for i in range(1, m + 1)]), root=0)


def subdivided_star_graph(m: int) -> RootedGraph:
    """Star with ``m`` leaves and one edge subdivided.

    Layout: center 0, untouched leaves ``1..m-1``, subdivision vertex ``m``,
    far end ``m+1``.  Rooted at the far end, the vertex at distance two from
    the center.
    """
    if m < 2:
        raise ValueError(f"subdivided stars need at least 2 leaves, got {m}")
    edges = [(0, i) for i in range(1, m)] + [(0, m), (m, m + 1)]
    return RootedGraph(Graph(m + 2, edges), root=m + 1)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graphs need order >= 1, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"empty graphs need order >= 1, got {n}")
    return Graph(n, [])


def prufer_tree(seq: Sequence[int]) -> Graph:
    """The labelled tree on ``len(seq) + 2`` vertices with Pruefer sequence ``seq``."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree: the Pruefer tree of n - 2 seeded draws."""
    if n < 2:
        raise ValueError(f"random trees need order >= 2, got {n}")
    rng = random.Random(seed)
    return prufer_tree([rng.randrange(n) for _ in range(n - 2)])


#: Samples ``random_connected_graph`` draws before it gives up.
_MAX_ATTEMPTS = 1000


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Rejection-sample G(n, p) until connected; ``ValueError`` after the cap."""
    if n < 2:
        raise ValueError(f"random connected graphs need order >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        graph = Graph(n, edges)
        if is_connected(graph):
            return graph
    raise ValueError(
        f"no connected G({n}, {p}) sample after {_MAX_ATTEMPTS} attempts"
    )
