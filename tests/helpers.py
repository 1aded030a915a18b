"""Shared generators for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, product

from rootdom import _pykernels
from rootdom.graph import Graph


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p), possibly disconnected."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def labelled_graphs(n: int):
    """Every labelled graph on the vertices 0..n-1, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for chosen in product((False, True), repeat=len(pairs)):
        yield Graph(n, [e for e, take in zip(pairs, chosen) if take])


def kind_table(graph: Graph, kind: int):
    """The table a subset scan of kernel kind code ``kind`` reads: the
    interval masks for convex, the bridges for weakly, None otherwise."""
    if kind == _pykernels.KIND_CONVEX_DOMINATING:
        return graph.interval_masks()
    if kind == _pykernels.KIND_WEAKLY_CONNECTED_DOMINATING:
        return graph.bridges()
    return None


def ladder_graph(rungs: int) -> Graph:
    """Two paths 0..rungs-1 and rungs..2*rungs-1 joined rung by rung."""
    edges = [(i, i + rungs) for i in range(rungs)]
    edges += [(i, i + 1) for i in range(rungs - 1)]
    edges += [(i + rungs, i + rungs + 1) for i in range(rungs - 1)]
    return Graph(2 * rungs, edges)


def tree_shape(tree: Graph) -> str:
    """Isomorphism-invariant code of a tree: the AHU encoding from its centre."""
    degree = [tree.degree(v) for v in range(tree.n)]
    layer = [v for v in range(tree.n) if degree[v] <= 1]
    remaining = tree.n
    while remaining > 2:
        remaining -= len(layer)
        peeled = []
        for v in layer:
            for w in tree.neighbors(v):
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled

    def encode(v: int, parent: int) -> str:
        return "(" + "".join(sorted(encode(w, v) for w in tree.neighbors(v) if w != parent)) + ")"

    return min(encode(centre, -1) for centre in layer)
