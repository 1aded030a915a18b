"""Naive reference enumerators: the one correctness referee.

Every routine scans its full search space with set arithmetic and explicit
definitions over vertex tuples, no pruning and no early exit, independent
of the bitmask kernels: its search algorithms are its own.  It reads the
graph through ``neighbors`` and ``edges``, which ``Graph`` decodes from
its one adjacency, the open masks the kernels read too;
``tests/test_graph.py``'s construction tests hold those queries to plain
sets built from the raw edge list, up to order 200.  Only sensible at desk
scale (n around 10, 3^n for Roman).  ``naive_sets`` lists every feasible
set of a set parameter, by size then lexicographically, and
``naive_roman_weights`` the weight of the forced completion of every
Roman 2-set; ``naive_value`` reads a value off the first, and
``naive_roman`` scans all 3^n labelings.  ``tests/test_referee.py`` holds
to these listings ``solve()`` and ``enumerate_optimal()``, and both kernel
backends on each call that these, ``classify_root()`` and
``product_value()`` make on its graphs.

The set-level predicates are the public ones the witness checks use:
``solvers.is_dominating``, ``is_independent`` and ``is_super_dominating``.
Three are the referee's own.  Connectivity is a search over
``graph.neighbors``, because ``graph.is_connected_subset`` runs the
kernels' own bitmask BFS, which the referee must not share.  Convexity
(``naive_convex``) reads distances from a Floyd-Warshall
(``naive_distances``), because the convex kernel's interval masks come
from the graph's BFS distance table; the tests also
hold ``is_convex_set`` and the ``Graph`` tables ``distances``,
``interval_masks``, ``cut_vertices`` and ``bridges`` to these two.  Weak
connectivity is a direct search over N[S], because the public form
(``weakly_induced_subgraph`` plus ``is_connected``) builds a ``Graph`` for
every subset.
"""

from __future__ import annotations

from itertools import combinations, product

from .graph import UNREACHABLE, Graph
from .solvers import is_dominating, is_independent, is_super_dominating

_FAR = 1 << 30


def _all_subsets(vertices):
    for k in range(len(vertices) + 1):
        yield from combinations(vertices, k)


def naive_distances(graph: Graph) -> list[list[int]]:
    """All-pairs distances by Floyd-Warshall; ``UNREACHABLE`` across
    components, as in ``Graph.distances``."""
    n = graph.n
    dist = [[0 if u == v else _FAR for v in range(n)] for u in range(n)]
    for u, v in graph.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for u in range(n):
            du = dist[u]
            via = du[k]
            if via >= _FAR:
                continue
            for v in range(n):
                alt = via + dk[v]
                if alt < du[v]:
                    du[v] = alt
    return [[d if d < _FAR else UNREACHABLE for d in row] for row in dist]


def naive_convex(graph: Graph, sub: set[int], dist: list[list[int]]) -> bool:
    """Whether no vertex outside ``sub`` lies on a shortest path between two
    members, in a connected ``graph`` whose ``naive_distances`` are ``dist``."""
    members = sorted(sub)
    for i, u in enumerate(members):
        for w in members[i + 1 :]:
            for x in range(graph.n):
                if x in sub:
                    continue
                if dist[u][x] + dist[x][w] == dist[u][w]:
                    return False
    return True


def _connected(graph: Graph, sub: set[int]) -> bool:
    start = min(sub)
    seen = {start}
    todo = [start]
    while todo:
        for w in graph.neighbors(todo.pop()) & sub:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen == sub


def _weakly_connected(graph: Graph, sub: set[int]) -> bool:
    closed = set(sub)
    for v in sub:
        closed |= graph.neighbors(v)
    if not closed:
        return False
    start = next(iter(sorted(closed)))
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for w in graph.neighbors(u):
            if (u in sub or w in sub) and w in closed and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen == closed


def _accepts(graph: Graph, kind: str):
    """The feasibility test of the set parameter ``kind`` on a vertex set."""
    if kind == "gamma":
        return lambda s: is_dominating(graph, s)
    if kind == "alpha":
        return lambda s: is_independent(graph, s)
    if kind == "i":
        return lambda s: is_dominating(graph, s) and is_independent(graph, s)
    if kind == "connected":
        return lambda s: is_dominating(graph, s) and bool(s) and _connected(graph, s)
    if kind == "convex":
        # Convexity is only defined on connected hosts.
        dist = naive_distances(graph)
        connected = all(UNREACHABLE not in row for row in dist)
        return lambda s: connected and is_dominating(graph, s) and naive_convex(graph, s, dist)
    if kind == "weakly":
        return lambda s: is_dominating(graph, s) and bool(s) and _weakly_connected(graph, s)
    if kind == "super":
        return lambda s: is_super_dominating(graph, s)
    raise ValueError(f"unknown set parameter name {kind!r}")


def naive_sets(
    graph: Graph, kind: str, holding: frozenset[int] = frozenset(), missing: frozenset[int] = frozenset()
) -> list[int]:
    """Every feasible subset of ``kind`` that holds the vertices ``holding``
    and misses ``missing``, as a vertex mask, by size, then lexicographically
    by sorted vertex tuple; the empty set too where it is feasible (alpha).
    Adding ``holding`` to two sets of free vertices of one size keeps their
    order, so the listing needs no sort.

    ``kind`` is one of gamma, alpha, i, connected, convex, weakly, super (the
    CLI parameter names of the set parameters).
    """
    accepts = _accepts(graph, kind)
    free = [v for v in range(graph.n) if v not in holding and v not in missing]
    chosen = (holding.union(sub) for sub in _all_subsets(free))
    return [sum(1 << v for v in s) for s in chosen if accepts(s)]


def naive_value(graph: Graph, kind: str) -> int | None:
    """Exact parameter value by full unpruned enumeration; None if infeasible.

    ``kind`` is one of gamma, alpha, i, roman, connected, convex, weakly,
    super (the CLI parameter names): Roman from ``naive_roman``, every other
    kind the least (for alpha the largest) size ``naive_sets`` lists.
    """
    if kind == "roman":
        return naive_roman(graph)
    feasible = naive_sets(graph, kind)
    if not feasible:
        return None
    return (feasible[-1] if kind == "alpha" else feasible[0]).bit_count()


def naive_roman_weights(graph: Graph) -> list[int]:
    """``weights[b2]``: the weight 2|B2| + n - |N[B2]| of the cheapest Roman
    assignment with 2-set B2, which labels the vertices outside N[B2] with 1,
    for every vertex mask b2."""
    n = graph.n
    weights = [0] * (1 << n)
    for b2 in _all_subsets(range(n)):
        covered = set(b2).union(*(graph.neighbors(v) for v in b2))
        weights[sum(1 << v for v in b2)] = 2 * len(b2) + n - len(covered)
    return weights


def naive_roman(graph: Graph) -> int:
    """Minimum Roman weight by scanning all 3^n labelings."""
    n = graph.n
    neighbours = [graph.neighbors(v) for v in range(n)]
    return min(
        sum(labels)
        for labels in product((0, 1, 2), repeat=n)
        if all(labels[v] or any(labels[u] == 2 for u in neighbours[v]) for v in range(n))
    )
