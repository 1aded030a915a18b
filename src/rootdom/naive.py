"""Naive reference enumerators: the in-tree correctness referee.

Every routine scans its full search space with set arithmetic and explicit
definitions, no pruning and no early exit, independent of the bitmask
kernels.  Only sensible at desk scale (n around 8, 3^n for Roman).

The set-level predicates are the public ones the witness checks use:
``solvers.is_dominating``, ``is_independent`` and ``is_super_dominating``.
Three stay local.  Connectivity is a search over ``graph.neighbors``,
because ``graph.is_connected_subset`` runs the kernels' own bitmask BFS on
the neighbourhood masks the kernels read, which the referee must not share.
Convexity reads distances from a local Floyd-Warshall, because the convex
kernel's interval masks come from the graph's BFS distance table.  Weak
connectivity is a direct search over N[S], because the public form
(``weakly_induced_subgraph`` plus ``is_connected``) builds a ``Graph`` for
every subset.
"""

from __future__ import annotations

from itertools import combinations, product

from .graph import Graph
from .solvers import is_dominating, is_independent, is_super_dominating

_FAR = 1 << 30


def _all_subsets(n: int):
    for k in range(n + 1):
        yield from combinations(range(n), k)


def _floyd_warshall(graph: Graph) -> list[list[int]]:
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
    return dist


def _convex(graph: Graph, sub: set[int], dist: list[list[int]]) -> bool:
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


def naive_value(graph: Graph, kind: str) -> int | None:
    """Exact parameter value by full unpruned enumeration; None if infeasible.

    ``kind`` is one of gamma, alpha, i, roman, connected, convex, weakly,
    super (the CLI parameter names).
    """
    n = graph.n
    if kind == "roman":
        return naive_roman(graph)
    if kind == "alpha":
        best = -1
        for sub in _all_subsets(n):
            s = set(sub)
            if is_independent(graph, s) and len(s) > best:
                best = len(s)
        return best

    dist = None
    if kind == "convex":
        # Convexity is only defined on connected hosts.
        dist = _floyd_warshall(graph)
        if any(d >= _FAR for row in dist for d in row):
            return None
    best: int | None = None
    for sub in _all_subsets(n):
        s = set(sub)
        if kind == "gamma":
            ok = is_dominating(graph, s)
        elif kind == "i":
            ok = is_dominating(graph, s) and is_independent(graph, s)
        elif kind == "connected":
            ok = is_dominating(graph, s) and bool(s) and _connected(graph, s)
        elif kind == "convex":
            ok = is_dominating(graph, s) and _convex(graph, s, dist)
        elif kind == "weakly":
            ok = is_dominating(graph, s) and bool(s) and _weakly_connected(graph, s)
        elif kind == "super":
            ok = is_super_dominating(graph, s)
        else:
            raise ValueError(f"unknown parameter name {kind!r}")
        if ok and (best is None or len(s) < best):
            best = len(s)
    return best


def naive_roman(graph: Graph) -> int:
    """Minimum Roman weight by scanning all 3^n labelings."""
    n = graph.n
    best = None
    for labels in product((0, 1, 2), repeat=n):
        ok = all(
            labels[v] != 0 or any(labels[u] == 2 for u in graph.neighbors(v))
            for v in range(n)
        )
        if ok:
            weight = sum(labels)
            if best is None or weight < best:
                best = weight
    return best if best is not None else 0
