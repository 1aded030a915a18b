"""Exact minimum independent and connected dominating sets of trees, at
any order.

Independent domination is a dynamic program.  Connected domination needs
none: the non-leaves are the optimum.  On trees geodesics are unique, so a
set is convex exactly when it induces a connected subgraph, and the
connected routine doubles as the convex-domination solver on trees.

``solvers.value()`` (and through it the theorem harness) uses these
routines on every tree, at every order; ``solvers.solve()`` uses them only
past the subset-scan budget.  There the connected witness is the
lexicographically smallest optimum, as the scan's is: from order 3 on it is
the only one, and below that it is ``{0}``.  The independent witness is
rebuilt by deterministic backtracking (fixed traversal and tie
preferences): repeated runs agree bit for bit, but it carries no
lexicographic promise.
"""

from __future__ import annotations

from .graph import Graph, is_tree

_INF = 1 << 40


def _rooted_orientation(graph: Graph, root: int):
    parent = [-1] * graph.n
    order = [root]
    seen = {root}
    for u in order:
        for w in sorted(graph.neighbors(u)):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
    children: list[list[int]] = [[] for _ in range(graph.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    return order, children


def tree_independent_domination(graph: Graph) -> tuple[int, frozenset[int]]:
    """Minimum independent dominating set of a tree: ``(size, witness)``.

    Per-vertex states: selected; unselected with a selected child;
    unselected and waiting for the parent to dominate it.
    """
    if not is_tree(graph):
        raise ValueError("tree DP called on a non-tree")
    n = graph.n
    if n == 1:
        return 1, frozenset({0})
    root = 0
    order, children = _rooted_orientation(graph, root)

    dp = [[0, 0, 0] for _ in range(n)]
    for v in reversed(order):
        ch = children[v]
        if not ch:
            dp[v][0] = 1
            dp[v][1] = _INF
            dp[v][2] = 0
            continue
        dp[v][0] = 1 + sum(min(dp[c][1], dp[c][2]) for c in ch)
        base = sum(min(dp[c][0], dp[c][1]) for c in ch)
        if any(dp[c][0] <= dp[c][1] for c in ch):
            dp[v][1] = base
        else:
            dp[v][1] = base + min(dp[c][0] - dp[c][1] for c in ch)
        dp[v][2] = sum(dp[c][1] for c in ch)

    value = min(dp[root][0], dp[root][1])
    selected: set[int] = set()
    stack = [(root, 0 if dp[root][0] <= dp[root][1] else 1)]
    while stack:
        v, state = stack.pop()
        ch = children[v]
        if state == 0:
            selected.add(v)
            for c in ch:
                stack.append((c, 1 if dp[c][1] <= dp[c][2] else 2))
        elif state == 1:
            states = {c: (0 if dp[c][0] <= dp[c][1] else 1) for c in ch}
            if 0 not in states.values():
                forced = min(ch, key=lambda c: (dp[c][0] - dp[c][1], c))
                states[forced] = 0
            for c in ch:
                stack.append((c, states[c]))
        else:
            for c in ch:
                stack.append((c, 1))
    return value, frozenset(selected)


def tree_connected_domination(graph: Graph) -> tuple[int, frozenset[int]]:
    """Minimum connected dominating set of a tree: ``(size, witness)``.

    From order 3 on, the non-leaves are the one optimum.  Each of them is a
    cut vertex, and a connected dominating set holds every cut vertex (one
    without cut vertex v lies inside one component of T - v and leaves the
    others undominated).  The non-leaves also dominate every leaf and induce
    a subtree, so nothing more is needed.  The same set is the one minimum
    convex dominating set, since on a tree convex means connected.
    """
    if not is_tree(graph):
        raise ValueError("tree DP called on a non-tree")
    if graph.n <= 2:
        return 1, frozenset({0})
    inner = frozenset(v for v in range(graph.n) if graph.degree(v) > 1)
    return len(inner), inner
