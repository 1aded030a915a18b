"""Exact dynamic programming on trees, at any order.

Covers minimum independent dominating sets and minimum connected dominating
sets.  On trees geodesics are unique, so a set is convex exactly when it
induces a connected subgraph; the connected-domination routine therefore
doubles as the convex-domination solver on trees.

``solvers.value()`` (and through it the theorem harness) uses these
routines on every tree, at every order; ``solvers.solve()`` uses them only
past the subset-scan budget, because their witnesses are reconstructed by
deterministic backtracking (fixed traversal and tie preferences) -- repeated
runs agree bit for bit, but unlike the scan engine they are not guaranteed
to be the lexicographically smallest optimum.
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

    Rooted at a leaf; a selected vertex needs every child with grandchildren
    selected too, while childless children may be left out (the parent
    dominates them).  The topmost selected vertex is either the leaf root or
    its unique child.
    """
    if not is_tree(graph):
        raise ValueError("tree DP called on a non-tree")
    n = graph.n
    if n == 1:
        return 1, frozenset({0})
    if n == 2:
        return 1, frozenset({0})
    root = min(v for v in range(n) if graph.degree(v) == 1)
    order, children = _rooted_orientation(graph, root)

    dp_in = [0] * n
    for v in reversed(order):
        total = 1
        for c in children[v]:
            if children[c]:
                total += dp_in[c]
        dp_in[v] = total

    child0 = children[root][0]
    top = child0 if dp_in[child0] <= dp_in[root] else root
    selected: set[int] = set()
    stack = [top]
    while stack:
        v = stack.pop()
        selected.add(v)
        for c in children[v]:
            if children[c]:
                stack.append(c)
    return dp_in[top], frozenset(selected)
