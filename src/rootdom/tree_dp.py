"""Exact minimum independent and connected dominating sets of trees, at
any order.

Independent domination is a dynamic program over one breadth-first parent
array from vertex 0, with neighbours visited in increasing order: one sweep
up adds three root-state costs per vertex into its parent's, and one sweep
down reads each vertex's state off its parent's.  Connected domination
needs none: the non-leaves are the optimum.  On trees geodesics are
unique, so a set is convex exactly when it induces a connected subgraph,
and the connected routine doubles as the convex-domination solver on trees.

``solvers.value()`` (and through it the theorem harness) uses these
routines on every tree, at every order; ``solvers.solve()`` uses them only
past the subset-scan budget.  There the connected witness is the
lexicographically smallest optimum, as the scan's is: from order 3 on it is
the only one, and below that it is ``{0}``.  The independent witness is
a function of the graph alone (fixed traversal and tie preferences):
repeated runs agree bit for bit, but it carries no lexicographic promise.
"""

from __future__ import annotations

from .graph import Graph, is_tree, vertices_of

_INF = 1 << 40


def tree_independent_domination(graph: Graph) -> tuple[int, frozenset[int]]:
    """Minimum independent dominating set of a tree: ``(size, witness)``.

    Three costs per subtree, by the state of its top vertex: selected;
    unselected and dominated by a child; unselected and left to the parent.
    One sweep up, in reverse breadth-first order, adds each vertex's costs
    into its parent's, and the least extra cost of selecting a child.  One
    sweep down reads each vertex's state off its parent's.
    """
    if not is_tree(graph):
        raise ValueError("tree DP called on a non-tree")
    n, masks = graph.n, graph.open_masks()
    parent = [-1] * n
    order = [0]
    for u in order:
        for w in vertices_of(masks[u]):
            if w != parent[u]:
                parent[w] = u
                order.append(w)

    sel = [1] * n  # selected: its children are not
    dom = [0] * n  # unselected, dominated by a child; sum of min(sel, dom) until v's turn
    wait = [0] * n  # unselected, left to the parent: its children are not selected
    gap = [_INF] * n  # least sel - dom over the children
    for v in reversed(order):
        dom[v] += max(gap[v], 0)  # some child must be selected: the cheapest extra cost
        p = parent[v]
        if p < 0:
            break
        sel[p] += min(dom[v], wait[v])
        dom[p] += min(sel[v], dom[v])
        wait[p] += dom[v]
        gap[p] = min(gap[p], sel[v] - dom[v])

    # Each vertex's state is named by its cost table: sel, dom or wait.  A
    # vertex in state dom has a child with sel <= dom, which takes sel: one
    # whose children all have sel > dom has sel <= dom and dom > wait itself,
    # and a wait vertex's children all have sel > dom, so no branch below
    # gives it dom.
    state = [sel if sel[0] <= dom[0] else dom] * n
    for v in order[1:]:
        up = state[parent[v]]
        if up is sel:
            state[v] = dom if dom[v] <= wait[v] else wait
        elif up is dom:
            state[v] = sel if sel[v] <= dom[v] else dom
        else:
            state[v] = dom
    return min(sel[0], dom[0]), frozenset(v for v in order if state[v] is sel)


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
