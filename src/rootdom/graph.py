"""Immutable simple graphs and the structural queries the solvers build on.

Vertices are dense integers ``0..n-1``.  The constructor reads the edges
once, building each vertex's neighbour set and open-neighbourhood bitmask
in the same pass.  Graphs are immutable after construction; derived data
(closed-neighbourhood masks, connectivity flag, distance table, geodesic
interval masks, cut vertices, bridges) is computed once on demand and cached
with single-assignment semantics, so instances are safe to share across
concurrent workers.  Connectivity, of the graph and of a vertex subset, is
the kernels' one bitmask BFS restricted to a vertex mask
(``_pykernels.connected_mask``), and the cut vertices and bridges one
depth-first pass, the only place either is computed; only the interval masks
and convexity tests build the all-pairs table.
Vertex-deleted and weakly induced subgraphs share one relabelling path.

Vertex subsets are plain ``frozenset[int]`` throughout the package; the
per-vertex neighbourhoods, interval tables, cut vertices and bridges the
kernels read are integer bitmasks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, NamedTuple

from ._pykernels import connected_mask

#: Sentinel distance for vertex pairs in different components.
UNREACHABLE = -1


class Graph:
    """Undirected simple graph (no loops, no multi-edges) on ``0..n-1``."""

    __slots__ = (
        "n", "m", "_adj", "_open_masks", "_closed_masks", "_connected", "_cut_vertices", "_bridges",
        "_dist", "_intervals",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            adj[u].add(v)
            adj[v].add(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.m = sum(len(a) for a in adj) // 2
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(a) for a in adj)
        self._open_masks: tuple[int, ...] = tuple(masks)
        self._closed_masks: tuple[int, ...] | None = None
        self._connected: bool | None = None
        self._cut_vertices: int | None = None
        self._bridges: tuple[int, ...] | None = None
        self._dist: tuple[tuple[int, ...], ...] | None = None
        self._intervals: tuple[int, ...] | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self._adj[v] | {v}

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def open_masks(self) -> tuple[int, ...]:
        """Per-vertex open-neighborhood bitmasks."""
        return self._open_masks

    def closed_masks(self) -> tuple[int, ...]:
        """Per-vertex closed-neighborhood bitmasks, built on first use: they
        hold about n^2/2 bits, which the tree path never reads."""
        if self._closed_masks is None:
            self._closed_masks = tuple(mask | (1 << v) for v, mask in enumerate(self._open_masks))
        return self._closed_masks

    def cut_vertices(self) -> int:
        """Bitmask of the cut vertices: those whose removal leaves more
        components than the graph has.

        One iterative Tarjan low-link pass over every component: a non-root
        vertex u is a cut vertex when some DFS child's subtree reaches no
        vertex discovered before u, and a DFS root when it has two children.
        The same pass finds the bridges: a tree edge p-v is one when v's
        subtree reaches no vertex discovered at or before p.
        """
        if self._cut_vertices is None:
            order = [0] * self.n  # discovery time, from 1; 0 while unvisited
            low = [0] * self.n
            bridges = [0] * self.n
            time = cut = 0
            for root in range(self.n):
                if order[root]:
                    continue
                time += 1
                order[root] = low[root] = time
                root_children = 0
                stack = [(root, -1, iter(self._adj[root]))]
                while stack:
                    v, parent, todo = stack[-1]
                    for w in todo:
                        if not order[w]:
                            time += 1
                            order[w] = low[w] = time
                            stack.append((w, v, iter(self._adj[w])))
                            break
                        if w != parent and order[w] < low[v]:
                            low[v] = order[w]
                    else:
                        stack.pop()
                        if parent >= 0 and low[v] > order[parent]:
                            bridges[v] |= 1 << parent
                            bridges[parent] |= 1 << v
                        if parent == root:
                            root_children += 1
                        elif parent >= 0:
                            low[parent] = min(low[parent], low[v])
                            if low[v] >= order[parent]:
                                cut |= 1 << parent
                if root_children > 1:
                    cut |= 1 << root
            self._bridges = tuple(bridges)
            self._cut_vertices = cut
        return self._cut_vertices

    def bridges(self) -> tuple[int, ...]:
        """Per-vertex bitmasks of the neighbours across a bridge: bit x of
        entry v is set when vx is an edge whose loss leaves x and v in
        different components.  ``cut_vertices`` finds them, in its one pass."""
        self.cut_vertices()
        return self._bridges

    # -- distances ---------------------------------------------------------

    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs distance table via BFS; ``UNREACHABLE`` across components."""
        if self._dist is None:
            rows = []
            for s in range(self.n):
                dist = [UNREACHABLE] * self.n
                dist[s] = 0
                queue = deque([s])
                while queue:
                    u = queue.popleft()
                    for w in self._adj[u]:
                        if dist[w] == UNREACHABLE:
                            dist[w] = dist[u] + 1
                            queue.append(w)
                rows.append(tuple(dist))
            self._dist = tuple(rows)
        return self._dist

    def interval_masks(self) -> tuple[int, ...]:
        """Geodesic interval bitmasks, flattened to ``n*n`` entries.

        Entry ``u*n + w`` holds the set of vertices lying on some shortest
        u-w path.  Only defined on connected graphs.
        """
        if self._intervals is None:
            if not is_connected(self):
                raise ValueError("geodesic intervals require a connected graph")
            d = self.distances()
            n = self.n
            flat = []
            for u in range(n):
                for w in range(n):
                    duw = d[u][w]
                    mask = 0
                    for x in range(n):
                        if d[u][x] + d[x][w] == duw:
                            mask |= 1 << x
                    flat.append(mask)
            self._intervals = tuple(flat)
        return self._intervals

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_subset(graph: Graph, subset: frozenset[int] | set[int], name: str = "S") -> None:
    for v in subset:
        if not (0 <= v < graph.n):
            raise ValueError(f"{name} contains {v}, not a vertex of a graph of order {graph.n}")


class InducedSubgraph(NamedTuple):
    """A derived graph plus the stable old-id -> new-id relabeling."""

    graph: Graph
    old_to_new: dict[int, int]
    new_to_old: tuple[int, ...]


def _relabelled(keep: list[int], edges: Iterable[tuple[int, int]]) -> InducedSubgraph:
    """``keep`` (increasing old ids) renumbered from 0, with the ``edges`` that stay inside it."""
    old_to_new = {v: i for i, v in enumerate(keep)}
    kept = [
        (old_to_new[u], old_to_new[v]) for u, v in edges if u in old_to_new and v in old_to_new
    ]
    return InducedSubgraph(Graph(len(keep), kept), old_to_new, tuple(keep))


def delete_vertices(graph: Graph, removed: frozenset[int] | set[int]) -> InducedSubgraph:
    """Induced subgraph on ``V - removed``, with the id relabeling exposed."""
    _check_subset(graph, removed, "removed")
    keep = [v for v in range(graph.n) if v not in removed]
    if not keep:
        raise ValueError("deleting every vertex leaves the empty graph, which is not supported")
    return _relabelled(keep, graph.edges())


def is_connected(graph: Graph) -> bool:
    """One bitmask BFS from vertex 0; the empty graph is not connected."""
    if graph._connected is None:
        graph._connected = graph.n > 0 and connected_mask((1 << graph.n) - 1, graph.open_masks())
    return graph._connected


def is_connected_subset(graph: Graph, subset: frozenset[int] | set[int]) -> bool:
    """True iff the subgraph induced by ``subset`` is connected."""
    if not subset:
        raise ValueError("connectivity of the empty set is undefined")
    _check_subset(graph, subset)
    mask = 0
    for v in subset:
        mask |= 1 << v
    return connected_mask(mask, graph.open_masks())


def is_convex_set(graph: Graph, subset: frozenset[int] | set[int]) -> bool:
    """Geodesic convexity: every shortest path between members stays inside.

    Requires a connected host graph; the empty set and singletons are convex.
    """
    if not is_connected(graph):
        raise ValueError("convexity is only defined here on connected graphs")
    _check_subset(graph, subset)
    members = sorted(subset)
    if len(members) <= 1:
        return True
    d = graph.distances()
    outside = [x for x in range(graph.n) if x not in subset]
    for i, u in enumerate(members):
        for w in members[i + 1 :]:
            duw = d[u][w]
            for x in outside:
                if d[u][x] + d[x][w] == duw:
                    return False
    return True


def weakly_induced_subgraph(
    graph: Graph, dominators: frozenset[int] | set[int]
) -> InducedSubgraph:
    """Subgraph on ``N[D]`` keeping exactly the edges with an endpoint in ``D``."""
    if not dominators:
        raise ValueError("the weakly induced subgraph of the empty set is undefined")
    _check_subset(graph, dominators, "D")
    closed = set(dominators)
    for v in dominators:
        closed |= graph.neighbors(v)
    edges = [(u, v) for u, v in graph.edges() if u in dominators or v in dominators]
    return _relabelled(sorted(closed), edges)


def leaves(graph: Graph) -> frozenset[int]:
    """Vertices of degree one."""
    return frozenset(v for v in range(graph.n) if graph.degree(v) == 1)


def support_vertices(graph: Graph) -> frozenset[int]:
    """Vertices adjacent to at least one leaf."""
    leaf_set = leaves(graph)
    return frozenset(
        v for v in range(graph.n) if any(u in leaf_set for u in graph.neighbors(v))
    )


def is_tree(graph: Graph) -> bool:
    return graph.n >= 1 and graph.m == graph.n - 1 and is_connected(graph)


def private_neighbor_set(
    graph: Graph,
    dominators: frozenset[int] | set[int],
    v: int,
    *,
    closed_subtrahend: bool = False,
) -> frozenset[int]:
    """Private neighbors of ``v`` with respect to ``dominators``.

    Default form subtracts the union of *open* neighborhoods of the other
    set members: ``N[v] - union(N(u) for u in D - {v})``.  With
    ``closed_subtrahend=True`` the other members themselves are subtracted
    too, which is equivalent to keeping exactly the ``x`` with
    ``N[x] & D == {v}``.  The two variants differ whenever ``v`` is adjacent
    to another member, so both are exposed for comparison.
    """
    _check_subset(graph, dominators, "D")
    if v not in dominators:
        raise ValueError(f"vertex {v} is not a member of the dominating set")
    result = set(graph.closed_neighborhood(v))
    for u in dominators:
        if u == v:
            continue
        result -= graph.neighbors(u)
        if closed_subtrahend:
            result.discard(u)
    return frozenset(result)


# -- shared edge-list file format -----------------------------------------


#: A test of the declared order and the edge list, run before the graph is built.
EdgeListCheck = Callable[[int, list[tuple[int, int]]], None]


def parse_edge_list(
    text: str, source: str = "<string>", check: EdgeListCheck | None = None
) -> tuple[Graph, int | None]:
    """Parse the shared edge-list format.

    Line 1 is ``n m``, followed by ``m`` lines ``u v`` (0-based ids).
    ``#`` starts a comment, blank lines are ignored.  A comment of the form
    ``# root k``, whose first word is exactly ``root`` and whose k is an
    optional ``-`` and ASCII digits, marks a root vertex; it is returned
    alongside the graph.  Any other comment is ignored.  ``check``, when
    given, is called with the order and the edges before the graph is built,
    so it can refuse an order too large to allocate.
    """
    root: int | None = None
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)
        comment = line[1].strip() if len(line) > 1 else ""
        body = line[0].strip()
        parts = comment.split()
        digits = parts[1].removeprefix("-") if len(parts) == 2 and parts[0] == "root" else ""
        if digits.isascii() and digits.isdigit():
            root = int(parts[1])
        if not body:
            continue
        fields = body.split()
        if len(fields) != 2:
            raise ValueError(f"{source}:{lineno}: expected two integers, got {body!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: expected two integers, got {body!r}") from None
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise ValueError(f"{source}:1: missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"{source}: header declares {m} edges but {len(edges)} were given")
    if check is not None:
        check(n, edges)
    try:
        graph = Graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    if root is not None and not (0 <= root < n):
        raise ValueError(f"{source}: root {root} out of range for order {n}")
    return graph, root


def read_edge_list(path: str, check: EdgeListCheck | None = None) -> tuple[Graph, int | None]:
    with open(path, encoding="utf-8") as handle:
        return parse_edge_list(handle.read(), source=path, check=check)


def format_edge_list(graph: Graph, root: int | None = None) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    if root is not None:
        lines.append(f"# root {root}")
    return "\n".join(lines) + "\n"

