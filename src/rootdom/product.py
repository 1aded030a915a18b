"""Rooted product construction with a full provenance map.

The product of a base graph G (order n) and a rooted graph H (order h, root
r) identifies vertex i of G with the root of the i-th copy of H.  Vertex
numbering is one formula, stated by ``RootedProduct.copy_vertex``: vertex v
of H in copy i has the id ``i`` when v is the root, and otherwise
``n + i*(h-1) + v - (v > r)``.  So base vertex i is id ``i``, and the
non-root vertices of copy i fill the block ``n + i*(h-1) .. n + (i+1)*(h-1) - 1``
in increasing H-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class RootedGraph:
    """A graph together with its designated root vertex."""

    graph: Graph
    root: int

    def __post_init__(self) -> None:
        if self.graph.n < 2:
            raise ValueError("rooted factors must have at least two vertices")
        if not (0 <= self.root < self.graph.n):
            raise ValueError(f"root {self.root} out of range for order {self.graph.n}")

    @property
    def n(self) -> int:
        return self.graph.n


class RootedProduct:
    """The product graph plus the (copy, H-vertex) -> product-id bookkeeping."""

    __slots__ = ("product", "base", "rooted")

    def __init__(self, base: Graph, rooted: RootedGraph):
        if base.n < 2:
            raise ValueError("the base factor must have at least two vertices")
        self.base = base
        self.rooted = rooted
        h_edges = rooted.graph.edges()
        edges = base.edges()
        for i in range(base.n):
            ids = [self.copy_vertex(i, v) for v in range(rooted.n)]
            edges += [(ids[u], ids[v]) for u, v in h_edges]
        self.product = Graph(base.n * rooted.n, edges)

    def copy_vertex(self, i: int, h_vertex: int) -> int:
        """Product id of vertex ``h_vertex`` of H inside copy ``i``."""
        if not (0 <= i < self.base.n):
            raise ValueError(f"copy index {i} out of range")
        h, root = self.rooted.n, self.rooted.root
        if not (0 <= h_vertex < h):
            raise ValueError(f"H-vertex {h_vertex} out of range for order {h}")
        if h_vertex == root:
            return i
        return self.base.n + i * (h - 1) + h_vertex - (h_vertex > root)

    def copy_vertex_sets(self) -> list[frozenset[int]]:
        """The vertex set of each copy of H, as product ids."""
        return [
            frozenset(self.copy_vertex(i, v) for v in range(self.rooted.n))
            for i in range(self.base.n)
        ]


def rooted_product(base: Graph, rooted: RootedGraph) -> RootedProduct:
    """Construct G o H; both factors need order at least two."""
    return RootedProduct(base, rooted)
