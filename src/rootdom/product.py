"""Rooted product construction with a full provenance map.

The product of a base graph G (order n) and a rooted graph H identifies
vertex i of G with the root of the i-th copy of H.  Vertex numbering is
deterministic: base vertices come first as ``0..n-1`` (each doubling as the
root of its copy), then the non-root vertices of copy i occupy the block
``n + i*(h-1) .. n + (i+1)*(h-1) - 1`` in increasing H-id order.
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

    __slots__ = ("product", "base", "rooted", "_non_root_rank")

    def __init__(self, base: Graph, rooted: RootedGraph):
        if base.n < 2:
            raise ValueError("the base factor must have at least two vertices")
        self.base = base
        self.rooted = rooted
        h = rooted.graph
        non_root = [v for v in range(h.n) if v != rooted.root]
        self._non_root_rank = {v: i for i, v in enumerate(non_root)}

        edges = list(base.edges())
        for i in range(base.n):
            for u, v in h.edges():
                edges.append((self.copy_vertex(i, u), self.copy_vertex(i, v)))
        self.product = Graph(base.n * h.n, edges)

    def base_vertex(self, i: int) -> int:
        """Product id of base vertex ``i`` (the identified root of copy ``i``)."""
        if not (0 <= i < self.base.n):
            raise ValueError(f"base index {i} out of range")
        return i

    def copy_vertex(self, i: int, h_vertex: int) -> int:
        """Product id of vertex ``h_vertex`` of H inside copy ``i``."""
        if not (0 <= i < self.base.n):
            raise ValueError(f"copy index {i} out of range")
        if h_vertex == self.rooted.root:
            return i
        rank = self._non_root_rank[h_vertex]
        return self.base.n + i * (self.rooted.n - 1) + rank

    def copy_vertex_sets(self) -> list[frozenset[int]]:
        """The vertex set of each copy of H, as product ids."""
        return [
            frozenset(self.copy_vertex(i, v) for v in range(self.rooted.n))
            for i in range(self.base.n)
        ]


def rooted_product(base: Graph, rooted: RootedGraph) -> RootedProduct:
    """Construct G o H; both factors need order at least two."""
    return RootedProduct(base, rooted)
