"""``Graph.bridges()``: the table the weakly scans' bridge cut reads.

An edge with both ends out of S lies in no weak subgraph of S, and a weak
subgraph without a bridge of G is disconnected, so the scans drop every set
that leaves both ends of a bridge out.  Here the table is held to the
removal of each edge in turn; ``test_referee`` holds the weakly scans that
read it to the prune-free referee.
"""

import random
from itertools import combinations

from helpers import labelled_graphs, random_gnp
from rootdom.families import cycle_graph, path_graph
from rootdom.graph import UNREACHABLE, Graph
from rootdom.naive import naive_distances


def _bridges(graph):
    """The bridges of ``graph`` as sorted pairs, read off its table."""
    table = graph.bridges()
    return {(u, v) for u in range(graph.n) for v in range(u + 1, graph.n) if table[u] >> v & 1}


def test_every_edge_of_a_path_is_a_bridge():
    assert _bridges(path_graph(6)) == {(v, v + 1) for v in range(5)}


def test_a_cycle_has_no_bridge():
    assert _bridges(cycle_graph(6)) == set()


def test_two_triangles_joined_by_one_edge_have_that_bridge():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    assert _bridges(Graph(6, edges)) == {(2, 3)}


def _check_table(graph):
    n, table = graph.n, graph.bridges()
    assert len(table) == n
    for u, v in combinations(range(n), 2):
        assert table[u] >> v & 1 == table[v] >> u & 1
    for u in range(n):
        assert not table[u] & ~graph.open_masks()[u]
    for u, v in graph.edges():
        rest = Graph(n, [e for e in graph.edges() if e != (u, v)])
        assert bool(table[u] >> v & 1) == (naive_distances(rest)[u][v] == UNREACHABLE), graph.edges()


def test_the_table_is_symmetric_and_lists_the_edges_whose_loss_disconnects_their_ends():
    for n in range(1, 6):
        for graph in labelled_graphs(n):
            _check_table(graph)


def test_the_table_on_seeded_graphs_up_to_order_22():
    rng = random.Random(22)
    for n in range(6, 23):
        for p in (0.1, 0.2, 0.35):
            _check_table(random_gnp(n, p, seed=rng.randrange(1 << 30)))
