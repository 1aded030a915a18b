"""The weakly scans' bridge cut: its table, and listings against brute force.

An edge with both ends out of S lies in no weak subgraph of S, and a weak
subgraph without a bridge of G is disconnected, so the scans drop every set
that leaves both ends of a bridge out.  The table is ``Graph.bridges()``,
held here to the removal of each edge in turn.  The listings are held to a
brute force over all subsets that uses ``naive._weakly_connected``, which
knows nothing of bridges.
"""

import random
from itertools import combinations

import pytest
from helpers import labelled_graphs, random_gnp
from rootdom import _pykernels as slow
from rootdom.families import cycle_graph, path_graph, random_tree
from rootdom.graph import Graph
from rootdom.naive import _weakly_connected

WEAKLY = slow.KIND_WEAKLY_CONNECTED_DOMINATING


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


def _apart(graph, u, v):
    """Whether no path joins u and v."""
    seen, todo = {u}, [u]
    while todo:
        for w in graph.neighbors(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return v not in seen


def _check_table(graph):
    n, table = graph.n, graph.bridges()
    assert len(table) == n
    for u, v in combinations(range(n), 2):
        assert table[u] >> v & 1 == table[v] >> u & 1
    for u in range(n):
        assert not table[u] & ~graph.open_masks()[u]
    for u, v in graph.edges():
        rest = Graph(n, [e for e in graph.edges() if e != (u, v)])
        assert bool(table[u] >> v & 1) == _apart(rest, u, v), graph.edges()


def test_the_table_is_symmetric_and_lists_the_edges_whose_loss_disconnects_their_ends():
    for n in range(1, 6):
        for graph in labelled_graphs(n):
            _check_table(graph)


def test_the_table_on_seeded_graphs_up_to_order_22():
    rng = random.Random(22)
    for n in range(6, 23):
        for p in (0.1, 0.2, 0.35):
            _check_table(random_gnp(n, p, seed=rng.randrange(1 << 30)))


def _feasible(graph):
    """Every weakly connected dominating set, as a mask, in lexicographic order."""
    n = graph.n
    found = []
    for k in range(1, n + 1):
        for chosen in combinations(range(n), k):
            sub = set(chosen)
            closed = set(sub).union(*(graph.neighbors(v) for v in sub))
            if len(closed) == n and _weakly_connected(graph, sub):
                found.append(sum(1 << v for v in chosen))
    return found


def _check(backends, graph, feasible, forced_in, forced_out):
    n, om, cm, table = graph.n, graph.open_masks(), graph.closed_masks(), graph.bridges()
    if forced_in & forced_out:  # overlapping forced masks break the kernel contract
        for backend in backends:
            with pytest.raises(ValueError, match="overlap"):
                backend.enumerate_size(WEAKLY, n, om, cm, table, 1, 0, forced_in, forced_out)
            with pytest.raises(ValueError, match="overlap"):
                backend.scan_min(WEAKLY, n, om, cm, table, forced_in, forced_out)
        return
    for k in range(1, n + 1):
        expected = [
            s for s in feasible if s.bit_count() == k and s & forced_in == forced_in and not s & forced_out
        ]
        for backend in backends:
            listed = backend.enumerate_size(WEAKLY, n, om, cm, table, k, len(expected), forced_in, forced_out)
            assert listed == (expected, False), (graph.edges(), k, forced_in, forced_out)
            exists = backend.enumerate_size(WEAKLY, n, om, cm, table, k, 0, forced_in, forced_out)
            assert exists == (expected[:1], bool(expected))
    held = [s for s in feasible if s & forced_in == forced_in and not s & forced_out]
    least = (held[0].bit_count(), held[0]) if held else None
    for backend in backends:
        assert backend.scan_min(WEAKLY, n, om, cm, table, forced_in, forced_out) == least


def _forced_pairs(n, rng):
    """No forcing, one vertex in and another out, and one seeded pair of
    masks that may overlap."""
    yield 0, 0
    u, v = rng.randrange(n), rng.randrange(n)
    yield 1 << u, (1 << v) & ~(1 << u)
    yield rng.randrange(1 << n) & rng.randrange(1 << n), rng.randrange(1 << n) & rng.randrange(1 << n)


def test_every_labelled_graph_up_to_order_5(fast):
    rng = random.Random(5)
    for n in range(1, 6):
        for graph in labelled_graphs(n):
            feasible = _feasible(graph)
            for forced_in, forced_out in _forced_pairs(n, rng):
                _check((slow, fast), graph, feasible, forced_in, forced_out)


def test_seeded_trees_and_unicyclic_graphs_up_to_order_10(fast):
    rng = random.Random(10)
    for _ in range(20):
        tree = random_tree(rng.randint(2, 10), rng.randrange(1 << 30))
        missing = [e for e in combinations(range(tree.n), 2) if e not in set(tree.edges())]
        graphs = [tree]
        if missing:
            graphs.append(Graph(tree.n, tree.edges() + [rng.choice(missing)]))
        for graph in graphs:
            feasible = _feasible(graph)
            for forced_in, forced_out in _forced_pairs(graph.n, rng):
                _check((slow, fast), graph, feasible, forced_in, forced_out)
