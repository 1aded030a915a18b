import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import labelled_graphs, min_plus_distances, random_gnp
from rootdom import naive
from rootdom.families import cycle_graph, path_graph, random_tree, star_graph
from rootdom.graph import (
    Graph,
    UNREACHABLE,
    delete_vertices,
    format_edge_list,
    is_connected,
    is_connected_subset,
    is_convex_set,
    is_tree,
    leaves,
    parse_edge_list,
    private_neighbor_set,
    support_vertices,
    weakly_induced_subgraph,
)


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
    return Graph(n, picks)


class TestConstruction:
    def test_path(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert (g.n, g.m) == (4, 3)
        assert g.degree(0) == 1 and g.degree(1) == 2

    def test_triangle_degrees(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_duplicate_edges_merge(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.m == 1
        g = Graph(5, [(0, 1), (1, 0), (2, 1), (1, 2), (0, 1), (4, 3), (3, 4), (4, 1)])
        assert g.m == 4
        for v in g.vertices:
            assert g.open_masks()[v] == sum(1 << u for u in g.neighbors(v))
            assert g.closed_masks()[v] == sum(1 << u for u in g.closed_neighborhood(v))

    def test_a_large_declared_order_builds_no_closed_masks(self):
        # Closed masks hold about n^2/2 bits, about 700 MB at this order; they
        # are built on first use, and nothing here uses them.
        tracemalloc.start()
        try:
            graph, _ = parse_edge_list("100000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n == 100_000 and peak < 150 * 2**20

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(3, [(1, 1)])

    def test_degree_sum(self):
        g = random_gnp(7, 0.5, seed=3)
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.m


class TestDeletion:
    def test_path_minus_end(self):
        res = delete_vertices(path_graph(4), {3})
        assert (res.graph.n, res.graph.m) == (3, 2)
        assert res.old_to_new == {0: 0, 1: 1, 2: 2}

    def test_triangle_minus_vertex(self):
        res = delete_vertices(cycle_graph(3), {0})
        assert (res.graph.n, res.graph.m) == (2, 1)

    def test_star_minus_center(self):
        res = delete_vertices(star_graph(3).graph, {0})
        assert (res.graph.n, res.graph.m) == (3, 0)

    def test_delete_all_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            delete_vertices(path_graph(2), {0, 1})

    @settings(max_examples=50, deadline=None)
    @given(small_graphs())
    def test_single_deletion_counts(self, g):
        for v in range(g.n):
            if g.n == 1:
                continue
            res = delete_vertices(g, {v})
            assert res.graph.n == g.n - 1
            assert res.graph.m == g.m - g.degree(v)


class TestDistances:
    def test_path_span(self):
        assert path_graph(4).distances()[0][3] == 3

    def test_cycle_antipodal(self):
        assert cycle_graph(6).distances()[0][3] == 3

    def test_disconnected_sentinel(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.distances()[0][2] == UNREACHABLE

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_bfs_matches_min_plus_squaring(self, g):
        assert [list(row) for row in g.distances()] == min_plus_distances(g)


class TestConnectivity:
    def test_empty_graph_is_not_connected(self):
        assert not is_connected(Graph(0, []))

    def test_agrees_with_the_distance_table(self):
        graphs = [
            Graph(1, []),
            Graph(2, []),
            Graph(4, [(0, 1), (1, 2)]),
            Graph(4, [(1, 2), (2, 3)]),
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ]
        graphs += [random_gnp(n, p, seed=7 * n) for n in range(1, 13) for p in (0.1, 0.25, 0.5)]
        for g in graphs:
            connected = is_connected(g)
            fresh = Graph(g.n, g.edges())
            assert connected == (UNREACHABLE not in fresh.distances()[0]), g.edges()

    def test_structure_queries_build_no_distance_table(self):
        for g in (path_graph(6), cycle_graph(5), Graph(4, [(0, 1), (2, 3)])):
            is_connected(g)
            is_tree(g)
            assert g._dist is None


def _components(graph, removed=frozenset()):
    """Number of components of G - removed, by repeated set-based search."""
    left = set(range(graph.n)) - set(removed)
    count = 0
    while left:
        todo = [left.pop()]
        while todo:
            reached = graph.neighbors(todo.pop()) & left
            left -= reached
            todo.extend(reached)
        count += 1
    return count


def _brute_cut_vertices(graph):
    base = _components(graph)
    return sum(1 << v for v in range(graph.n) if _components(graph, {v}) > base)


class TestCutVertices:
    def test_every_labelled_graph_up_to_order_6(self):
        checked = 0
        for n in range(7):
            for g in labelled_graphs(n):
                assert g.cut_vertices() == _brute_cut_vertices(g), g.edges()
                checked += 1
        assert checked == 1 + 1 + 2 + 8 + 64 + 1024 + 32768

    def test_seeded_graphs_up_to_order_14(self):
        for n in range(7, 15):
            for p in (0.1, 0.2, 0.3, 0.5):
                for seed in range(3):
                    g = random_gnp(n, p, seed=100 * n + 10 * seed + int(10 * p))
                    assert g.cut_vertices() == _brute_cut_vertices(g), g.edges()

    def test_trees_cut_at_every_non_leaf(self):
        assert Graph(2, [(0, 1)]).cut_vertices() == 0
        for n in range(3, 40):
            t = random_tree(n, seed=n)
            assert t.cut_vertices() == sum(1 << v for v in range(n) if t.degree(v) > 1)

    def test_long_path_needs_no_recursion(self):
        # Deeper than Python's default recursion limit of 1000.
        assert path_graph(1600).cut_vertices() == ((1 << 1599) - 1) & ~1

    def test_is_cached(self):
        g = cycle_graph(5)
        assert g._cut_vertices is None
        assert g.cut_vertices() == 0
        assert g._cut_vertices == 0


class TestSubsets:
    def test_connected_subset(self):
        p4 = path_graph(4)
        assert is_connected_subset(p4, {1, 2})
        assert not is_connected_subset(p4, {0, 3})
        assert not is_connected_subset(cycle_graph(6), {0, 2, 4})

    def test_connected_subset_empty_rejected(self):
        with pytest.raises(ValueError):
            is_connected_subset(path_graph(2), frozenset())

    def test_connected_subset_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="not a vertex"):
            is_connected_subset(path_graph(3), {1, 3})

    def test_connected_subset_matches_set_searches(self):
        # Two paths that share neither the bitmask BFS nor the masks: the
        # referee's search over neighbors(), and the distance table of the
        # induced subgraph.
        for n in range(1, 6):
            for g in labelled_graphs(n):
                for mask in range(1, 1 << n):
                    members = {v for v in range(n) if mask >> v & 1}
                    expected = naive._connected(g, members)
                    induced = delete_vertices(g, set(range(n)) - members).graph
                    reachable = UNREACHABLE not in {d for row in induced.distances() for d in row}
                    assert expected == reachable, (g.edges(), members)
                    assert is_connected_subset(g, members) == expected, (g.edges(), members)

    def test_convex_arc(self):
        c6 = cycle_graph(6)
        assert is_convex_set(c6, {0, 1, 2})
        # both 0-3 geodesics must lie inside, and one runs through 5, 4
        assert not is_convex_set(c6, {0, 1, 2, 3})
        assert is_convex_set(c6, {2})
        assert is_convex_set(c6, set())

    def test_convex_needs_connected_host(self):
        with pytest.raises(ValueError, match="connected"):
            is_convex_set(Graph(4, [(0, 1), (2, 3)]), {0})

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=6), st.data())
    def test_convex_implies_connected(self, g, data):
        if not is_connected(g):
            return
        members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        if is_convex_set(g, members):
            assert is_connected_subset(g, members)


class TestWeaklyInduced:
    def test_path_six(self):
        # P6 with dominators at positions 1 and 4 keeps only their incident edges
        p6 = path_graph(6)
        res = weakly_induced_subgraph(p6, {1, 4})
        assert res.graph.n == 6
        back = {new: old for old, new in res.old_to_new.items()}
        kept = {tuple(sorted((back[u], back[v]))) for u, v in res.graph.edges()}
        assert kept == {(0, 1), (1, 2), (3, 4), (4, 5)}
        assert not is_connected(res.graph)

    def test_clique_single_dominator(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        res = weakly_induced_subgraph(k4, {0})
        assert (res.graph.n, res.graph.m) == (4, 3)
        assert sorted(res.graph.degree(v) for v in res.graph.vertices) == [1, 1, 1, 3]

    def test_full_set_is_identity(self):
        g = random_gnp(6, 0.5, seed=11)
        res = weakly_induced_subgraph(g, set(range(6)))
        assert res.graph == g

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weakly_induced_subgraph(path_graph(3), set())

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=6), st.data())
    def test_edge_count_formula(self, g, data):
        if g.n < 1:
            return
        dom = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        res = weakly_induced_subgraph(g, dom)
        expected = sum(1 for u, v in g.edges() if u in dom or v in dom)
        assert res.graph.m == expected


class TestTreeStatistics:
    def test_path(self):
        p4 = path_graph(4)
        assert leaves(p4) == {0, 3}
        assert support_vertices(p4) == {1, 2}
        assert is_tree(p4)

    def test_star(self):
        s = star_graph(4).graph
        assert leaves(s) == {1, 2, 3, 4}
        assert support_vertices(s) == {0}

    def test_cycle(self):
        c5 = cycle_graph(5)
        assert leaves(c5) == frozenset()
        assert support_vertices(c5) == frozenset()
        assert not is_tree(c5)

    def test_trees_have_two_leaves(self):
        from rootdom.families import random_tree

        for seed in range(20):
            t = random_tree(2 + seed % 9, seed=seed)
            assert len(leaves(t)) >= 2 if t.n >= 2 else True
            assert all(leaves(t) & t.neighbors(s) for s in support_vertices(t))


class TestPrivateNeighbors:
    def test_star_center_alone(self):
        s = star_graph(3).graph
        assert private_neighbor_set(s, {0}, 0) == {0, 1, 2, 3}

    def test_path_literal_evaluation(self):
        # N[1] = {0,1,2}; open subtrahend N(2) = {1,3} leaves {0,2}
        p4 = path_graph(4)
        assert private_neighbor_set(p4, {1, 2}, 1) == {0, 2}

    def test_path_closed_variant(self):
        p4 = path_graph(4)
        assert private_neighbor_set(p4, {1, 2}, 1, closed_subtrahend=True) == {0}

    def test_triangle_everything_shared(self):
        k3 = cycle_graph(3)
        assert private_neighbor_set(k3, {0, 1, 2}, 0) == frozenset()

    def test_member_required(self):
        with pytest.raises(ValueError):
            private_neighbor_set(path_graph(3), {0}, 2)

    def test_closed_variant_matches_definition(self):
        for seed in range(15):
            g = random_gnp(6, 0.5, seed=seed)
            dom = {0, 3, 5}
            for v in dom:
                expected = frozenset(
                    x
                    for x in g.closed_neighborhood(v)
                    if (g.closed_neighborhood(x) & dom) == {v}
                )
                assert private_neighbor_set(g, dom, v, closed_subtrahend=True) == expected


class TestEdgeListFormat:
    def test_round_trip(self):
        g = random_gnp(7, 0.4, seed=21)
        parsed, root = parse_edge_list(format_edge_list(g))
        assert parsed == g and root is None

    def test_root_comment_round_trip(self):
        text = format_edge_list(star_graph(2).graph, root=0)
        parsed, root = parse_edge_list(text)
        assert root == 0 and parsed.n == 3

    def test_root_marker_is_the_exact_word(self):
        assert parse_edge_list("2 1\n0 1\n# root 1\n")[1] == 1
        assert parse_edge_list("2 1\n0 1\n# rooted 1\n")[1] is None
        assert parse_edge_list("2 1\n0 1  # root 1\n")[1] == 1

    def test_root_word_is_a_sign_and_ascii_digits(self):
        # Any other word leaves an ordinary comment, as "abc" does.
        path4 = "4 3\n0 1\n1 2\n2 3\n"
        for word in ("--1", "\u00b2", "\u0663", "abc", "-"):
            assert parse_edge_list(f"{path4}# root {word}\n", "g.el")[1] is None
        assert parse_edge_list(f"{path4}# root 3\n", "g.el")[1] == 3
        for word in ("7", "-1"):
            with pytest.raises(ValueError, match=rf"^g\.el: root {word} out of range for order 4$"):
                parse_edge_list(f"{path4}# root {word}\n", "g.el")

    def test_comments_and_blanks(self):
        text = "3 2\n# a comment\n\n0 1\n1 2  # trailing\n"
        parsed, _ = parse_edge_list(text)
        assert (parsed.n, parsed.m) == (3, 2)

    def test_bad_line_reports_position(self):
        with pytest.raises(ValueError, match="myfile:2"):
            parse_edge_list("2 1\n0 x\n", source="myfile")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="declares"):
            parse_edge_list("3 2\n0 1\n")
