import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gnp
from rootdom.families import (
    cycle_graph,
    path_graph,
    random_tree,
)
from rootdom.graph import Graph, is_connected, is_tree, leaves
from rootdom.product import RootedGraph, rooted_product


def test_figure_instance_counts():
    rp = rooted_product(path_graph(4), RootedGraph(cycle_graph(3), 0))
    assert rp.product.n == 12
    assert rp.product.m == 15  # 3 base edges + 4 copies of 3


def test_path_times_path_is_long_path():
    rp = rooted_product(path_graph(2), RootedGraph(path_graph(3), 0))
    g = rp.product
    assert (g.n, g.m) == (6, 5)
    assert is_tree(g)
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2, 2, 2, 2]


def test_pendant_comb():
    base = path_graph(4)
    rp = rooted_product(base, RootedGraph(path_graph(2), 0))
    g = rp.product
    assert g.n == 8 and g.m == 3 + 4
    for i in range(4):
        assert g.degree(i) == base.degree(i) + 1
    assert len(leaves(g)) == 4


def test_copy_sets_partition():
    rp = rooted_product(path_graph(4), RootedGraph(cycle_graph(3), 0))
    sets = rp.copy_vertex_sets()
    assert len(sets) == 4
    assert all(len(s) == 3 for s in sets)
    union = frozenset().union(*sets)
    assert union == frozenset(range(12))
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (sets[i] & sets[j])
        assert i in sets[i]  # base vertex i is product id i


def test_copies_isomorphic_and_base_preserved():
    base = cycle_graph(4)
    h = RootedGraph(Graph(4, [(0, 1), (0, 2), (2, 3)]), 2)
    rp = rooted_product(base, h)
    prod = rp.product
    for i in range(base.n):
        mapped = {
            tuple(sorted((rp.copy_vertex(i, u), rp.copy_vertex(i, v))))
            for u, v in h.graph.edges()
        }
        copy_ids = rp.copy_vertex_sets()[i]
        induced = {
            (u, v) for u, v in prod.edges() if u in copy_ids and v in copy_ids
        }
        assert induced == mapped
    base_ids = set(range(base.n))
    induced_base = {(u, v) for u, v in prod.edges() if u in base_ids and v in base_ids}
    assert induced_base == set(base.edges())


def test_base_vertices_are_cut_vertices():
    from rootdom.graph import delete_vertices

    rp = rooted_product(path_graph(3), RootedGraph(cycle_graph(3), 0))
    for i in range(3):
        rest = delete_vertices(rp.product, {i}).graph
        assert not is_connected(rest)


def test_copy_vertex_rejects_vertices_outside_h():
    rp = rooted_product(path_graph(2), RootedGraph(path_graph(3), 1))
    assert rp.copy_vertex(1, 2) == 5
    for bad in (-1, 3, 7):
        with pytest.raises(ValueError, match="H-vertex"):
            rp.copy_vertex(0, bad)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="copy index"):
            rp.copy_vertex(bad, 0)


@pytest.mark.parametrize("seed", range(6))
def test_copy_vertex_is_the_numbering_formula(seed):
    g = random_gnp(2 + seed % 4, 0.5, seed=seed)
    h = random_gnp(2 + (seed * 7) % 5, 0.6, seed=100 + seed)
    n, order = g.n, h.n
    for root in sorted({0, order // 2, order - 1}):
        rp = rooted_product(g, RootedGraph(h, root))
        ids = {}
        for i in range(n):
            for v in range(order):
                expected = i if v == root else n + i * (order - 1) + v - (v > root)
                assert rp.copy_vertex(i, v) == expected
                ids[expected] = (i, v)
        assert sorted(ids) == list(range(n * order))
        base_edges, h_edges = set(g.edges()), set(h.edges())
        for a, b in rp.product.edges():
            (i, u), (j, v) = ids[a], ids[b]
            if u == v == root:
                assert (min(i, j), max(i, j)) in base_edges
            else:
                assert i == j and (min(u, v), max(u, v)) in h_edges
        assert rp.product.m == g.m + n * h.m


def test_order_one_factors_rejected():
    with pytest.raises(ValueError, match="two vertices"):
        RootedGraph(Graph(1, []), 0)
    with pytest.raises(ValueError, match="two vertices"):
        rooted_product(Graph(1, []), RootedGraph(path_graph(2), 0))


def test_bad_root_rejected():
    with pytest.raises(ValueError, match="root"):
        RootedGraph(path_graph(3), 5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=0, max_value=1 << 30),
    st.data(),
)
def test_tree_product_is_tree_with_leaf_branch(n1, n2, s1, s2, data):
    t1 = random_tree(n1, seed=s1)
    t2 = random_tree(n2, seed=s2)
    root = data.draw(st.integers(min_value=0, max_value=n2 - 1))
    rp = rooted_product(t1, RootedGraph(t2, root))
    assert rp.product.n == n1 * n2
    assert rp.product.m == t1.m + n1 * t2.m
    assert is_tree(rp.product)
    n1_h = len(leaves(t2))
    expected = n1 * (n1_h - 1) if root in leaves(t2) else n1 * n1_h
    assert len(leaves(rp.product)) == expected
