import itertools

import pytest

from rootdom.families import (
    child_seed,
    cycle_graph,
    path_graph,
    prufer_tree,
    random_connected_graph,
    random_tree,
    star_graph,
    subdivided_star_graph,
)
from rootdom.graph import is_connected, is_tree
from rootdom.product import RootedGraph
from rootdom.solvers import ParameterKind, solve


def test_same_seed_same_edges():
    a = random_tree(9, seed=123)
    b = random_tree(9, seed=123)
    assert a.edges() == b.edges()
    c = random_connected_graph(8, 0.4, 7)
    d = random_connected_graph(8, 0.4, 7)
    assert c.edges() == d.edges()


def test_prufer_decoding_is_a_bijection():
    # Cayley: the n^(n-2) sequences decode to as many distinct labelled trees.
    counts = []
    for n in range(2, 8):
        trees = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            tree = prufer_tree(seq)
            assert is_tree(tree) and tree.n == n, seq
            trees.add(tuple(tree.edges()))
        counts.append(len(trees))
    assert counts == [1, 3, 16, 125, 1296, 16807]


def test_different_seeds_differ_somewhere():
    samples = {tuple(random_tree(8, seed=s).edges()) for s in range(10)}
    assert len(samples) > 1


def test_random_tree_is_tree():
    for seed in range(25):
        t = random_tree(2 + seed % 10, seed=seed)
        assert is_tree(t)
        assert t.m == t.n - 1


def test_star_closed_forms():
    for m in (2, 3, 4):
        rooted = star_graph(m)
        assert rooted.root == 0
        g = rooted.graph
        assert solve(g, ParameterKind.INDEPENDENCE).value == m
        assert solve(g, ParameterKind.DOMINATION).value == 1
        assert solve(g, ParameterKind.INDEPENDENT_DOMINATION).value == 1


def test_subdivided_star_shape():
    rooted = subdivided_star_graph(3)
    g = rooted.graph
    assert g.n == 5
    assert g.distances()[rooted.root][0] == 2  # root sits two steps from the center
    assert solve(g, ParameterKind.INDEPENDENT_DOMINATION).value == 2


def test_random_connected_is_connected():
    for seed in range(10):
        g = random_connected_graph(7, 0.3, seed=seed)
        assert is_connected(g)


def test_random_connected_gives_up():
    with pytest.raises(ValueError, match="1000 attempts"):
        random_connected_graph(6, 1e-9, seed=1)


def test_generate_validation():
    with pytest.raises(ValueError):
        path_graph(1)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        star_graph(1)


def test_generate_rooted_families():
    star = star_graph(3)
    assert isinstance(star, RootedGraph) and star.root == 0
    sub = subdivided_star_graph(2)
    assert isinstance(sub, RootedGraph) and sub.root == sub.graph.n - 1


def test_child_seed_documented_rule():
    assert child_seed(42, 0) == child_seed(42, 0)
    seen = {child_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
    assert child_seed(42, 1) != child_seed(43, 1)
