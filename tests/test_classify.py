"""Root classification against the classification read off the full listing.

``classify_root`` takes one optimum and asks one existence scan, with the
root forced in or out, for an optimum on the other side; for Roman it asks
one scan per missing root label.  ``enumerate_optimal`` lists every optimum,
so reading the root's membership, and the optimum's value, off that list is
the referee.  The C leg of CI runs this file against a UBSan build of the
kernels too.
"""

import random

import pytest

from helpers import labelled_graphs, ladder_graph, random_gnp
from rootdom import solvers
from rootdom.families import complete_graph, cycle_graph, random_tree
from rootdom.graph import Graph
from rootdom.product import RootedGraph
from rootdom.solvers import (
    BudgetExceededError,
    InfeasibleParameterError,
    Membership,
    ParameterKind,
    classify_root,
    enumerate_optimal,
)

PK = ParameterKind


def _read_off(kind, root, listing):
    """``(membership, roman_values)`` of the root across ``listing``."""
    if kind is PK.ROMAN:
        values = frozenset(a.label(root) for a in listing)
        flags = {v > 0 for v in values}
    else:
        values = None
        flags = {root in w for w in listing}
    if flags == {True}:
        return Membership.IN_ALL, values
    if flags == {False}:
        return Membership.IN_NONE, values
    return Membership.IN_SOME, values


def _check_every_root(graph):
    """Compares the two classifications for every kind and root; returns the
    number of (kind, root) cases."""
    cases = 0
    for kind in PK:
        try:
            listing = enumerate_optimal(graph, kind)
        except InfeasibleParameterError:
            for root in graph.vertices:
                with pytest.raises(InfeasibleParameterError):
                    classify_root(RootedGraph(graph, root), kind)
            cases += graph.n
            continue
        for root in graph.vertices:
            cls = classify_root(RootedGraph(graph, root), kind)
            assert cls.kind is kind
            assert cls.value == (listing[0].weight if kind is PK.ROMAN else len(listing[0]))
            assert (cls.membership, cls.roman_values) == _read_off(kind, root, listing), (
                kind, root, graph.edges()
            )
            cases += 1
    return cases


def test_every_labelled_graph_of_order_2_to_5():
    cases = sum(_check_every_root(g) for n in range(2, 6) for g in labelled_graphs(n))
    # (2 * 2 + 8 * 3 + 64 * 4 + 1024 * 5) graphs-and-roots, times eight kinds
    assert cases == 43_232


def _seeded_hosts():
    """G(n, p), trees, cycles and ladders of order 6..12."""
    rng = random.Random(2027)
    for n in (6, 8, 10, 12):
        yield random_gnp(n, 0.3, seed=rng.randrange(1 << 30))
        yield random_gnp(n, 0.5, seed=rng.randrange(1 << 30))
        yield random_tree(n, seed=rng.randrange(1 << 30))
        yield cycle_graph(n)
        yield ladder_graph(n // 2)
    yield random_gnp(9, 0.4, seed=rng.randrange(1 << 30))
    yield random_tree(11, seed=rng.randrange(1 << 30))


def test_seeded_families_of_order_6_to_12():
    for g in _seeded_hosts():
        _check_every_root(g)


def test_only_existence_scans_run(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify_root listed the optima")

    caps = []

    def spy(kernel, cap_at):
        def call(*args):
            caps.append(args[cap_at])
            return kernel(*args)

        return call

    monkeypatch.setattr(solvers, "enumerate_optimal", refuse)
    monkeypatch.setattr(solvers.kernels, "enumerate_size", spy(solvers.kernels.enumerate_size, 6))
    monkeypatch.setattr(solvers.kernels, "roman_enumerate", spy(solvers.kernels.roman_enumerate, 3))
    for kind in PK:
        classify_root(RootedGraph(ladder_graph(4), 0), kind)
    assert caps and set(caps) == {0}


def test_the_enumeration_cap_does_not_apply(monkeypatch):
    monkeypatch.setattr(solvers, "ENUMERATION_CAP", 2)
    cls = classify_root(RootedGraph(complete_graph(5), 0), PK.DOMINATION)
    assert cls.membership is Membership.IN_SOME
    assert classify_root(RootedGraph(complete_graph(5), 0), PK.ROMAN).roman_values == {0, 2}


def test_errors_match_the_scan(monkeypatch):
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    for kind in (PK.CONNECTED, PK.CONVEX, PK.WEAKLY_CONNECTED):
        with pytest.raises(InfeasibleParameterError):
            classify_root(RootedGraph(two_k2, 0), kind)
    monkeypatch.setenv("ROOTDOM_BUDGET", "5")
    tree = random_tree(8, seed=3)
    for kind in PK:  # the tree DP kinds included: the scan is what needs the budget
        with pytest.raises(BudgetExceededError, match="n <= 5"):
            classify_root(RootedGraph(tree, 0), kind)
