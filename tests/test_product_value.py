"""``product_value`` against independent exact methods.

It reads every kind on G o H off root-state tables of H and, for most
kinds, one pass over the subsets of V(G); the referees are ``value()`` of
the built product (its exception, where it raises one), the tree DP on tree
products, and the closed forms of theorem I6.
"""

import random

import pytest

from helpers import labelled_graphs, random_gnp
from rootdom import solvers, tree_dp
from rootdom.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_tree,
    star_graph,
    subdivided_star_graph,
)
from rootdom.graph import Graph, is_connected
from rootdom.harness import _ROMAN_SPECIALS
from rootdom.product import RootedGraph, rooted_product
from rootdom.solvers import (
    BudgetExceededError,
    ParameterKind as PK,
    SolverError,
    product_value,
    value,
)

KINDS = tuple(PK)


def _outcome(solver, *args):
    """The solver's value, or the type of the ``SolverError`` it raised."""
    try:
        return solver(*args)
    except SolverError as exc:
        return type(exc)


def _agrees(G: Graph, rooted: RootedGraph) -> None:
    product = rooted_product(G, rooted).product
    for kind in KINDS:
        expected = _outcome(value, product, kind)
        assert _outcome(product_value, G, rooted, kind) == expected, (kind, G, rooted)


def test_every_rooted_graph_up_to_order_4():
    # The disconnected bases and H raise InfeasibleParameterError on both
    # sides for the connected, convex and weakly kinds.
    bases = (complete_graph(2), empty_graph(2), path_graph(3), complete_graph(3))
    for n in (2, 3, 4):
        for H in labelled_graphs(n):
            for root in range(n):
                for G in bases:
                    _agrees(G, RootedGraph(H, root))


def test_seeded_products_up_to_order_20():
    rng = random.Random(20261019)
    isolated_roots = disconnected = 0
    for trial in range(300):
        g_n = rng.randint(2, 5)
        G = random_gnp(g_n, rng.choice((0.0, 0.3, 0.6, 1.0)), seed=rng.randrange(1 << 30))
        if trial % 4 == 0:
            H, root, _ = _ROMAN_SPECIALS[rng.randrange(len(_ROMAN_SPECIALS))]
            if H.n * g_n > 20:
                continue
        else:
            h_n = rng.randint(2, 20 // g_n)
            H = random_gnp(h_n, rng.choice((0.2, 0.4, 0.7)), seed=rng.randrange(1 << 30))
            root = rng.randrange(h_n)
        isolated_roots += H.degree(root) == 0
        disconnected += not (is_connected(G) and is_connected(H))
        _agrees(G, RootedGraph(H, root))
    assert isolated_roots >= 20  # the edgeless specials and sparse draws
    assert disconnected >= 100  # super reads these; the connected kinds raise


def test_i_of_tree_products_against_the_tree_dp():
    rng = random.Random(7)
    for _ in range(40):
        g_n = rng.randint(2, 8)
        h_n = rng.randint(max(2, -(-40 // g_n)), min(22, 200 // g_n))
        G = random_tree(g_n, seed=rng.randrange(1 << 30))
        rooted = RootedGraph(random_tree(h_n, seed=rng.randrange(1 << 30)), rng.randrange(h_n))
        product = rooted_product(G, rooted).product
        assert 40 <= product.n <= 200
        expected = tree_dp.tree_independent_domination(product)[0]
        assert product_value(G, rooted, PK.INDEPENDENT_DOMINATION) == expected


def test_connected_and_convex_of_tree_products_against_the_tree_dp():
    rng = random.Random(8)
    for _ in range(40):
        g_n, h_n = rng.randint(2, 12), rng.randint(2, 16)
        G = random_tree(g_n, seed=rng.randrange(1 << 30))
        rooted = RootedGraph(random_tree(h_n, seed=rng.randrange(1 << 30)), rng.randrange(h_n))
        expected = tree_dp.tree_connected_domination(rooted_product(G, rooted).product)[0]
        assert product_value(G, rooted, PK.CONNECTED) == expected
        assert product_value(G, rooted, PK.CONVEX) == expected


@pytest.mark.parametrize("n", range(2, 13))
def test_closed_forms_of_theorem_i6(n):
    for m in range(2, 5):
        caterpillar = product_value(path_graph(n), star_graph(m), PK.INDEPENDENT_DOMINATION)
        assert caterpillar == m * n - -(-n // 2) * (m - 1)
        subdivided = product_value(path_graph(n), subdivided_star_graph(m), PK.INDEPENDENT_DOMINATION)
        assert subdivided == n + -(-n // 3)


def test_a_factor_past_the_budget_raises_the_one_budget_message(monkeypatch):
    monkeypatch.setenv("ROOTDOM_BUDGET", "6")
    cycle = cycle_graph(7)
    message = r"order 14 exceeds the subset-scan budget \(n <= 6\); set ROOTDOM_BUDGET to raise it"
    for G, rooted in ((cycle, RootedGraph(path_graph(2), 0)), (path_graph(2), RootedGraph(cycle, 3))):
        for kind in KINDS:
            with pytest.raises(BudgetExceededError, match=message):
                product_value(G, rooted, kind)


def test_tree_factors_past_the_budget_get_the_tree_dp(monkeypatch):
    G, rooted = path_graph(7), RootedGraph(path_graph(3), 0)
    kinds = (PK.INDEPENDENT_DOMINATION, PK.CONNECTED, PK.CONVEX)
    expected = [product_value(G, rooted, kind) for kind in kinds]
    monkeypatch.setenv("ROOTDOM_BUDGET", "6")
    assert [product_value(G, rooted, kind) for kind in kinds] == expected


def test_the_super_gadgets_count_against_the_budget(monkeypatch):
    # H fits the budget, but H plus a gadget does not: super builds P2 o P4.
    G, rooted = path_graph(2), RootedGraph(path_graph(4), 1)
    monkeypatch.setenv("ROOTDOM_BUDGET", str(rooted.n + 1))
    assert product_value(G, rooted, PK.DOMINATION) == 4
    with pytest.raises(BudgetExceededError, match="order 8 exceeds"):
        product_value(G, rooted, PK.SUPER)


def test_a_base_of_order_one_is_refused(monkeypatch):
    def refuse(*args):
        raise AssertionError("a base of order 1 built the product graph")

    monkeypatch.setattr(solvers, "rooted_product", refuse)
    for kind in (PK.DOMINATION, PK.SUPER):
        with pytest.raises(ValueError, match="^the base factor must have at least two vertices$"):
            product_value(Graph(1, []), RootedGraph(path_graph(3), 0), kind)
