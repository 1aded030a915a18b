"""``product_value`` against independent exact methods.

For gamma, alpha, i and Roman it reads G o H off root-state tables of H and
one weighted scan of G; the referees are ``value()`` of the built product,
the i tree DP on tree products, and the closed forms of theorem I6.
"""

import random

import pytest

from helpers import labelled_graphs, random_gnp
from rootdom import tree_dp
from rootdom.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_tree,
    star_graph,
    subdivided_star_graph,
)
from rootdom.graph import Graph
from rootdom.harness import _ROMAN_SPECIALS
from rootdom.product import RootedGraph, rooted_product
from rootdom.solvers import BudgetExceededError, ParameterKind as PK, product_value, value

KINDS = (PK.DOMINATION, PK.INDEPENDENCE, PK.INDEPENDENT_DOMINATION, PK.ROMAN)


def _agrees(G: Graph, rooted: RootedGraph) -> None:
    product = rooted_product(G, rooted).product
    for kind in KINDS:
        assert product_value(G, rooted, kind) == value(product, kind), (kind, G, rooted)


def test_every_rooted_graph_up_to_order_4():
    bases = (complete_graph(2), empty_graph(2), path_graph(3), complete_graph(3))
    for n in (2, 3, 4):
        for H in labelled_graphs(n):
            for root in range(n):
                for G in bases:
                    _agrees(G, RootedGraph(H, root))


def test_seeded_products_up_to_order_20():
    rng = random.Random(20261019)
    isolated_roots = 0
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
        _agrees(G, RootedGraph(H, root))
    assert isolated_roots >= 20  # the edgeless specials and sparse draws


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


def test_a_base_of_order_one_is_refused():
    for kind in (PK.DOMINATION, PK.SUPER):
        with pytest.raises(ValueError, match="base factor"):
            product_value(Graph(1, []), RootedGraph(path_graph(3), 0), kind)
