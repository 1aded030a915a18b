"""``product_value`` against independent exact methods.

It reads every kind on G o H off root-state tables of H and, for most
kinds, one pass over the subsets of V(G); the referees are ``value()`` of
the built product (its exception, where it raises one), the tree DP on tree
products, and the closed forms of theorem I6.
"""

import random
from itertools import combinations

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


def _subset_counts(G: Graph) -> tuple[set[tuple[int, ...]], ...]:
    """Over the subsets S of V(G), from the neighbour sets: the triples
    (|S|, |N(S) - S|, |V(G) - N[S]|) of every S and of the independent S,
    and super's tuples (a, b, c1, c2), where a counts the members with no
    neighbour outside S and c1 the outside vertices that are some member's
    only outside neighbour."""
    every, independent, super_counts = set(), set(), set()
    for k in range(G.n + 1):
        for members in combinations(range(G.n), k):
            S = set(members)
            near = set().union(*(G.neighbors(v) for v in S))
            counts = (k, len(near - S), G.n - len(near | S))
            every.add(counts)
            if not near & S:
                independent.add(counts)
            outside = [G.neighbors(v) - S for v in S]
            a = sum(not found for found in outside)
            c1 = len(set().union(*(found for found in outside if len(found) == 1)))
            super_counts.add((a, k - a, c1, G.n - k - c1))
    return every, independent, super_counts


def _check_base_tables(G: Graph) -> None:
    every, independent, super_counts = _subset_counts(G)
    for kind, expected in ((PK.DOMINATION, every), (PK.ROMAN, every),
                           (PK.INDEPENDENCE, independent), (PK.INDEPENDENT_DOMINATION, independent),
                           (PK.SUPER, super_counts)):
        assert solvers._base_table(G, kind) == expected, (kind, G.edges())


@pytest.mark.parametrize("n", range(1, 6))
def test_base_tables_on_every_labelled_graph_up_to_order_5(n):
    for G in labelled_graphs(n):
        _check_base_tables(G)


@pytest.mark.parametrize("n", range(6, 15))
def test_base_tables_on_seeded_graphs_of_order_6_to_14(n):
    for p in (0.0, 0.2, 0.5, 1.0):
        _check_base_tables(random_gnp(n, p, seed=n))


def _super_states(rooted: RootedGraph) -> tuple[int, ...]:
    """``_root_costs(rooted, SUPER)`` from the definitions: the least |D|
    over the vertex sets D of H in each root state, ``_INFEASIBLE`` where no
    D is in it.  A member u serves an outside x when x is u's only
    neighbour outside D."""
    H, r = rooted.graph, rooted.root
    sets = [set(members) for k in range(H.n + 1) for members in combinations(range(H.n), k)]

    def served(D, servers, exempt=frozenset()):
        return all(
            any(H.neighbors(u) <= D | {x} for u in H.neighbors(x) & servers)
            for x in set(range(H.n)) - D - exempt
        )

    def least(test):
        return min((len(D) for D in sets if test(D)), default=solvers._INFEASIBLE)

    hserve = least(lambda D: r in D and served(D, D))
    busy = least(lambda D: r in D and served(D, D - {r}))
    free = least(lambda D: H.closed_neighborhood(r) <= D and served(D, D))
    own = least(lambda D: r not in D and served(D, D))
    og = least(lambda D: r not in D and served(D, D, exempt={r}))
    return hserve, busy, min(own, og + free - busy), own


def _check_super_root_costs(rooted: RootedGraph) -> None:
    # busy reads H - r and og a pendant gadget; here every state is a
    # least set of H itself.
    expected = _super_states(rooted)
    assert solvers._root_costs(rooted, PK.SUPER) == expected, (rooted.graph.edges(), rooted.root)


def test_super_root_costs_on_every_rooted_graph_of_order_2_to_4():
    for n in (2, 3, 4):
        for H in labelled_graphs(n):
            for root in range(n):
                _check_super_root_costs(RootedGraph(H, root))


def test_super_root_costs_on_seeded_rooted_graphs_of_order_5_to_7():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(5, 7)
        H = random_gnp(n, rng.choice((0.2, 0.4, 0.7)), seed=rng.randrange(1 << 30))
        _check_super_root_costs(RootedGraph(H, rng.randrange(n)))


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
    # H fits the budget, but H plus its pendant does not: super builds P2 o P4.
    G, rooted = path_graph(2), RootedGraph(path_graph(4), 1)
    monkeypatch.setenv("ROOTDOM_BUDGET", str(rooted.n))
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


def test_alpha_and_the_connected_kinds_price_h_without_building_a_graph(monkeypatch):
    # Each of their root states is one scan of H with forced masks.
    G, rooted = path_graph(3), RootedGraph(cycle_graph(5), 2)
    kinds = (PK.INDEPENDENCE, PK.CONNECTED, PK.CONVEX, PK.WEAKLY_CONNECTED)
    expected = [value(rooted_product(G, rooted).product, kind) for kind in kinds]

    def refuse(*args):
        raise AssertionError("the root costs built a graph")

    for name in ("Graph", "delete_vertices", "rooted_product"):
        monkeypatch.setattr(solvers, name, refuse)
    assert [product_value(G, rooted, kind) for kind in kinds] == expected


def test_the_other_kinds_build_h_minus_r_and_super_its_pendant(monkeypatch):
    rooted = RootedGraph(cycle_graph(5), 2)
    built = []
    graph, delete = solvers.Graph, solvers.delete_vertices
    monkeypatch.setattr(solvers, "Graph", lambda n, edges: built.append(n) or graph(n, edges))
    monkeypatch.setattr(solvers, "delete_vertices", lambda g, gone: built.append(set(gone)) or delete(g, gone))
    for kind in (PK.DOMINATION, PK.INDEPENDENT_DOMINATION, PK.ROMAN, PK.SUPER):
        built.clear()
        solvers._root_costs(rooted, kind)
        assert built == ([{2}, 6] if kind is PK.SUPER else [{2}]), kind
