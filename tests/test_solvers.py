import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import kind_table, labelled_graphs, random_gnp, tree_shape
from rootdom import _pykernels, solvers
from rootdom.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    prufer_tree,
    random_tree,
    star_graph,
    subdivided_star_graph,
)
from rootdom.graph import Graph, is_connected, is_connected_subset, is_convex_set, weakly_induced_subgraph
from rootdom.naive import naive_value
from rootdom.product import RootedGraph, rooted_product
from rootdom.solvers import (
    BudgetExceededError,
    EnumerationCapError,
    InfeasibleParameterError,
    Membership,
    ParameterKind,
    RomanAssignment,
    classify_root,
    enumerate_optimal,
    is_dominating,
    is_independent,
    is_super_dominating,
    solve,
    value,
)

PK = ParameterKind


class TestPredicates:
    def test_dominating(self):
        c3 = cycle_graph(3)
        assert is_dominating(c3, {1})
        p4 = path_graph(4)
        assert is_dominating(p4, {0, 3})
        assert not is_dominating(p4, {0})

    def test_independent(self):
        assert is_independent(cycle_graph(6), {0, 2, 4})
        assert not is_independent(path_graph(4), {1, 2})
        assert is_independent(path_graph(4), set())

    def test_super(self):
        p4 = path_graph(4)
        assert is_super_dominating(p4, {1, 2})
        k4 = complete_graph(4)
        assert not is_super_dominating(k4, {0, 1})
        assert is_super_dominating(k4, {0, 1, 2, 3})


class TestNamedValues:
    def test_domination(self):
        res = solve(path_graph(4), PK.DOMINATION)
        assert res.value == 2
        assert res.witness == {0, 2}  # lexicographically first optimum

    def test_independence(self):
        res = solve(cycle_graph(6), PK.INDEPENDENCE)
        assert res.value == 3 and res.witness == {0, 2, 4}

    def test_star_values(self):
        g = star_graph(4).graph
        assert solve(g, PK.INDEPENDENCE).value == 4
        assert solve(g, PK.INDEPENDENT_DOMINATION).value == 1

    def test_connected(self):
        res = solve(path_graph(4), PK.CONNECTED)
        assert res.value == 2 and res.witness == {1, 2}
        assert solve(path_graph(6), PK.CONNECTED).value == 4

    def test_convex(self):
        assert solve(cycle_graph(6), PK.CONVEX).value == 6
        assert solve(path_graph(6), PK.CONVEX).value == 4

    def test_weakly(self):
        res = solve(path_graph(6), PK.WEAKLY_CONNECTED)
        assert res.value == 3 and res.witness == {0, 2, 4}

    def test_super(self):
        assert solve(path_graph(4), PK.SUPER).value == 2
        assert solve(path_graph(6), PK.SUPER).value == 3
        for n in (3, 4, 5):
            assert solve(complete_graph(n), PK.SUPER).value == n - 1

    def test_roman(self):
        for n in (2, 3, 5):
            assert solve(complete_graph(n), PK.ROMAN).value == 2
        res = solve(path_graph(4), PK.ROMAN)
        assert res.value == 3
        assert res.witness == RomanAssignment(b1=frozenset({3}), b2=frozenset({1}))

    def test_roman_comb(self):
        comb = rooted_product(path_graph(4), RootedGraph(path_graph(2), 0)).product
        assert solve(comb, PK.ROMAN).value == 6

    def test_empty_graph_values(self):
        e3 = empty_graph(3)
        assert solve(e3, PK.DOMINATION).value == 3
        assert solve(e3, PK.ROMAN).value == 3
        assert solve(e3, PK.SUPER).value == 3


class TestInfeasibility:
    def test_disconnected_hosts(self):
        two_k2 = Graph(4, [(0, 1), (2, 3)])
        for kind in (PK.CONNECTED, PK.CONVEX, PK.WEAKLY_CONNECTED):
            with pytest.raises(InfeasibleParameterError):
                solve(two_k2, kind)

    def test_disconnected_fine_for_others(self):
        two_k2 = Graph(4, [(0, 1), (2, 3)])
        assert solve(two_k2, PK.DOMINATION).value == 2
        assert solve(two_k2, PK.SUPER).value == 2


class TestEnumeration:
    def test_triangle_domination(self):
        sets = enumerate_optimal(cycle_graph(3), PK.DOMINATION)
        assert sets == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_star_unique_ids(self):
        sets = enumerate_optimal(star_graph(3).graph, PK.INDEPENDENT_DOMINATION)
        assert sets == [frozenset({0})]

    def test_p3_roman_unique(self):
        fns = enumerate_optimal(path_graph(3), PK.ROMAN)
        assert fns == [RomanAssignment(b1=frozenset(), b2=frozenset({1}))]

    def test_c3_roman_three(self):
        fns = enumerate_optimal(cycle_graph(3), PK.ROMAN)
        assert [sorted(f.b2) for f in fns] == [[0], [1], [2]]

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(solvers, "ENUMERATION_CAP", 2)
        with pytest.raises(EnumerationCapError) as info:
            enumerate_optimal(complete_graph(5), PK.DOMINATION)
        assert info.value.partial_count == 3
        assert str(info.value) == "more than 2 optimal sets"
        with pytest.raises(EnumerationCapError) as info:
            enumerate_optimal(complete_graph(5), PK.ROMAN)
        assert info.value.partial_count == 3
        assert str(info.value) == "more than 2 optimal Roman assignments"

    def test_forced_ones_structure(self):
        for seed in range(10):
            g = random_gnp(7, 0.4, seed=seed)
            for fn in enumerate_optimal(g, PK.ROMAN):
                assert fn.is_valid(g)
                covered = set()
                for v in fn.b2:
                    covered |= g.closed_neighborhood(v)
                assert fn.b1 == frozenset(range(g.n)) - covered


class TestRootClassification:
    def test_triangle_in_some(self):
        cls = classify_root(RootedGraph(cycle_graph(3), 0), PK.DOMINATION)
        assert cls.membership is Membership.IN_SOME

    def test_star_center_in_all(self):
        cls = classify_root(star_graph(3), PK.INDEPENDENT_DOMINATION)
        assert cls.membership is Membership.IN_ALL

    def test_roman_label_sets(self):
        end_of_p3 = RootedGraph(path_graph(3), 0)
        assert classify_root(end_of_p3, PK.ROMAN).roman_values == {0}
        k2 = RootedGraph(path_graph(2), 0)
        assert classify_root(k2, PK.ROMAN).roman_values == {0, 1, 2}
        center = star_graph(3)
        assert classify_root(center, PK.ROMAN).roman_values == {2}
        sub3 = subdivided_star_graph(3)
        assert classify_root(sub3, PK.ROMAN).roman_values == {1}

    def test_star_leaf_not_in_i_sets(self):
        leaf_root = RootedGraph(star_graph(3).graph, 1)
        assert classify_root(leaf_root, PK.INDEPENDENT_DOMINATION).membership is Membership.IN_NONE


class TestBudgets:
    def test_budget_error_names_cap(self, monkeypatch):
        monkeypatch.setenv("ROOTDOM_BUDGET", "4")
        with pytest.raises(BudgetExceededError, match="n <= 4"):
            solve(path_graph(6), PK.DOMINATION)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ROOTDOM_BUDGET", "3")
        with pytest.raises(BudgetExceededError):
            solve(path_graph(5), PK.DOMINATION)
        monkeypatch.setenv("ROOTDOM_BUDGET", "10")
        assert solve(path_graph(5), PK.DOMINATION).value == 2

    def test_tree_fallback_past_budget(self, monkeypatch):
        t = random_tree(12, seed=4)
        from rootdom.graph import leaves

        scanned_i = solve(t, PK.INDEPENDENT_DOMINATION).value
        monkeypatch.setenv("ROOTDOM_BUDGET", "8")
        res = solve(t, PK.CONNECTED)
        assert res.value == 12 - len(leaves(t))
        assert solve(t, PK.CONVEX).value == res.value
        assert solve(t, PK.INDEPENDENT_DOMINATION).value == scanned_i
        with pytest.raises(BudgetExceededError):
            solve(t, PK.DOMINATION)

    def test_every_scan_past_the_budget_raises_one_message(self, monkeypatch):
        from rootdom.harness import TheoremId, check

        monkeypatch.setenv("ROOTDOM_BUDGET", "5")
        tree = path_graph(7)  # value() takes the tree routine, so the guard is reached
        for task, call in (
            ("solve", lambda: solve(cycle_graph(7), PK.CONNECTED)),
            ("enumeration", lambda: enumerate_optimal(tree, PK.CONNECTED)),
            ("enumeration", lambda: enumerate_optimal(cycle_graph(7), PK.CONNECTED)),
            ("root classification", lambda: classify_root(RootedGraph(tree, 0), PK.CONNECTED)),
            (
                "root classification",
                lambda: classify_root(RootedGraph(cycle_graph(7), 0), PK.CONNECTED),
            ),
            ("C2", lambda: check(TheoremId.C2, tree)),
        ):
            message = (
                f"{task} needs the subset scan, and order 7 exceeds the subset-scan "
                "budget (n <= 5); set ROOTDOM_BUDGET to raise it"
            )
            with pytest.raises(BudgetExceededError) as info:
                call()
            assert str(info.value) == message

    def test_non_tree_past_budget(self, monkeypatch):
        monkeypatch.setenv("ROOTDOM_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            solve(cycle_graph(9), PK.CONNECTED)


def _tree_i(tree: Graph) -> int:
    """The tree DP's value, after checking its witness."""
    from rootdom.tree_dp import tree_independent_domination

    size, witness = tree_independent_domination(tree)
    assert len(witness) == size
    assert is_independent(tree, witness) and is_dominating(tree, witness)
    return size


class TestTreeDP:
    def test_paths_and_stars(self):
        assert _tree_i(Graph(1, [])) == 1
        for n in [*range(2, 40), 1000, 2999, 3000]:
            assert _tree_i(path_graph(n)) == -(-n // 3), n
        for m in range(2, 40):  # centred at vertex 0, and at vertex m
            assert _tree_i(star_graph(m).graph) == 1, m
            assert _tree_i(Graph(m + 1, [(v, m) for v in range(m)])) == 1, m

    def test_value_is_invariant_under_relabelling(self):
        rng = random.Random(14)
        for trial in range(12):
            t = random_tree(rng.randint(50, 400), seed=1400 + trial)
            perm = list(range(t.n))
            rng.shuffle(perm)
            relabelled = Graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()])
            assert _tree_i(relabelled) == _tree_i(t), trial

    def test_witness_does_not_depend_on_edge_order(self):
        from rootdom.tree_dp import tree_independent_domination

        for trial in range(20):
            edges = random_tree(2 + 7 * trial, seed=1500 + trial).edges()
            n = len(edges) + 1
            forward = tree_independent_domination(Graph(n, edges))
            assert tree_independent_domination(Graph(n, reversed(edges))) == forward, trial
            flipped = [(v, u) for u, v in reversed(edges)]
            assert tree_independent_domination(Graph(n, flipped)) == forward, trial

    def test_matches_scan_on_random_trees(self):
        from rootdom.tree_dp import tree_connected_domination, tree_independent_domination

        for trial in range(40):
            t = random_tree(2 + trial % 11, seed=500 + trial)
            vi, wi = tree_independent_domination(t)
            assert vi == solve(t, PK.INDEPENDENT_DOMINATION).value
            assert is_dominating(t, wi) and is_independent(t, wi)
            vc, wc = tree_connected_domination(t)
            assert vc == solve(t, PK.CONNECTED).value
            assert is_dominating(t, wc) and is_connected_subset(t, wc)
            assert vc == solve(t, PK.CONVEX).value

    def test_rejects_non_trees(self):
        from rootdom.tree_dp import tree_connected_domination

        with pytest.raises(ValueError):
            tree_connected_domination(cycle_graph(4))


class TestValue:
    """``value()`` against ``solve()`` and the naive referee."""

    KINDS = (PK.INDEPENDENT_DOMINATION, PK.CONNECTED, PK.CONVEX)

    def test_every_labelled_tree_up_to_order_7(self):
        from rootdom.tree_dp import tree_connected_domination

        # The referee's value is an isomorphism invariant: run it once per shape.
        # The i DP's witness is an independent dominating set of its size; for
        # connected and convex the tree routine also gives solve()'s witness.
        referee = {}
        for n in range(2, 8):
            for seq in itertools.product(range(n), repeat=n - 2):
                t = prufer_tree(seq)
                shape = tree_shape(t)
                for kind in self.KINDS:
                    if (shape, kind) not in referee:
                        referee[shape, kind] = naive_value(t, kind.value)
                    found = solve(t, kind)
                    assert value(t, kind) == found.value == referee[shape, kind], (seq, kind)
                    if kind is PK.INDEPENDENT_DOMINATION:
                        assert _tree_i(t) == found.value, seq
                    else:
                        assert tree_connected_domination(t) == (found.value, found.witness), (seq, kind)
        assert len(referee) == 3 * (1 + 1 + 2 + 3 + 6 + 11)

    def test_random_trees_of_order_8_to_12(self):
        for n in range(8, 13):
            for seed in range(4):
                t = random_tree(n, seed=900 + 10 * n + seed)
                for kind in self.KINDS:
                    assert value(t, kind) == solve(t, kind).value == naive_value(t, kind.value)

    def test_past_the_budget(self, monkeypatch):
        t = random_tree(30, seed=3)
        monkeypatch.setenv("ROOTDOM_BUDGET", "8")
        for kind in self.KINDS:
            assert value(t, kind) == solve(t, kind).value
        with pytest.raises(BudgetExceededError):
            value(t, PK.DOMINATION)

    def test_non_trees_match_solve(self):
        graphs = [random_gnp(n, p, seed=n) for n in range(1, 9) for p in (0.2, 0.35, 0.6)]
        graphs.append(Graph(5, [(0, 1), (1, 2), (3, 4)]))  # a forest
        assert any(not is_connected(g) for g in graphs)
        for g in graphs:
            for kind in self.KINDS:
                try:
                    expected = solve(g, kind).value
                except InfeasibleParameterError as exc:
                    with pytest.raises(InfeasibleParameterError, match=str(exc)):
                        value(g, kind)
                else:
                    assert value(g, kind) == expected

    @pytest.mark.parametrize("kind", list(PK))
    def test_empty_graph_raises_like_solve(self, kind):
        with pytest.raises(ValueError, match="empty graph"):
            solve(Graph(0, []), kind)
        with pytest.raises(ValueError, match="empty graph"):
            value(Graph(0, []), kind)

    def test_trees_compute_no_cut_vertices(self):
        # The tree DP needs neither cut vertices nor bridges; the product
        # workloads past the budget stay cheap.
        for t in (random_tree(9, seed=5), random_tree(40, seed=6)):
            for kind in self.KINDS:
                value(t, kind)
            assert t._cut_vertices is None and t._bridges is None

    def test_enumeration_on_trees_keeps_the_lexicographic_order(self):
        for trial in range(6):
            t = random_tree(5 + trial, seed=40 + trial)
            for kind in self.KINDS:
                found = enumerate_optimal(t, kind)
                assert found == sorted(found, key=lambda w: sorted(w))
                assert found[0] == solve(t, kind).witness


class TestScanStartBound:
    """The kernels' start size is a lower bound for every kind: no feasible set
    is smaller.  ``scan_min`` itself starts there, so the check asks
    ``enumerate_size``, which takes its size from the caller, about the size
    just below it."""

    #: A set of these kinds stays feasible when any vertex joins it, so when
    #: no set of one size is feasible no smaller one is: the size just below
    #: the start decides.
    UPWARD_CLOSED = (
        _pykernels.KIND_DOMINATING,
        _pykernels.KIND_CONNECTED_DOMINATING,
        _pykernels.KIND_WEAKLY_CONNECTED_DOMINATING,
        _pykernels.KIND_SUPER_DOMINATING,
    )
    #: Every independent dominating set is dominating, and every convex
    #: dominating set is connected dominating, so where each of these kinds
    #: starts with the kind it names, the bound of that kind covers it.
    STARTS_WITH = {
        _pykernels.KIND_INDEPENDENT_DOMINATING: _pykernels.KIND_DOMINATING,
        _pykernels.KIND_CONVEX_DOMINATING: _pykernels.KIND_CONNECTED_DOMINATING,
    }

    @classmethod
    def _check(cls, g):
        om = g.open_masks()
        for kind, wider in cls.STARTS_WITH.items():
            assert _pykernels.start(kind, g.n, om, 0) == _pykernels.start(wider, g.n, om, 0), g.edges()
        for kind in cls.UPWARD_CLOSED:
            k = min(_pykernels.start(kind, g.n, om, 0), g.n + 1) - 1
            if k:
                found, _ = _pykernels.enumerate_size(kind, g.n, om, kind_table(g, kind), k, 0)
                assert not found, (kind, k, g.edges())

    def test_every_labelled_graph_up_to_order_6(self):
        for n in range(1, 7):
            for g in labelled_graphs(n):
                self._check(g)

    def test_seeded_graphs_up_to_order_12(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(7, 12)
            self._check(random_gnp(n, rng.choice((0.15, 0.3, 0.5)), seed=rng.randrange(1 << 30)))

    def test_exact_on_trees_and_cycles(self):
        # The connected domination number of a tree is its number of non-leaves
        # (here also the tree DP's value), and that of the cycle C_n is n - 2.
        code = _pykernels.KIND_CONNECTED_DOMINATING
        for n in range(3, 20):
            t = random_tree(n, seed=n)
            inner = sum(1 for v in range(n) if t.degree(v) > 1)
            assert _pykernels.start(code, n, t.open_masks(), 0) == inner == value(t, PK.CONNECTED)
            assert _pykernels.start(code, n, cycle_graph(n).open_masks(), 0) == n - 2


def test_pure_python_scans_leave_no_cyclic_garbage():
    # Each scan recurses through a nested function that refers to itself;
    # the scan frees it on return, so no call waits for the cyclic collector.
    g = cycle_graph(18)
    n, om = g.n, g.open_masks()
    calls = {
        "scan_min": lambda: _pykernels.scan_min(_pykernels.KIND_DOMINATING, n, om),
        "scan_max_independent": lambda: _pykernels.scan_max_independent(n, om),
        "enumerate_size": lambda: _pykernels.enumerate_size(_pykernels.KIND_DOMINATING, n, om, None, 6, 10),
        "roman_min": lambda: _pykernels.roman_min(n, om),
        "roman_enumerate": lambda: _pykernels.roman_enumerate(n, om, 12, 10),
    }
    for name, call in calls.items():
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                call()
            assert gc.collect() == 0, name
        finally:
            gc.enable()


class TestWitnessValidity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_witnesses_satisfy_their_predicates(self, n, seed):
        g = random_gnp(n, 0.5, seed=seed)
        res = solve(g, PK.DOMINATION)
        assert is_dominating(g, res.witness) and len(res.witness) == res.value
        res = solve(g, PK.INDEPENDENCE)
        assert is_independent(g, res.witness)
        res = solve(g, PK.INDEPENDENT_DOMINATION)
        assert is_dominating(g, res.witness) and is_independent(g, res.witness)
        res = solve(g, PK.SUPER)
        assert is_super_dominating(g, res.witness)
        fn = solve(g, PK.ROMAN).witness
        assert fn.is_valid(g) and fn.weight == solve(g, PK.ROMAN).value
        if is_connected(g):
            res = solve(g, PK.CONNECTED)
            assert is_dominating(g, res.witness) and is_connected_subset(g, res.witness)
            res = solve(g, PK.CONVEX)
            assert is_dominating(g, res.witness) and is_convex_set(g, res.witness)


def test_super_service_test_is_the_definition():
    """The super scans' service test, ``_served`` on the vertices ``once``
    and ``twice`` with at least one and at least two neighbours out, and the
    super leaf, which counts the out-vertices from its last pick on into
    those below it, both say whether the complement of the out-set is super
    dominating, for every out-set of every labelled graph up to order 5."""

    def counts(om, out):
        once = twice = 0
        for u, open_mask in enumerate(om):
            meets = (open_mask & out).bit_count()
            once |= (meets >= 1) << u
            twice |= (meets >= 2) << u
        return once, twice

    kind = _pykernels.KIND_SUPER_DOMINATING
    for n in range(1, 6):
        full = (1 << n) - 1
        for g in labelled_graphs(n):
            om = g.open_masks()
            for out in range(full + 1):
                sub = full & ~out
                expected = is_super_dominating(g, {v for v in range(n) if sub >> v & 1})
                assert _pykernels._served(out, *counts(om, out), om) == expected, (g.edges(), out)
                if sub:
                    first = sub.bit_length()
                    once, twice = counts(om, out & ((1 << first) - 1))
                    leaf = _pykernels._leaf_ok(kind, sub, full, om, first, once | twice << n)
                    assert leaf == expected, (g.edges(), out)


class TestPathsAndCyclesPastTheReferee:
    """Paths and cycles of order 13-22, past the prune-free referee's order
    12, where the counting cuts of both backends prune hardest: gamma = i =
    ceil(n/3), alpha(P_n) = ceil(n/2), alpha(C_n) = floor(n/2), the weakly
    connected domination number floor(n/2), the Roman domination number
    ceil(2n/3) and the super domination number ceil(n/2) of P_n, and of C_n
    ceil(n/2) for n = 0, 3 (mod 4) and ceil((n+1)/2) otherwise (Lemanska et
    al., Super dominating sets in graphs, 2015), each with a witness that
    meets its kind's predicate."""

    @pytest.fixture(params=["python", "c"])
    def backend(self, request, monkeypatch):
        impl = request.getfixturevalue("fast") if request.param == "c" else _pykernels
        for name in ("scan_min", "scan_max_independent", "roman_min"):
            monkeypatch.setattr(solvers.kernels, name, getattr(impl, name))

    @pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
    def test_closed_forms(self, backend, cycle):
        for n in range(13, 23):
            g = cycle_graph(n) if cycle else path_graph(n)
            expected = {
                PK.DOMINATION: -(-n // 3),
                PK.INDEPENDENT_DOMINATION: -(-n // 3),
                PK.INDEPENDENCE: n // 2 if cycle else -(-n // 2),
                PK.WEAKLY_CONNECTED: n // 2,
                PK.ROMAN: -(-2 * n // 3),
                PK.SUPER: -(-(n + 1) // 2) if cycle and n % 4 in (1, 2) else -(-n // 2),
            }
            for kind, size in expected.items():
                res = solve(g, kind)
                assert res.value == size, (n, kind)
                witness = res.witness
                if kind is PK.ROMAN:
                    assert witness.is_valid(g) and witness.weight == size, n
                    continue
                assert len(witness) == size, (n, kind)
                if kind is PK.SUPER:
                    assert is_super_dominating(g, witness), n
                elif kind is not PK.INDEPENDENCE:
                    assert is_dominating(g, witness), (n, kind)
                if kind in (PK.INDEPENDENCE, PK.INDEPENDENT_DOMINATION):
                    assert is_independent(g, witness), (n, kind)
                if kind is PK.WEAKLY_CONNECTED:
                    weak = weakly_induced_subgraph(g, witness).graph
                    assert weak.n == n and is_connected(weak), n


class TestInvariantChains:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_parameter_chains(self, n, seed):
        g = random_gnp(n, 0.45, seed=seed)
        gamma = solve(g, PK.DOMINATION).value
        assert solve(g, PK.INDEPENDENT_DOMINATION).value >= gamma
        roman = solve(g, PK.ROMAN).value
        assert gamma <= roman <= 2 * gamma
        if is_connected(g):
            gc = solve(g, PK.CONNECTED).value
            assert gamma <= gc <= solve(g, PK.CONVEX).value
            assert solve(g, PK.WEAKLY_CONNECTED).value <= gc


class TestOracleAgreement:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_matches_naive(self, n, seed):
        g = random_gnp(n, 0.5, seed=seed)
        for kind in PK:
            expected = naive_value(g, kind.value)
            try:
                got = solve(g, kind).value
            except InfeasibleParameterError:
                got = None
            assert got == expected, kind
