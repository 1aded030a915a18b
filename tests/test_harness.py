import json
import random
from dataclasses import fields
from itertools import islice

import pytest

from rootdom import harness, solvers, tree_dp
from rootdom.families import (
    cycle_graph,
    empty_graph,
    path_graph,
    random_tree,
    star_graph,
    subdivided_star_graph,
)
from rootdom.graph import Graph
from rootdom.harness import (
    _THEOREMS,
    _verdicts,
    MUST_HOLD,
    CampaignConfig,
    Outcome,
    TheoremId,
    check,
    check_witness,
    run_campaign,
    run_theorem,
)
from rootdom.product import RootedGraph
from rootdom.solvers import BudgetExceededError

T = TheoremId


class TestDominationChecks:
    def test_two_value_on_figure_instance(self):
        for root in range(3):
            v = check(T.D2, path_graph(4), RootedGraph(cycle_graph(3), root))
            assert v.outcome is Outcome.PASS
            assert v.values["gamma_product"] == 4

    def test_lemma_applicable_on_star_center(self):
        v = check(T.D1, path_graph(4), star_graph(3))
        assert v.outcome is Outcome.PASS
        assert v.values["root_membership"] == "IN_ALL"
        assert v.values["gamma_product"] == 4

    def test_lemma_not_applicable_on_triangle(self):
        v = check(T.D1, path_graph(4), RootedGraph(cycle_graph(3), 0))
        assert v.outcome is Outcome.NOT_APPLICABLE
        assert not v.applicable

    def test_lemma_breaks_for_isolated_root(self):
        # With an isolated root the identified copies lose nothing by
        # dominating the base once, so the claimed equality fails; the
        # harness must report this as a finding with a reusable witness.
        v = check(T.D1, path_graph(2), RootedGraph(empty_graph(2), 0))
        assert v.outcome is Outcome.FAIL
        assert v.values == {
            "root_membership": "IN_ALL",
            "gamma_h": 2,
            "gamma_product": 3,
            "expected": 4,
        }
        assert check_witness(v.witness).outcome is Outcome.FAIL


class TestRomanChecks:
    def test_chain_holds_everywhere(self):
        v = check(T.R1, path_graph(5), RootedGraph(cycle_graph(4), 1))
        assert v.outcome is Outcome.PASS

    def test_deletion_cases(self):
        v = check(T.R2, cycle_graph(5))
        assert v.outcome is Outcome.PASS and v.values["violations"] == []

    def test_deletion_reports_each_vertex_and_label_once(self, monkeypatch):
        # With every deleted graph's Roman value read as 0, each case fails.
        # Each vertex of C4 takes label 0 in two of its four optimal
        # assignments, and is still reported once per label.
        real = solvers.value
        monkeypatch.setattr(solvers, "value", lambda g, kind: real(g, kind) if g.n == 4 else 0)
        v = check(T.R2, cycle_graph(4))
        cases = [(case["v"], case["label"]) for case in v.values["violations"]]
        assert v.outcome is Outcome.FAIL and v.values["assignments"] == 4
        assert sorted(cases) == sorted(set(cases)) == [(u, label) for u in range(4) for label in range(3)]

    def test_always_zero_vertices(self):
        v = check(T.R3, path_graph(3))
        assert v.outcome is Outcome.PASS
        assert v.values["tested_vertices"] == [0, 2]

    def test_sandwich(self):
        v = check(T.R4, path_graph(3), RootedGraph(cycle_graph(4), 2))
        assert v.outcome is Outcome.PASS

    def test_exact_value_branches(self):
        always_zero = check(T.R5, path_graph(4), RootedGraph(path_graph(3), 0))
        assert always_zero.outcome is Outcome.PASS
        assert always_zero.values["branch"] == "always-zero"

        both = check(T.R5, path_graph(4), RootedGraph(path_graph(2), 0))
        assert both.outcome is Outcome.PASS
        assert both.values["roman_product"] == 6

        star_center = check(T.R5, path_graph(4), star_graph(3))
        assert star_center.outcome is Outcome.NOT_APPLICABLE

    def test_always_one_branch(self):
        sub3 = subdivided_star_graph(3)
        v = check(T.R6, path_graph(2), sub3)
        assert v.outcome is Outcome.PASS
        assert v.values["root_labels"] == [1]

        isolated = check(T.R6, path_graph(3), RootedGraph(empty_graph(2), 0))
        assert isolated.outcome is Outcome.PASS

        na = check(T.R6, path_graph(3), RootedGraph(path_graph(2), 0))
        assert na.outcome is Outcome.NOT_APPLICABLE


class TestIndependenceChecks:
    def test_alpha_deletion(self):
        v = check(T.I1, path_graph(3))
        assert v.outcome is Outcome.PASS
        assert v.values["tested_vertices"] == [0, 2]

    def test_alpha_product_both_branches(self):
        avoid = check(T.I2, path_graph(3), star_graph(2))
        assert avoid.outcome is Outcome.PASS
        assert avoid.values["root_membership"] == "IN_NONE"
        forced = check(T.I2, path_graph(3), RootedGraph(path_graph(3), 0))
        assert forced.outcome is Outcome.PASS
        assert forced.values["root_membership"] == "IN_ALL"

    def test_subset_deletion_bound(self):
        v = check(T.I3, cycle_graph(5))
        assert v.outcome is Outcome.PASS
        assert v.values["subsets_checked"] == 2**5 - 2

    def test_unused_vertex_deletion(self):
        v = check(T.I4, star_graph(3).graph)
        assert v.outcome is Outcome.PASS
        assert v.values["tested_vertices"] == [1, 2, 3]

    def test_unused_vertex_deletion_not_applicable(self):
        v = check(T.I4, cycle_graph(5))
        assert v.outcome is Outcome.NOT_APPLICABLE
        assert v.values == {"reason": "every vertex lies in some minimum independent dominating set"}

    def test_sandwich_bounds(self):
        v = check(T.I5, path_graph(4), RootedGraph(cycle_graph(3), 0))
        assert v.outcome is Outcome.PASS

    def test_private_neighbor_branches(self):
        in_none = check(T.I7, path_graph(3), RootedGraph(star_graph(3).graph, 1))
        assert in_none.outcome is Outcome.PASS
        assert in_none.values["branch"] == "root-in-no-set"

        in_all = check(T.I7, path_graph(3), star_graph(3))
        assert in_all.outcome is Outcome.PASS
        assert in_all.values["branch"] == "root-in-every-set"
        assert "bound_max" in in_all.values
        assert "bound_min_closed_variant" in in_all.values

        in_some = check(T.I7, path_graph(3), RootedGraph(cycle_graph(4), 0))
        assert in_some.outcome is Outcome.NOT_APPLICABLE

    def test_closed_forms(self):
        v = check(T.I6, path_graph(4), star_graph(2))
        assert v.outcome is Outcome.PASS and v.values["i_product"] == 6
        v = check(T.I6, path_graph(2), star_graph(3))
        assert v.outcome is Outcome.PASS and v.values["i_product"] == 4
        v = check(T.I6, path_graph(3), subdivided_star_graph(2))
        assert v.outcome is Outcome.PASS and v.values["i_product"] == 4
        assert set(v.values) == {"i_product", "expected", "product_order"}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_forms_hold_on_both_families(self, n):
        for m in range(2, 5):
            for rooted in (star_graph(m), subdivided_star_graph(m)):
                v = check(T.I6, path_graph(n), rooted)
                assert v.outcome is Outcome.PASS, (n, m, v.values)
                assert v.values["product_order"] == n * rooted.graph.n

    def test_closed_forms_apply_only_to_a_path_and_the_two_rooted_shapes(self):
        # sub: centre 0, plain leaves 1 and 2, subdivision vertex 3, root 4.
        star, sub = star_graph(3), subdivided_star_graph(3)
        p3 = path_graph(3)
        cases = [
            (cycle_graph(4), star),
            (star.graph, star),
            (path_graph(3), RootedGraph(cycle_graph(4), 0)),
            (path_graph(3), RootedGraph(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), 0)),
            (path_graph(3), RootedGraph(Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4)]), 0)),
            (path_graph(3), RootedGraph(star.graph, 1)),
            (path_graph(3), RootedGraph(sub.graph, 0)),
            (path_graph(3), RootedGraph(sub.graph, 3)),
            (path_graph(3), RootedGraph(sub.graph, 1)),
            (path_graph(3), RootedGraph(p3, 0)),
        ]
        for G, H in cases:
            v = check(T.I6, G, H)
            assert v.outcome is Outcome.NOT_APPLICABLE, (G.edges(), H.graph.edges(), H.root)
            assert set(v.values) == {"reason"}
        assert check(T.I6, path_graph(3), RootedGraph(p3, 1)).outcome is Outcome.PASS  # K_{1,2}
        # A one-vertex path is no base factor, for I6 as for every product theorem.
        with pytest.raises(ValueError, match="base factor must have at least two vertices"):
            check(T.I6, Graph(1, []), star)

    def test_closed_forms_ignore_labels(self):
        rng = random.Random(6)
        for n, rooted in ((5, star_graph(3)), (6, subdivided_star_graph(4)), (4, RootedGraph(path_graph(3), 0))):
            G, h = path_graph(n), rooted.graph
            pg, ph = rng.sample(range(G.n), G.n), rng.sample(range(h.n), h.n)
            copy = check(
                T.I6,
                Graph(G.n, [(pg[u], pg[v]) for u, v in G.edges()]),
                RootedGraph(Graph(h.n, [(ph[u], ph[v]) for u, v in h.edges()]), ph[rooted.root]),
            )
            original = check(T.I6, G, rooted)
            assert (copy.outcome, copy.values) == (original.outcome, original.values)


@pytest.mark.parametrize("theorem", [T.R2, T.R3, T.I1, T.I4])
@pytest.mark.parametrize(
    "G", [path_graph(3), path_graph(4), cycle_graph(5), star_graph(3).graph], ids=["P3", "P4", "C5", "K13"]
)
def test_a_deletion_check_solves_G_only_inside_its_listing(theorem, G, monkeypatch):
    # enumerate_optimal reads its target value with one solvers.value call,
    # and the check reads G's own value off the listing, so G is solved once
    # whether or not the lemma applies.
    real = solvers.value
    on_g = []

    def counted(graph, kind):
        if graph == G:
            on_g.append(kind)
        return real(graph, kind)

    monkeypatch.setattr(solvers, "value", counted)
    listings = []
    real_listing = harness.enumerate_optimal
    monkeypatch.setattr(harness, "enumerate_optimal", lambda g, kind: listings.append(g) or real_listing(g, kind))
    check(theorem, G)
    assert len(on_g) == 1 and listings == [G]


class TestConnectedConvexChecks:
    def test_tree_connected_domination_formula(self):
        for seed in range(5):
            t = random_tree(7, seed=seed)
            assert check(T.C2, t).outcome is Outcome.PASS
        assert check(T.C2, cycle_graph(5)).outcome is Outcome.NOT_APPLICABLE

    def test_tree_connected_domination_formula_is_not_checked_against_itself(self, monkeypatch):
        # Past the scan budget solve() returns the formula C2 states; such a
        # trial is a budget skip, not a pass.
        def formula(graph):
            raise AssertionError(f"C2 read the tree formula on a tree of order {graph.n}")

        monkeypatch.setattr(tree_dp, "tree_connected_domination", formula)
        result = run_theorem(T.C2, CampaignConfig(theorems=[T.C2], trials=10, seed=1, tree_single_max=30))
        assert result["errors"] > 0
        assert result["trials"] + result["errors"] == 10

    def test_two_value_and_iff(self):
        t2 = path_graph(3)
        plain = check(T.C4, path_graph(3), RootedGraph(t2, 1))
        assert plain.outcome is Outcome.PASS
        assert plain.values["matches_plain_form"]
        plus = check(T.C4, path_graph(3), RootedGraph(t2, 0))
        assert plus.outcome is Outcome.PASS
        assert plus.values["matches_plus_one_form"]
        for theorem in (T.C1, T.X1):
            v = check(theorem, path_graph(3), RootedGraph(t2, 0))
            assert v.outcome is Outcome.PASS

    def test_leaf_count_lemma(self):
        v = check(T.C3, path_graph(3), RootedGraph(path_graph(3), 1))
        assert v.outcome is Outcome.PASS

    def test_infeasible_on_disconnected_copy(self):
        v = check(T.C1, path_graph(2), RootedGraph(empty_graph(2), 0))
        assert v.outcome is Outcome.INFEASIBLE

    def test_convex_two_value_counterexample(self):
        # A 4-cycle with a pendant, rooted opposite the pendant's support:
        # every convex dominating set through the root needs the whole cycle,
        # so the product jumps past both claimed values.
        h = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        v = check(T.X1, path_graph(2), RootedGraph(h, 2))
        assert v.outcome is Outcome.FAIL
        assert v.values["convex_product"] == 8
        assert v.values["allowed"] == [4, 6]
        assert check_witness(v.witness).outcome is Outcome.FAIL


class TestWeaklyAndSuperChecks:
    def test_weak_tree_bounds(self):
        for seed in range(5):
            assert check(T.W2, random_tree(8, seed=seed)).outcome is Outcome.PASS

    def test_weak_product_two_value(self):
        v = check(T.W1, path_graph(2), RootedGraph(path_graph(3), 0))
        assert v.outcome is Outcome.PASS

    def test_weak_tree_product_bounds_fail_for_leafy_base(self):
        # The leaf-coefficient upper bound undercounts once the base tree has
        # more than two vertices of degree one contributing copies.
        v = check(T.W3, path_graph(3), RootedGraph(path_graph(3), 1))
        assert v.outcome is Outcome.FAIL
        assert not v.values["leaf_coefficient_upper_holds"]
        assert v.values["order_coefficient_lower_holds"]
        assert v.values["order_coefficient_upper_holds"]
        assert check_witness(v.witness).outcome is Outcome.FAIL

    def test_weak_tree_product_na_for_leaf_root(self):
        v = check(T.W3, path_graph(3), RootedGraph(path_graph(3), 0))
        assert v.outcome is Outcome.NOT_APPLICABLE

    def test_super_product_equality_and_counterexample(self):
        ok = check(T.S1, path_graph(2), RootedGraph(path_graph(3), 1))
        assert ok.outcome is Outcome.PASS and ok.values["super_product"] == 4

        bad = check(T.S1, path_graph(2), RootedGraph(path_graph(3), 0))
        assert bad.outcome is Outcome.FAIL
        assert bad.values == {"super_h": 2, "super_product": 3, "expected": 4}
        again = check_witness(bad.witness)
        assert again.outcome is Outcome.FAIL and again.values == bad.values

    def test_super_tree_bounds(self):
        for seed in range(5):
            assert check(T.S2, random_tree(9, seed=seed)).outcome is Outcome.PASS
        v = check(T.S3, path_graph(3), RootedGraph(path_graph(4), 1))
        assert v.outcome is Outcome.PASS


class TestCheckPlumbing:
    def test_product_cap(self, monkeypatch):
        # check() caps no product order itself.  product_value() reads P6 o P6
        # off root-state tables, which scan the factors one at a time.  At
        # budget 6 the super tables' H plus its pendant vertex is past it, so
        # S1 builds and scans the product, which the budget refuses.
        G, H = path_graph(6), RootedGraph(path_graph(6), 0)
        assert check(T.S1, G, H).outcome is Outcome.PASS
        assert check(T.D2, G, H).outcome is Outcome.PASS
        monkeypatch.setenv("ROOTDOM_BUDGET", "6")
        with pytest.raises(BudgetExceededError, match="order 36 exceeds the subset-scan budget"):
            check(T.S1, G, H)

    def test_missing_arguments(self):
        with pytest.raises(ValueError):
            check(T.D2, path_graph(3))
        with pytest.raises(ValueError):
            check(T.I6)

    def test_witness_round_trip_serializes(self):
        v = check(T.S1, path_graph(2), RootedGraph(path_graph(3), 0))
        payload = json.loads(json.dumps(v.witness))
        assert check_witness(payload).outcome is Outcome.FAIL

    def test_closed_form_witness_round_trip(self):
        verdict = check(T.I6, path_graph(3), star_graph(2))
        assert verdict.outcome is Outcome.PASS
        payload = json.loads(json.dumps(
            harness._witness_payload(T.I6, path_graph(3), star_graph(2), verdict.values)
        ))
        assert set(payload) == {"theorem", "values", "g", "h", "root"}
        again = check_witness(payload)
        assert (again.outcome, again.values) == (Outcome.PASS, verdict.values)


class TestCampaign:
    def test_empty_theorem_list(self):
        report = run_campaign(CampaignConfig(theorems=[], trials=3))
        assert report["results"] == [] and report["must_hold_failures"] == 0

    def test_single_theorem_report_shape(self):
        result = run_theorem(T.D2, CampaignConfig(trials=8, seed=5))
        assert result["trials"] == 8
        assert result["pass"] == 8
        assert result["fail"] == 0
        assert result["must_hold"] is True

    def test_theorem_given_by_its_id(self):
        cfg = CampaignConfig(trials=4, seed=5)
        assert run_theorem("D2", cfg) == run_theorem(T.D2, cfg)

    def test_unknown_theorem_id_raises_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_verdicts", lambda *args: ran.append(args) or iter(()))
        with pytest.raises(ValueError, match="'Z9' is not a valid TheoremId"):
            run_theorem("Z9", CampaignConfig(trials=4))
        assert ran == []

    def test_mini_campaign_deterministic(self):
        cfg = CampaignConfig(theorems=[T.D2, T.R4, T.S1, T.W3], trials=6, seed=11)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a == b

    def test_budget_skips_are_counted(self, monkeypatch):
        # Each S1 trial's H plus its pendant vertex has order >= 3, past a
        # scan budget of 2, and so does the product it falls back to.
        monkeypatch.setenv("ROOTDOM_BUDGET", "2")
        result = run_theorem(T.S1, CampaignConfig(trials=4, seed=1))
        assert result["errors"] == 4 and result["trials"] == 0

    def test_jobs_match_serial(self):
        cfg = CampaignConfig(theorems=[T.D2, T.I5], trials=5, seed=3)
        assert run_campaign(cfg, jobs=2) == run_campaign(cfg, jobs=1)

    def test_jobs_capped_at_theorem_count(self, monkeypatch):
        # The stub records the pool size and raises, so no process starts.
        import concurrent.futures

        sizes = []

        def stub(max_workers):
            sizes.append(max_workers)
            raise RuntimeError("no pool in this test")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", stub)
        cfg = CampaignConfig(theorems=[T.D2, T.I5], trials=1, seed=3)
        with pytest.raises(RuntimeError, match="no pool"):
            run_campaign(cfg, jobs=5000)
        assert sizes == [2]

    def test_failures_carry_witnesses(self):
        cfg = CampaignConfig(theorems=[T.S1], trials=40, seed=42)
        report = run_campaign(cfg)
        entry = report["results"][0]
        if entry["fail"]:
            failure = entry["failures"][0]
            assert check_witness(failure["witness"]).outcome is Outcome.FAIL

    def test_config_round_trip(self):
        cfg = CampaignConfig(
            theorems=[T.D1, T.S3], trials=9, seed=8, max_g=4, max_h=3, product_cap=18,
            deletion_n=6, tree_min=2, tree_max=5, tree_single_max=9, tree_product_cap=30,
        )
        default = CampaignConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
        again = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        with pytest.raises(ValueError, match="unknown campaign config keys"):
            CampaignConfig.from_dict({"nope": 1})
        with pytest.raises(ValueError, match=r"name each theorem once, repeated: \['D1'\]$"):
            CampaignConfig.from_dict({"theorems": ["D1", "S3", "D1"]})

    def test_must_hold_membership(self):
        assert MUST_HOLD == {
            T.D2, T.R1, T.R2, T.R3, T.R4, T.I1, T.I3, T.I4, T.I5, T.C2, T.C3,
        }


#: Theorems checked on one graph; every other sampled theorem needs G and H.
SINGLE_GRAPH = {T.R2, T.R3, T.I1, T.I3, T.I4, T.C2, T.W2, T.S2}


class TestRootStateRouting:
    #: The checks that read a product side.
    ROUTED = (
        T.D1, T.D2, T.R1, T.R4, T.R5, T.R6, T.I2, T.I5, T.I6, T.I7,
        T.C1, T.C4, T.X1, T.X2, T.W1, T.W3, T.S1, T.S3,
    )

    def test_the_budget_bounds_each_factor_not_the_product(self, monkeypatch):
        cfg = CampaignConfig(trials=12, seed=4)
        for theorem in (T.D2, T.R4, T.W1, T.S1):
            expected = [v.to_json() for v in _verdicts(theorem, cfg)]
            monkeypatch.setenv("ROOTDOM_BUDGET", "6")
            verdicts = list(_verdicts(theorem, cfg))
            monkeypatch.delenv("ROOTDOM_BUDGET")
            assert None not in verdicts  # no budget skip
            assert [v.to_json() for v in verdicts] == expected
            assert max(v.instance["g_order"] * v.instance["h_order"] for v in verdicts) > 6

    def test_routed_checks_build_no_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a routed check built the product graph")

        monkeypatch.setattr(harness, "rooted_product", refuse)
        monkeypatch.setattr(solvers, "rooted_product", refuse)
        cfg = CampaignConfig(trials=6, seed=2)
        for theorem in self.ROUTED:
            result = run_theorem(theorem, cfg)
            assert result["errors"] == 0 and result["trials"] == (30 if theorem is T.I6 else 6)
        # The guard is live: C3 builds the product by its statement.
        with pytest.raises(AssertionError, match="built the product graph"):
            run_theorem(T.C3, cfg)


class TestTheoremTable:
    def test_every_theorem_has_one_row(self):
        assert set(_THEOREMS) == set(TheoremId)
        for theorem, (checker, sampler, must_hold) in _THEOREMS.items():
            assert isinstance(must_hold, bool)
            assert callable(checker) and callable(sampler)

    def test_samplers_yield_h_exactly_for_two_factor_theorems(self):
        cfg = CampaignConfig(seed=3)
        for theorem, (_, sampler, _) in _THEOREMS.items():
            for G, H, desc in islice(sampler(11, cfg), 6):
                assert isinstance(G, Graph) and isinstance(desc, dict)
                assert (H is None) == (theorem in SINGLE_GRAPH)

    def test_samplers_own_their_count(self):
        # A seeded sampler yields config.trials instances; I6's grid runs to its end.
        for trials in (0, 7):
            cfg = CampaignConfig(seed=3, trials=trials)
            for theorem, (_, sampler, _) in _THEOREMS.items():
                assert sum(1 for _ in sampler(11, cfg)) == (30 if theorem is T.I6 else trials)

    @pytest.mark.parametrize("theorem", sorted(set(TheoremId) - SINGLE_GRAPH))
    def test_two_factor_theorem_rejects_a_lone_graph(self, theorem):
        with pytest.raises(ValueError, match="needs a base graph and a rooted graph"):
            check(theorem, path_graph(3))
        payload = {"theorem": theorem.value, "g": {"n": 3, "edges": [[0, 1], [1, 2]]}}
        with pytest.raises(ValueError, match="needs a base graph and a rooted graph"):
            check_witness(payload)

    @pytest.mark.parametrize("theorem", sorted(set(TheoremId) - SINGLE_GRAPH))
    @pytest.mark.parametrize("H", [
        RootedGraph(path_graph(3), 1), RootedGraph(path_graph(3), 0), RootedGraph(cycle_graph(4), 0),
    ], ids=["P3-centre", "P3-end", "C4"])
    def test_product_theorem_needs_a_base_of_order_two(self, theorem, H):
        # Whatever H is: R5 and R6 classify H's root before they look at G.
        with pytest.raises(ValueError, match="^parameters are undefined on the empty graph$"):
            check(theorem, Graph(0, []), H)
        with pytest.raises(ValueError, match="^the base factor must have at least two vertices$"):
            check(theorem, Graph(1, []), H)

    @pytest.mark.parametrize("theorem", sorted(SINGLE_GRAPH))
    def test_single_graph_theorem_at_orders_zero_and_one(self, theorem):
        with pytest.raises(ValueError, match="^parameters are undefined on the empty graph$"):
            check(theorem, Graph(0, []))
        assert check(theorem, Graph(1, [])).outcome is Outcome.NOT_APPLICABLE

    @pytest.mark.parametrize("theorem", sorted(SINGLE_GRAPH))
    def test_single_graph_theorem_takes_one_graph(self, theorem):
        verdict = check(theorem, path_graph(4))
        assert verdict.outcome in (Outcome.PASS, Outcome.NOT_APPLICABLE)
        with pytest.raises(ValueError, match="needs a graph"):
            check(theorem)

    @pytest.mark.parametrize("theorem", sorted(SINGLE_GRAPH))
    def test_single_graph_theorem_rejects_an_h(self, theorem):
        with pytest.raises(ValueError, match="takes one graph, not a rooted graph"):
            check(theorem, cycle_graph(4), RootedGraph(path_graph(3), 0))
        payload = {
            "theorem": theorem.value,
            "g": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
            "h": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "root": 0,
        }
        with pytest.raises(ValueError, match="takes one graph, not a rooted graph"):
            check_witness(payload)
