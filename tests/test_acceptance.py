"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact (integer equality); the two timed criteria assert
their stated wall-clock budgets.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from helpers import random_gnp
from rootdom.families import child_seed, random_connected_graph, random_tree
from rootdom.graph import is_tree, leaves, support_vertices
from rootdom.harness import (
    CampaignConfig,
    Outcome,
    TheoremId,
    check,
    check_witness,
    run_campaign,
    run_theorem,
)
from rootdom.naive import naive_roman, naive_value
from rootdom.product import RootedGraph, rooted_product
from rootdom.solvers import (
    InfeasibleParameterError,
    ParameterKind,
    classify_root,
    solve,
)

PK = ParameterKind
T = TheoremId

SEED = 42


def _report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def _run(theorem: T, trials: int, **overrides) -> dict:
    cfg = CampaignConfig(theorems=[theorem], trials=trials, seed=SEED, **overrides)
    return run_theorem(theorem, cfg)


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    mismatches = []
    for idx in range(100):
        n = 2 + idx % 7
        p = (0.3, 0.5, 0.8)[idx % 3]
        g = random_connected_graph(n, p, seed=child_seed(SEED, idx))
        for kind in PK:
            expected = naive_value(g, kind.value)
            try:
                got = solve(g, kind).value
            except InfeasibleParameterError:
                got = None
            if got != expected:
                mismatches.append((idx, kind.value, got, expected))
    elapsed = time.monotonic() - start
    assert not mismatches, mismatches
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    _report("1 (oracle equivalence, 100 graphs x 8 solvers)", f"in {elapsed:.1f}s")


def test_criterion_02_domination_two_value():
    result = _run(T.D2, 200)
    assert result["trials"] == 200
    assert result["pass"] == 200
    assert result["fail"] == 0 and result["errors"] == 0
    _report("2 (two-value domination on 200 products)")


def test_criterion_03_domination_lemma():
    result = _run(T.D1, 200)
    assert result["fail"] == 0
    assert result["pass"] >= 1  # applicable instances must occur
    assert result["pass"] + result["not_applicable"] == 200
    _report("3 (domination lemma on classified roots)", f"applicable={result['pass']}")


def test_criterion_04_roman_suite():
    r1 = _run(T.R1, 200)
    assert r1["fail"] == 0 and r1["pass"] == 200

    r2 = _run(T.R2, 100)
    assert r2["fail"] == 0 and r2["pass"] == 100

    r3 = _run(T.R3, 100)
    assert r3["fail"] == 0 and r3["pass"] >= 1

    r4 = _run(T.R4, 200)
    assert r4["fail"] == 0 and r4["pass"] == 200

    r5 = _run(T.R5, 200)
    assert r5["fail"] == 0 and r5["pass"] >= 1

    r6 = _run(T.R6, 200)
    assert r6["fail"] == 0 and r6["pass"] >= 1

    # Each exact-value branch must be exercised by an applicable instance:
    # a two-vertex path root gives labels {0,1,2}, a path end gives {0},
    # stars give {0} at leaves, and the subdivided star root is pinned at 1.
    from rootdom.families import path_graph, star_graph, subdivided_star_graph

    branch_ii = check(T.R5, path_graph(4), RootedGraph(path_graph(2), 0))
    assert branch_ii.applicable and branch_ii.outcome is Outcome.PASS
    branch_i = check(T.R5, path_graph(4), RootedGraph(path_graph(3), 0))
    assert branch_i.applicable and branch_i.outcome is Outcome.PASS
    star_leaf = check(T.R5, path_graph(4), RootedGraph(star_graph(3).graph, 2))
    assert star_leaf.applicable and star_leaf.values["branch"] == "always-zero"
    branch_one = check(T.R6, path_graph(2), subdivided_star_graph(3))
    assert branch_one.applicable and branch_one.outcome is Outcome.PASS
    _report("4 (Roman suite R1-R6)", f"R5 applicable={r5['pass']}, R6 applicable={r6['pass']}")


def test_criterion_05_closed_forms():
    from rootdom.families import path_graph, star_graph, subdivided_star_graph

    for n in range(2, 7):
        for m in range(2, 5):
            cat = check(T.I6, path_graph(n), star_graph(m))
            assert cat.outcome is Outcome.PASS, (n, m, cat.values)
            sub = check(T.I6, path_graph(n), subdivided_star_graph(m))
            assert sub.outcome is Outcome.PASS, (n, m, sub.values)
    _report("5 (independent-domination closed forms, n=2..6, m=2..4)")


def test_criterion_06_independence_suite():
    for theorem in (T.I2, T.I5, T.I7):
        result = _run(theorem, 200)
        assert result["fail"] == 0 and result["errors"] == 0, theorem
        assert result["pass"] >= 1
    for theorem in (T.I1, T.I3, T.I4):
        result = _run(theorem, 100)
        assert result["fail"] == 0 and result["errors"] == 0, theorem
        assert result["pass"] >= 1

    # The upper-bound reading gated above is min-over-sets; the max reading
    # must be recorded alongside, not gated.
    from rootdom.families import path_graph, star_graph

    verdict = check(T.I7, path_graph(3), star_graph(3))
    assert verdict.values["branch"] == "root-in-every-set"
    assert {"bound_min", "bound_max", "bound_min_closed_variant"} <= set(verdict.values)
    _report("6 (independence bounds I1-I5, I7)")


def test_criterion_07_connected_convex():
    for theorem in (T.C1, T.X1):
        result = _run(theorem, 200)
        assert result["trials"] == 200
        assert result["fail"] == 0 and result["infeasible"] == 0, theorem
    for theorem in (T.C3, T.C4, T.X2):
        result = _run(theorem, 200)
        assert result["fail"] == 0, theorem

    # 100 random tree pairs, orders 3-6, every root of the second factor.
    pair_checks = 0
    for pair in range(100):
        rng_seed = child_seed(SEED, 7_000 + pair)
        t1 = random_tree(3 + pair % 4, seed=rng_seed)
        t2 = random_tree(3 + (pair // 4) % 4, seed=child_seed(rng_seed, 1))
        leaf_set = leaves(t2)
        gc_h = solve(t2, PK.CONNECTED).value
        gx_h = solve(t2, PK.CONVEX).value
        for root in range(t2.n):
            product = rooted_product(t1, RootedGraph(t2, root)).product
            gc = solve(product, PK.CONNECTED).value
            gx = solve(product, PK.CONVEX).value
            if root in leaf_set:
                assert gc == t1.n * (gc_h + 1), (pair, root)
                assert gx == t1.n * (gx_h + 1), (pair, root)
            else:
                assert gc == t1.n * gc_h, (pair, root)
                assert gx == t1.n * gx_h, (pair, root)
            pair_checks += 1
    _report("7 (connected/convex two-value and tree iff)", f"root checks={pair_checks}")


def test_criterion_08_tree_facts():
    for idx in range(100):
        n = 3 + idx % 8
        t = random_tree(n, seed=child_seed(SEED, 8_000 + idx))
        n1 = len(leaves(t))
        s = len(support_vertices(t))
        assert solve(t, PK.CONNECTED).value == n - n1
        gw = solve(t, PK.WEAKLY_CONNECTED).value
        assert 2 * gw >= n - n1 + 1 and gw <= n - n1
        sp = solve(t, PK.SUPER).value
        assert 2 * sp >= n and sp <= n - s

    for idx in range(50):
        t1 = random_tree(3 + idx % 3, seed=child_seed(SEED, 8_500 + idx))
        t2 = random_tree(3 + (idx // 3) % 3, seed=child_seed(SEED, 8_800 + idx))
        for root in range(t2.n):
            product = rooted_product(t1, RootedGraph(t2, root)).product
            assert is_tree(product)
            branch = len(leaves(t2)) - 1 if root in leaves(t2) else len(leaves(t2))
            assert len(leaves(product)) == t1.n * branch
    _report("8 (tree facts: connected/weakly/super bounds, leaf branches)")


def test_criterion_09_reported_claims_reproducible(tmp_path):
    rates = {}
    for theorem in (T.W1, T.W3, T.S1, T.S3):
        result = _run(theorem, 100)
        assert result["trials"] == 100
        rates[theorem.value] = (result["pass"], result["fail"], result["not_applicable"])
        for idx, failure in enumerate(result["failures"]):
            verdict = check_witness(failure["witness"])
            assert verdict.outcome is Outcome.FAIL, (theorem, idx)
        if result["failures"]:
            from rootdom.cli import main

            witness_path = tmp_path / f"{theorem.value}.json"
            witness_path.write_text(json.dumps(result["failures"][0]["witness"]), encoding="utf-8")
            assert main(["--quiet", "verify", "--witness", str(witness_path)]) == 0
    _report("9 (reported claims W1/W3/S1/S3)", f"pass/fail/na rates={rates}")


def test_criterion_10_figure_fixture():
    from rootdom.families import cycle_graph, path_graph

    fixture = json.loads(
        (Path(__file__).parent / "fixtures" / "p4_c3.json").read_text(encoding="utf-8")
    )
    product = rooted_product(path_graph(4), RootedGraph(cycle_graph(3), 0)).product
    assert product.n == fixture["n"] == 12
    assert product.m == fixture["m"] == 15
    gamma_solver = solve(product, PK.DOMINATION).value
    roman_solver = solve(product, PK.ROMAN).value
    assert gamma_solver == naive_value(product, "gamma") == fixture["gamma"] == 4
    assert roman_solver == naive_roman(product) == fixture["roman"] == 8
    _report("10 (figure fixture: 12 vertices, 15 edges, gamma=4, roman=8)")


def test_criterion_11_campaign_determinism_and_runtime():
    config = CampaignConfig()
    start = time.monotonic()
    first = run_campaign(config)
    mid = time.monotonic()
    second = run_campaign(config)
    end = time.monotonic()
    text = json.dumps(first, sort_keys=True)
    assert text == json.dumps(second, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "f1c5f89661444551"
    assert mid - start < 600.0 and end - mid < 600.0
    assert first["must_hold_failures"] == 0
    _report(
        "11 (default campaign deterministic)",
        f"runs {mid - start:.1f}s and {end - mid:.1f}s, must-hold failures=0",
    )
