"""Machine checks for the rooted-product domination theorems.

Every theorem id has one row in ``_THEOREMS``: ``(checker, sampler,
must_hold)``.  The checker evaluates the claim's hypothesis on a concrete
instance, computes both sides exactly with the solvers, and returns the
values; it reads the value of the product G o H only through
``solvers.product_value``, which builds no product while both factors fit
the scan budget (C3 alone builds G o H, since it checks the product's
shape).  The sampler is the theorem's stream of ``(G, H or None,
descriptor)`` instances and owns its length: a seeded sampler yields
``config.trials`` instances, and a finite one (``_closed_forms``, I6's grid)
runs to its end whatever the seed and ``trials``; a single-graph sampler
(``_gnps``, ``_trees``) yields no H.  ``must_hold`` marks the theorems with
airtight proofs, whose failure makes a campaign exit nonzero; the remaining
claims get reported rather than asserted, and a failing instance is a
first-class finding, not a crash.

The vertex-deletion lemmas R2, R3, I1 and I4 share one check,
``_deletion_check``: it lists G's optima once with ``enumerate_optimal``,
reads G's value off that listing, and solves only the graphs G - v it
tests.

A FAIL verdict always carries a standalone witness payload (edge lists plus
every computed value) from which ``check_witness`` reproduces the verdict
deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial
from itertools import combinations, repeat

from . import solvers
from .families import (
    child_seed,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
    subdivided_star_graph,
)
from .graph import (
    Graph,
    delete_vertices,
    is_tree,
    leaves,
    private_neighbor_set,
    support_vertices,
)
from .product import RootedGraph, rooted_product
from .solvers import (
    BudgetExceededError,
    InfeasibleParameterError,
    Membership,
    ParameterKind,
    classify_root,
    enumerate_optimal,
    solve,
)

PK = ParameterKind


class TheoremId(str, Enum):
    D1 = "D1"
    D2 = "D2"
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    R6 = "R6"
    I1 = "I1"
    I2 = "I2"
    I3 = "I3"
    I4 = "I4"
    I5 = "I5"
    I6 = "I6"
    I7 = "I7"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    X1 = "X1"
    X2 = "X2"
    W1 = "W1"
    W2 = "W2"
    W3 = "W3"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


class Outcome(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    INFEASIBLE = "INFEASIBLE"


@dataclass
class TheoremVerdict:
    theorem: TheoremId
    instance: dict
    outcome: Outcome
    values: dict
    witness: dict | None = None

    @property
    def applicable(self) -> bool:
        """The instance met the theorem's hypotheses and was checked."""
        return self.outcome in (Outcome.PASS, Outcome.FAIL)

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem.value,
            "instance": self.instance,
            "applicable": self.applicable,
            "outcome": self.outcome.value,
            "values": self.values,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _graph_payload(graph: Graph) -> dict:
    return {"n": graph.n, "edges": [list(e) for e in graph.edges()]}


def _witness_payload(theorem: TheoremId, G: Graph, H: RootedGraph | None, values: dict) -> dict:
    payload: dict = {"theorem": theorem.value, "values": values, "g": _graph_payload(G)}
    if H is not None:
        payload["h"] = _graph_payload(H.graph)
        payload["root"] = H.root
    return payload


# -- per-theorem checkers ----------------------------------------------------
#
# Each returns (ok, values).  ``ok`` is None when the hypothesis does not
# hold, so the theorem does not apply to the instance.


def _check_D1(G, H):
    cls = classify_root(H, PK.DOMINATION)
    values = {"root_membership": cls.membership.value}
    if cls.membership is Membership.IN_SOME:
        return None, values
    gamma_h = cls.value
    gamma_gh = solvers.product_value(G, H, PK.DOMINATION)
    values.update(
        {"gamma_h": gamma_h, "gamma_product": gamma_gh, "expected": G.n * gamma_h}
    )
    return gamma_gh == G.n * gamma_h, values


def _check_D2(G, H):
    gamma_g = solvers.value(G, PK.DOMINATION)
    gamma_h = solvers.value(H.graph, PK.DOMINATION)
    gamma_gh = solvers.product_value(G, H, PK.DOMINATION)
    allowed = {G.n * gamma_h, G.n * (gamma_h - 1) + gamma_g}
    values = {
        "gamma_g": gamma_g,
        "gamma_h": gamma_h,
        "gamma_product": gamma_gh,
        "allowed": sorted(allowed),
    }
    return gamma_gh in allowed, values


def _roman_chain(value_of) -> tuple[bool, dict]:
    """gamma <= gamma_R <= 2 gamma, with ``value_of(kind)`` one graph's values."""
    g = value_of(PK.DOMINATION)
    r = value_of(PK.ROMAN)
    return g <= r <= 2 * g, {"gamma": g, "roman": r}


def _check_R1(G, H):
    ok_g, vals_g = _roman_chain(partial(solvers.value, G))
    ok_h, vals_h = _roman_chain(partial(solvers.value, H.graph))
    ok_p, vals_p = _roman_chain(partial(solvers.product_value, G, H))
    return ok_g and ok_h and ok_p, {"g": vals_g, "h": vals_h, "product": vals_p}


def _deletion_check(G, kind: PK, cases, reason: str | None = None):
    """One vertex-deletion lemma (R2, R3, I1, I4) on G of order >= 2.

    G's optima of ``kind`` are listed once, and G's value is read off that
    listing.  ``cases(optima, value)`` maps each tested vertex v to its
    ``(fields, low, high)`` cases: the lemma bounds the value of G - v to
    [low, high], and a violation records v, ``fields`` and that value.  With
    no tested vertex the lemma does not apply, for ``reason``.  The values
    list the tested vertices, or, with no ``reason`` (R2, which tests every
    vertex), count the optima.
    """
    if G.n < 2:
        return None, {"reason": "needs order >= 2"}
    optima = enumerate_optimal(G, kind)
    base = optima[0].weight if kind is PK.ROMAN else len(optima[0])
    tests = cases(optima, base)
    if not tests:
        return None, {"reason": reason}
    bad = []
    for v, bounds in tests.items():
        deleted = solvers.value(delete_vertices(G, {v}).graph, kind)
        bad += [
            {"v": v, **fields, f"{kind.value}_deleted": deleted}
            for fields, low, high in bounds
            if not low <= deleted <= high
        ]
    summary = {"tested_vertices": list(tests)} if reason else {"assignments": len(optima)}
    return not bad, {kind.value: base, **summary, "violations": bad}


def _check_R2(G, H):
    # Each label v takes in some optimum bounds gamma_R(G - v) from below by
    # gamma_R - 1, and from above by gamma_R (label 0), gamma_R - 1 (label 1)
    # or gamma_R + deg(v) - 2 (label 2).
    return _deletion_check(G, PK.ROMAN, lambda fns, roman: {
        v: [
            ({"label": label}, roman - 1, (roman, roman - 1, roman + G.degree(v) - 2)[label])
            for label in sorted({fn.label(v) for fn in fns})
        ]
        for v in range(G.n)
    })


def _check_R3(G, H):
    return _deletion_check(
        G, PK.ROMAN,
        lambda fns, roman: {
            v: [({}, roman, roman)] for v in range(G.n) if all(fn.label(v) == 0 for fn in fns)
        },
        "no vertex is 0-labeled in every assignment",
    )


def _check_R4(G, H):
    gamma_g = solvers.value(G, PK.DOMINATION)
    roman_h = solvers.value(H.graph, PK.ROMAN)
    roman_gh = solvers.product_value(G, H, PK.ROMAN)
    lower = G.n * (roman_h - 1) + gamma_g
    upper = G.n * roman_h
    values = {
        "gamma_g": gamma_g,
        "roman_h": roman_h,
        "roman_product": roman_gh,
        "lower": lower,
        "upper": upper,
    }
    return lower <= roman_gh <= upper, values


def _check_R5(G, H):
    cls = classify_root(H, PK.ROMAN)
    rv = cls.roman_values or frozenset()
    values = {"root_labels": sorted(rv)}
    branch_zero = rv == frozenset({0})
    branch_one_two = {1, 2} <= rv
    if not branch_zero and not branch_one_two:
        return None, values
    roman_h = cls.value
    roman_gh = solvers.product_value(G, H, PK.ROMAN)
    if branch_zero:
        expected = G.n * roman_h
        values["branch"] = "always-zero"
    else:
        gamma_g = solvers.value(G, PK.DOMINATION)
        expected = G.n * (roman_h - 1) + gamma_g
        values["branch"] = "labels-one-and-two"
        values["gamma_g"] = gamma_g
    values.update({"roman_h": roman_h, "roman_product": roman_gh, "expected": expected})
    return roman_gh == expected, values


def _check_R6(G, H):
    cls = classify_root(H, PK.ROMAN)
    rv = cls.roman_values or frozenset()
    values = {"root_labels": sorted(rv)}
    if rv != frozenset({1}):
        return None, values
    roman_h = cls.value
    roman_g = solvers.value(G, PK.ROMAN)
    roman_gh = solvers.product_value(G, H, PK.ROMAN)
    expected = G.n * (roman_h - 1) + roman_g
    values.update(
        {"roman_h": roman_h, "roman_g": roman_g, "roman_product": roman_gh, "expected": expected}
    )
    return roman_gh == expected, values


def _check_I1(G, H):
    return _deletion_check(
        G, PK.INDEPENDENCE,
        lambda sets, alpha: {v: [({}, 0, alpha - 1)] for v in sorted(frozenset.intersection(*sets))},
        "no vertex lies in every maximum independent set",
    )


def _check_I2(G, H):
    cls = classify_root(H, PK.INDEPENDENCE)
    alpha_h = cls.value
    alpha_gh = solvers.product_value(G, H, PK.INDEPENDENCE)
    values = {"root_membership": cls.membership.value, "alpha_h": alpha_h, "alpha_product": alpha_gh}
    if cls.membership is Membership.IN_ALL:
        alpha_g = solvers.value(G, PK.INDEPENDENCE)
        expected = G.n * (alpha_h - 1) + alpha_g
        values["alpha_g"] = alpha_g
    else:
        expected = G.n * alpha_h
    values["expected"] = expected
    return alpha_gh == expected, values


def _check_I3(G, H):
    """i(G - X) >= i(G) - |X| for every proper nonempty X, by increasing |X|.

    Every value is read off one table of i(G[U]) over the vertex masks U,
    ``solvers.induced_independent_domination``.  Its candidates for U are
    the independent sets I of G with I <= U <= N[I], which are exactly the
    independent dominating sets of G[U], and it takes at most 3^n steps to
    build.  Past the scan budget it raises ``BudgetExceededError``, on
    trees too.
    """
    if G.n < 2:
        return None, {"reason": "needs order >= 2"}
    table = solvers.induced_independent_domination(G)
    full = (1 << G.n) - 1
    i_g = table[full]
    bad = []
    checked = 0
    for k in range(1, G.n):
        for combo in combinations(range(G.n), k):
            i_del = table[full ^ sum(1 << v for v in combo)]
            checked += 1
            if not i_del >= i_g - k:
                bad.append({"removed": list(combo), "i_deleted": i_del})
    values = {"i": i_g, "subsets_checked": checked, "violations": bad}
    return not bad, values


def _check_I4(G, H):
    return _deletion_check(
        G, PK.INDEPENDENT_DOMINATION,
        lambda sets, i: {v: [({}, i, i)] for v in range(G.n) if not any(v in s for s in sets)},
        "every vertex lies in some minimum independent dominating set",
    )


def _check_I5(G, H):
    i_g = solvers.value(G, PK.INDEPENDENT_DOMINATION)
    i_h = solvers.value(H.graph, PK.INDEPENDENT_DOMINATION)
    alpha_g = solvers.value(G, PK.INDEPENDENCE)
    h_minus_root = delete_vertices(H.graph, {H.root}).graph
    i_h_del = solvers.value(h_minus_root, PK.INDEPENDENT_DOMINATION)
    i_gh = solvers.product_value(G, H, PK.INDEPENDENT_DOMINATION)
    lower = G.n * (i_h - 1) + i_g
    upper = i_h * alpha_g + i_h_del * (G.n - alpha_g)
    values = {
        "i_g": i_g,
        "i_h": i_h,
        "alpha_g": alpha_g,
        "i_h_minus_root": i_h_del,
        "i_product": i_gh,
        "lower": lower,
        "upper": upper,
    }
    return lower <= i_gh <= upper, values


def _check_I6(G, H):
    """The closed forms of i(P_n o H), with H recognised by its degrees: a
    star K_{1,m} rooted at its centre gives m*n - ceil(n/2)*(m - 1), and a
    subdivided star rooted at the end of its subdivided edge gives
    n + ceil(n/3).  P3 rooted at an end, the m = 1 subdivided star, is
    neither."""
    if not (G.n >= 2 and max(map(G.degree, range(G.n))) <= 2 and is_tree(G)):
        return None, {"reason": "needs a path of order >= 2"}
    h, r = H.graph, H.root
    # With |H| - 1 edges, the degrees tested below account for every edge of
    # H, so H is a tree of exactly the shape named.
    tree_sized = h.m == h.n - 1
    leaf_root = tree_sized and h.degree(r) == 1
    s = min(h.neighbors(r)) if leaf_root else r  # the root's neighbour
    if tree_sized and h.degree(r) == h.n - 1 >= 2:
        m = h.n - 1
        expected = m * G.n - _ceil_div(G.n, 2) * (m - 1)
    elif leaf_root and h.degree(s) == 2 and h.degree(min(h.neighbors(s) - {r})) == h.n - 2 >= 2:
        expected = G.n + _ceil_div(G.n, 3)
    else:
        return None, {"reason": "needs a star rooted at its centre, or a subdivided "
                      "star rooted at the end of its subdivided edge"}
    i_gh = solvers.product_value(G, H, PK.INDEPENDENT_DOMINATION)
    return i_gh == expected, {"i_product": i_gh, "expected": expected, "product_order": G.n * h.n}


def _check_I7(G, H):
    cls = classify_root(H, PK.INDEPENDENT_DOMINATION)
    values = {"root_membership": cls.membership.value}
    if cls.membership is Membership.IN_SOME:
        return None, values
    i_h = cls.value
    i_gh = solvers.product_value(G, H, PK.INDEPENDENT_DOMINATION)
    values.update({"i_h": i_h, "i_product": i_gh})
    if cls.membership is Membership.IN_NONE:
        expected = G.n * i_h
        values.update({"branch": "root-in-no-set", "expected": expected})
        return i_gh == expected, values

    alpha_g = solvers.value(G, PK.INDEPENDENCE)
    i_sets = enumerate_optimal(H.graph, PK.INDEPENDENT_DOMINATION)
    open_sizes = [
        len(private_neighbor_set(H.graph, s, H.root)) for s in i_sets
    ]
    closed_sizes = [
        len(private_neighbor_set(H.graph, s, H.root, closed_subtrahend=True))
        for s in i_sets
    ]

    def bound(pn: int) -> int:
        return alpha_g * i_h + (G.n - alpha_g) * (pn + i_h - 1)

    values.update(
        {
            "branch": "root-in-every-set",
            "alpha_g": alpha_g,
            "bound_min": bound(min(open_sizes)),
            "bound_max": bound(max(open_sizes)),
            "bound_min_closed_variant": bound(min(closed_sizes)),
            "bound_max_closed_variant": bound(max(closed_sizes)),
        }
    )
    # Gate on the tightest reading of the stated bound (min over all
    # minimum independent dominating sets); the other readings are recorded.
    return i_gh <= values["bound_min"], values


def _two_value_check(kind: PK, plus_g: bool, G, H):
    """C1, X1 and W1: the product value is n*h or n*(h+1), or with ``plus_g``
    n*h or n*h + g."""
    param_h = solvers.value(H.graph, kind)
    param_gh = solvers.product_value(G, H, kind)
    if plus_g:
        param_g = solvers.value(G, kind)
        allowed = {G.n * param_h, G.n * param_h + param_g}
    else:
        allowed = {G.n * param_h, G.n * (param_h + 1)}
    values = {
        f"{kind.value}_h": param_h,
        f"{kind.value}_product": param_gh,
        "allowed": sorted(allowed),
    }
    return param_gh in allowed, values


def _check_C2(G, H):
    if not (is_tree(G) and G.n >= 3):
        return None, {"reason": "needs a tree of order >= 3"}
    # The subset scan, not value(): on a tree value() is the formula checked
    # here, and so is solve() past the scan budget, so such a trial is skipped.
    solvers._require_scan(G.n, "C2")
    n1 = len(leaves(G))
    value = solve(G, PK.CONNECTED).value
    values = {"connected": value, "n": G.n, "leaf_count": n1, "expected": G.n - n1}
    return value == G.n - n1, values


def _tree_pair_applicable(G, H) -> bool:
    return is_tree(G) and G.n >= 3 and is_tree(H.graph) and H.graph.n >= 3


def _check_C3(G, H):
    if not _tree_pair_applicable(G, H):
        return None, {"reason": "needs two trees of order >= 3"}
    product = rooted_product(G, H).product
    root_is_leaf = H.root in leaves(H.graph)
    n1_h = len(leaves(H.graph))
    expected_leaves = G.n * (n1_h - 1) if root_is_leaf else G.n * n1_h
    values = {
        "product_is_tree": is_tree(product),
        "product_order": product.n,
        "expected_order": G.n * H.graph.n,
        "product_leaves": len(leaves(product)),
        "expected_leaves": expected_leaves,
        "root_is_leaf": root_is_leaf,
    }
    ok = (
        values["product_is_tree"]
        and values["product_order"] == values["expected_order"]
        and values["product_leaves"] == expected_leaves
    )
    return ok, values


def _iff_tree_check(kind: PK, G, H):
    if not _tree_pair_applicable(G, H):
        return None, {"reason": "needs two trees of order >= 3"}
    param_h = solvers.value(H.graph, kind)
    param_gh = solvers.product_value(G, H, kind)
    root_is_leaf = H.root in leaves(H.graph)
    eq_plain = param_gh == G.n * param_h
    eq_plus = param_gh == G.n * (param_h + 1)
    values = {
        f"{kind.value}_h": param_h,
        f"{kind.value}_product": param_gh,
        "root_is_leaf": root_is_leaf,
        "matches_plain_form": eq_plain,
        "matches_plus_one_form": eq_plus,
    }
    ok = (eq_plain == (not root_is_leaf)) and (eq_plus == root_is_leaf)
    return ok, values


def _check_W2(G, H):
    if not (is_tree(G) and G.n >= 3):
        return None, {"reason": "needs a tree of order >= 3"}
    n1 = len(leaves(G))
    value = solvers.value(G, PK.WEAKLY_CONNECTED)
    values = {"weakly": value, "n": G.n, "leaf_count": n1}
    ok = (2 * value >= G.n - n1 + 1) and (value <= G.n - n1)
    return ok, values


def _check_W3(G, H):
    if not (is_tree(G) and is_tree(H.graph)):
        return None, {"reason": "needs two trees"}
    if H.root in leaves(H.graph):
        return None, {"reason": "root must not be an end vertex"}
    w_h = solvers.value(H.graph, PK.WEAKLY_CONNECTED)
    w_gh = solvers.product_value(G, H, PK.WEAKLY_CONNECTED)
    n1_g = len(leaves(G))
    # First claimed bound pair (leaf-count coefficients), second (order
    # coefficients); both are evaluated exactly as stated.
    a_lower = 2 * w_gh >= n1_g * w_h + 1
    a_upper = w_gh <= n1_g * (2 * w_h - 1)
    b_lower = 2 * w_gh >= w_h * G.n + 1
    b_upper = w_gh <= 2 * G.n * w_h
    values = {
        "weakly_h": w_h,
        "weakly_product": w_gh,
        "leaf_count_g": n1_g,
        "n_g": G.n,
        "leaf_coefficient_lower_holds": a_lower,
        "leaf_coefficient_upper_holds": a_upper,
        "order_coefficient_lower_holds": b_lower,
        "order_coefficient_upper_holds": b_upper,
    }
    return a_lower and a_upper and b_lower and b_upper, values


def _check_S1(G, H):
    sp_h = solvers.value(H.graph, PK.SUPER)
    sp_gh = solvers.product_value(G, H, PK.SUPER)
    expected = G.n * sp_h
    values = {"super_h": sp_h, "super_product": sp_gh, "expected": expected}
    return sp_gh == expected, values


def _check_S2(G, H):
    if not (is_tree(G) and G.n >= 3):
        return None, {"reason": "needs a tree of order >= 3"}
    value = solvers.value(G, PK.SUPER)
    s = len(support_vertices(G))
    values = {"super": value, "n": G.n, "support_count": s}
    ok = (2 * value >= G.n) and (value <= G.n - s)
    return ok, values


def _check_S3(G, H):
    if not _tree_pair_applicable(G, H):
        return None, {"reason": "needs two trees of order >= 3"}
    s_h = len(support_vertices(H.graph))
    sp_gh = solvers.product_value(G, H, PK.SUPER)
    lower = G.n * s_h
    upper = G.n * (H.graph.n - s_h)
    values = {
        "support_count_h": s_h,
        "super_product": sp_gh,
        "lower": lower,
        "upper": upper,
    }
    return lower <= sp_gh <= upper, values


# -- instance samplers -------------------------------------------------------
#
# A sampler takes the theorem's seed and the campaign config and yields
# (G, H or None, descriptor) for each trial, ``config.trials`` of them unless
# the sampler is a fixed finite set.


_BASE_FAMILIES = ("path", "cycle", "complete", "star", "random-tree", "random-connected")


def _sample_factor(rng: random.Random, max_n: int) -> tuple[Graph, dict]:
    """One connected factor graph of order 2..max_n plus its descriptor."""
    while True:
        family = rng.choice(_BASE_FAMILIES)
        if family == "path":
            n = rng.randint(2, max_n)
            return path_graph(n), {"family": family, "n": n}
        if family == "cycle":
            if max_n < 3:
                continue
            n = rng.randint(3, max_n)
            return cycle_graph(n), {"family": family, "n": n}
        if family == "complete":
            n = rng.randint(2, max_n)
            return complete_graph(n), {"family": family, "n": n}
        if family == "star":
            if max_n < 3:
                continue
            m = rng.randint(2, max_n - 1)
            return star_graph(m).graph, {"family": family, "m": m}
        if family == "random-tree":
            n = rng.randint(2, max_n)
            seed = rng.randrange(1 << 48)
            return random_tree(n, seed), {"family": family, "n": n, "seed": seed}
        n = rng.randint(2, max_n)
        seed = rng.randrange(1 << 48)
        p = rng.choice((0.3, 0.5, 0.8))
        return random_connected_graph(n, p, seed), {"family": family, "n": n, "p": p, "seed": seed}


_P3 = path_graph(3)
_STAR2 = star_graph(2).graph
_STAR3 = star_graph(3).graph
_SUB2 = subdivided_star_graph(2)
_SUB3 = subdivided_star_graph(3)

#: Rooted factors I7 draws half its H factors from.
_I7_SPECIALS = (
    (_STAR2, 0, {"family": "star", "m": 2, "root": 0}),
    (_STAR2, 1, {"family": "star", "m": 2, "root": 1}),
    (_STAR3, 0, {"family": "star", "m": 3, "root": 0}),
    (_STAR3, 1, {"family": "star", "m": 3, "root": 1}),
    (_SUB2.graph, _SUB2.root, {"family": "subdivided-star", "m": 2, "root": _SUB2.root}),
)

#: Rooted factors covering every Roman root-label branch; R4-R6 draw half
#: their H factors from here.
_ROMAN_SPECIALS = (
    (path_graph(2), 0, {"family": "path", "n": 2, "root": 0}),
    (_P3, 0, {"family": "path", "n": 3, "root": 0}),
    (_P3, 1, {"family": "path", "n": 3, "root": 1}),
    *_I7_SPECIALS,
    (_SUB3.graph, _SUB3.root, {"family": "subdivided-star", "m": 3, "root": _SUB3.root}),
    (empty_graph(2), 0, {"family": "empty", "n": 2, "root": 0}),
    (empty_graph(3), 0, {"family": "empty", "n": 3, "root": 0}),
)


def _product_instance(rng: random.Random, config: CampaignConfig, specials=(), max_h: int = 0):
    """A base G and a rooted H of product order at most ``product_cap``: H of
    order up to max(``config.max_h``, ``max_h``), or half the time one of
    ``specials``."""
    max_h = max(config.max_h, max_h)
    for _ in range(200):
        g, g_desc = _sample_factor(rng, config.max_g)
        if specials and rng.random() < 0.5:
            h_graph, root, h_desc = specials[rng.randrange(len(specials))]
        else:
            h_graph, h_desc = _sample_factor(rng, max_h)
            root = rng.randrange(h_graph.n)
        h_desc = {**h_desc, "root": root}  # a fresh dict per trial
        if g.n * h_graph.n <= config.product_cap:
            return g, RootedGraph(h_graph, root), {"g": g_desc, "h": h_desc}
    raise ValueError(
        f"could not sample a product instance of order <= {config.product_cap} "
        "in 200 tries; raise product_cap"
    )


def _gnp_instance(rng: random.Random, config: CampaignConfig) -> tuple[Graph, None, dict]:
    """One G(n, p) graph of order up to ``deletion_n``."""
    n = rng.randint(2, config.deletion_n)
    p = rng.choice((0.3, 0.5, 0.7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges), None, {"family": "gnp", "n": n, "p": p}


def _tree_instance(rng: random.Random, config: CampaignConfig) -> tuple[Graph, None, dict]:
    """One random tree of order up to ``tree_single_max``."""
    n = rng.randint(max(3, config.tree_min), config.tree_single_max)
    seed = rng.randrange(1 << 48)
    return random_tree(n, seed), None, {"family": "random-tree", "n": n, "seed": seed}


def _per_trial(draw, seed: int, config: CampaignConfig):
    """``config.trials`` instances, trial t drawn by ``draw`` from
    ``Random(child_seed(seed, t + 1))``."""
    for trial in range(config.trials):
        yield draw(random.Random(child_seed(seed, trial + 1)), config)


_products = partial(_per_trial, _product_instance)
_roman_products = partial(_per_trial, partial(_product_instance, specials=_ROMAN_SPECIALS, max_h=5))
_i7_products = partial(_per_trial, partial(_product_instance, specials=_I7_SPECIALS))
_gnps = partial(_per_trial, _gnp_instance)
_trees = partial(_per_trial, _tree_instance)


def _tree_pairs(cap_field: str, seed: int, config: CampaignConfig):
    """``config.trials`` pairs (T1, rooted T2) of product order up to the
    config field ``cap_field``, every root of T2 in turn; all pairs come from
    one ``Random(child_seed(seed, 0))``, a pair drawn only when needed."""
    rng = random.Random(child_seed(seed, 0))
    cap = getattr(config, cap_field)
    left = config.trials
    while left > 0:
        n1 = rng.randint(config.tree_min, config.tree_max)
        n2 = rng.randint(config.tree_min, config.tree_max)
        if n1 * n2 > cap:
            continue
        seed1 = rng.randrange(1 << 48)
        seed2 = rng.randrange(1 << 48)
        t1 = random_tree(n1, seed1)
        t2 = random_tree(n2, seed2)
        for root in range(min(n2, left)):
            yield t1, RootedGraph(t2, root), {
                "g": {"family": "random-tree", "n": n1, "seed": seed1},
                "h": {"family": "random-tree", "n": n2, "seed": seed2, "root": root},
            }
        left -= n2


#: C3, C4 and X2 draw their pairs under ``tree_product_cap``, W3 and S3 under
#: ``product_cap``.  No tree-pair product is scanned or solved: C3 builds
#: only the product's shape, and the others read it through
#: ``solvers.product_value``, from scans of H.  The two caps stay because the
#: pinned instance streams depend on them.
_dp_tree_pairs = partial(_tree_pairs, "tree_product_cap")
_scan_tree_pairs = partial(_tree_pairs, "product_cap")


def _closed_forms(seed: int, config: CampaignConfig):
    """I6's fixed grid of 30 instances, whatever the seed and ``trials``: P_n
    with a star, then with a subdivided star, each for n = 2..6 and m = 2..4.
    The grid builds each factor once and shares it between its instances."""
    paths = [path_graph(n) for n in range(2, 7)]
    for family, rooted in (
        ("caterpillar", star_graph), ("subdivided-star-product", subdivided_star_graph)
    ):
        factors = [rooted(m) for m in range(2, 5)]
        for G in paths:
            for m, H in enumerate(factors, 2):
                yield G, H, {"family": family, "n": G.n, "m": m}


#: Every theorem's row: (checker, sampler, must_hold).
_THEOREMS = {
    TheoremId.D1: (_check_D1, _products, False),
    TheoremId.D2: (_check_D2, _products, True),
    TheoremId.R1: (_check_R1, _products, True),
    TheoremId.R2: (_check_R2, _gnps, True),
    TheoremId.R3: (_check_R3, _gnps, True),
    TheoremId.R4: (_check_R4, _roman_products, True),
    TheoremId.R5: (_check_R5, _roman_products, False),
    TheoremId.R6: (_check_R6, _roman_products, False),
    TheoremId.I1: (_check_I1, _gnps, True),
    TheoremId.I2: (_check_I2, _products, False),
    TheoremId.I3: (_check_I3, _gnps, True),
    TheoremId.I4: (_check_I4, _gnps, True),
    TheoremId.I5: (_check_I5, _products, True),
    TheoremId.I6: (_check_I6, _closed_forms, False),
    TheoremId.I7: (_check_I7, _i7_products, False),
    TheoremId.C1: (partial(_two_value_check, PK.CONNECTED, False), _products, False),
    TheoremId.C2: (_check_C2, _trees, True),
    TheoremId.C3: (_check_C3, _dp_tree_pairs, True),
    TheoremId.C4: (partial(_iff_tree_check, PK.CONNECTED), _dp_tree_pairs, False),
    TheoremId.X1: (partial(_two_value_check, PK.CONVEX, False), _products, False),
    TheoremId.X2: (partial(_iff_tree_check, PK.CONVEX), _dp_tree_pairs, False),
    TheoremId.W1: (partial(_two_value_check, PK.WEAKLY_CONNECTED, True), _products, False),
    TheoremId.W2: (_check_W2, _trees, False),
    TheoremId.W3: (_check_W3, _scan_tree_pairs, False),
    TheoremId.S1: (_check_S1, _products, False),
    TheoremId.S2: (_check_S2, _trees, False),
    TheoremId.S3: (_check_S3, _scan_tree_pairs, False),
}

#: Theorems whose failure makes a campaign exit nonzero.
MUST_HOLD = frozenset(t for t, (_, _, must) in _THEOREMS.items() if must)


def _on_products(theorem: TheoremId) -> bool:
    """Whether ``theorem`` is checked on a base graph and a rooted graph, read
    off its row: every sampler but the single-graph ones yields an H."""
    return _THEOREMS[theorem][1] not in (_gnps, _trees)


def check(
    theorem: TheoremId,
    G: Graph | None = None,
    H: RootedGraph | None = None,
    *,
    instance: dict | None = None,
) -> TheoremVerdict:
    """Evaluate one theorem on one instance and return the verdict.

    The product order is not capped here: the campaign samplers keep it
    under the config's caps, and a solver call past the scan budget raises
    ``BudgetExceededError``.  An empty G, or a product theorem's base G of
    order 1, is not an instance of any theorem and raises ``ValueError``; a
    single-graph theorem whose hypothesis needs more vertices answers
    NOT_APPLICABLE at order 1.
    """
    checker = _THEOREMS[theorem][0]
    if G is None:
        raise ValueError(f"theorem {theorem.value} needs a graph")
    on_products = _on_products(theorem)
    if on_products and H is None:
        raise ValueError(f"theorem {theorem.value} needs a base graph and a rooted graph")
    if H is not None and not on_products:
        raise ValueError(f"theorem {theorem.value} takes one graph, not a rooted graph")
    if G.n == 0:
        raise ValueError("parameters are undefined on the empty graph")
    if on_products and G.n == 1:
        raise ValueError("the base factor must have at least two vertices")
    descriptor = dict(instance or {})
    descriptor.setdefault("g_order", G.n)
    if H is not None:
        descriptor.setdefault("h_order", H.graph.n)
        descriptor.setdefault("root", H.root)

    try:
        ok, values = checker(G, H)
    except InfeasibleParameterError as exc:
        return TheoremVerdict(theorem, descriptor, Outcome.INFEASIBLE, {"reason": str(exc)})
    if ok is None:
        return TheoremVerdict(theorem, descriptor, Outcome.NOT_APPLICABLE, values)
    if ok:
        return TheoremVerdict(theorem, descriptor, Outcome.PASS, values)
    witness = _witness_payload(theorem, G, H, values)
    return TheoremVerdict(theorem, descriptor, Outcome.FAIL, values, witness)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _witness_graph(payload: dict, key: str) -> Graph:
    raw = payload.get(key)
    if not (
        isinstance(raw, dict)
        and _is_int(raw.get("n"))
        and isinstance(raw.get("edges"), list)
        and all(
            isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))
            for e in raw["edges"]
        )
    ):
        raise ValueError(f"witness field {key!r} must be {{\"n\": int, \"edges\": [[u, v], ...]}}")
    return Graph(raw["n"], [tuple(e) for e in raw["edges"]])


def check_witness(payload: dict) -> TheoremVerdict:
    """Re-run the check recorded in a witness payload.

    A payload of the wrong shape, or a bad ``ROOTDOM_BUDGET``, raises
    ``ValueError``: it is an input fault, not a witness that failed to
    reproduce.
    """
    solvers.scan_budget()  # even when the recorded check needs no scan
    if not isinstance(payload, dict) or not isinstance(payload.get("theorem"), str):
        raise ValueError('a witness must be a JSON object with a "theorem" id')
    theorem = TheoremId(payload["theorem"])
    G = _witness_graph(payload, "g") if "g" in payload else None
    H = None
    if "h" in payload:
        if not _is_int(payload.get("root")):
            raise ValueError('a witness with "h" needs an integer "root"')
        H = RootedGraph(_witness_graph(payload, "h"), payload["root"])
    return check(theorem, G, H)


# -- campaign ----------------------------------------------------------------


@dataclass
class CampaignConfig:
    theorems: list[TheoremId] = field(default_factory=lambda: list(TheoremId))
    trials: int = 200
    seed: int = 42
    max_g: int = 5
    max_h: int = 4
    product_cap: int = 20
    deletion_n: int = 8
    tree_min: int = 3
    tree_max: int = 6
    tree_single_max: int = 10
    tree_product_cap: int = 40

    def __post_init__(self) -> None:
        """Reject a config that would crash or never finish, with ``ValueError``."""
        if not isinstance(self.theorems, (list, tuple)):
            raise ValueError("campaign config theorems must be a list of theorem ids")
        self.theorems = [TheoremId(t) for t in self.theorems]
        repeated = sorted({t.value for t in self.theorems if self.theorems.count(t) > 1})
        if repeated:
            raise ValueError(f"campaign config theorems must name each theorem once, repeated: {repeated}")
        for name in (f.name for f in fields(self) if f.name != "theorems"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"campaign config {name} must be an integer, got {getattr(self, name)!r}")
        # A product needs two factors of order >= 2; a tree pair, two trees of
        # order >= tree_min; a single tree, order >= max(3, tree_min).
        for name, least in (
            ("trials", 0), ("max_g", 2), ("max_h", 2), ("product_cap", 4), ("deletion_n", 2),
            ("tree_min", 2), ("tree_max", self.tree_min), ("tree_single_max", max(3, self.tree_min)),
            ("product_cap", self.tree_min ** 2), ("tree_product_cap", self.tree_min ** 2),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"campaign config {name} must be >= {least}, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "CampaignConfig":
        if not isinstance(raw, dict):
            raise ValueError("a campaign config must be a JSON object")
        kwargs = dict(raw)
        unknown = set(kwargs) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown campaign config keys: {sorted(unknown)}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["theorems"] = [t.value for t in self.theorems]
        return out


def _verdicts(theorem: TheoremId, config: CampaignConfig):
    """Each trial's verdict in order, or None for a trial past the budget."""
    sampler = _THEOREMS[theorem][1]
    seed = child_seed(config.seed, list(TheoremId).index(theorem))
    for G, H, desc in sampler(seed, config):
        try:
            verdict = check(theorem, G, H, instance=desc)
        except BudgetExceededError:
            verdict = None
        yield verdict


def run_theorem(theorem: TheoremId | str, config: CampaignConfig) -> dict:
    """All trials for one theorem; deterministic given the config.

    ``theorem`` is a ``TheoremId`` or its id string; an unknown id raises
    ``ValueError`` before any trial runs.  ``trials`` counts the verdicts;
    ``errors`` counts the trials skipped because an instance was past the
    budget.
    """
    theorem = TheoremId(theorem)
    counts = {o: 0 for o in Outcome}
    skips = 0
    failures: list[dict] = []
    solvers.scan_budget()  # a bad ROOTDOM_BUDGET fails before any trial
    for verdict in _verdicts(theorem, config):
        if verdict is None:
            skips += 1
            continue
        counts[verdict.outcome] += 1
        if verdict.outcome is Outcome.FAIL:
            failures.append(verdict.to_json())
    return {
        "theorem": theorem.value,
        "trials": sum(counts.values()),
        "pass": counts[Outcome.PASS],
        "fail": counts[Outcome.FAIL],
        "not_applicable": counts[Outcome.NOT_APPLICABLE],
        "infeasible": counts[Outcome.INFEASIBLE],
        "errors": skips,
        "must_hold": theorem in MUST_HOLD,
        "failures": failures,
    }


def run_campaign(config: CampaignConfig, *, jobs: int = 1) -> dict:
    """Run every configured theorem; deterministic given the config seed.

    ``jobs`` worker processes share the theorems, one process per theorem
    at most; ``jobs`` below 1 raises ``ValueError``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ordered = [t for t in TheoremId if t in set(config.theorems)]
    if jobs > 1 and len(ordered) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(ordered))) as pool:
            results = list(pool.map(run_theorem, ordered, repeat(config)))
    else:
        results = [run_theorem(t, config) for t in ordered]
    must_hold_failures = sum(r["fail"] for r in results if r["must_hold"])
    return {
        "config": config.to_dict(),
        "results": results,
        "must_hold_failures": must_hold_failures,
    }
