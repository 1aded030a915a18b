"""Exact solvers for the eight domination-type parameters.

Three entry points:

* ``solve()`` returns a value and a witness.  Values come from
  cardinality-ordered subset scans over bitmasks (compiled kernel when
  available), so witnesses are the lexicographically smallest optima under
  the fixed vertex numbering.  Super-domination scans start at size
  ceil(n/2), since each vertex outside a super dominating set is served by
  a member of its own.  The Roman engine scans 2-label sets only,
  with the 1-labels forced onto the vertices left uncovered -- every
  minimum-weight assignment has that form, since a 1-label next to a 2
  could be lowered to 0.  It meets the 2-sets of one size in reverse
  lexicographic order, so a tie goes to the last candidate, and
  ``enumerate_optimal`` sorts the listing it gets in scan order.  Past the
  scan budget, tree instances fall back to ``tree_dp``: for the connected
  and convex kinds the non-leaves (on trees convex and connected dominating
  sets coincide because geodesics are unique), which keep the lexicographic
  promise, since from order 3 on they are the only optimum; for independent
  domination (``i``) a DP whose witnesses are deterministic but carry no
  lexicographic promise.  Every other kind, ``alpha`` included, raises
  ``BudgetExceededError`` there.
* ``value()`` returns the value alone, by the cheapest exact method: the
  tree DP for ``i``, connected and convex on every tree, at every order,
  and ``solve()`` otherwise.  The theorem harness and ``enumerate_optimal``
  use it.
* ``product_value()`` returns the value on a rooted product G o H, and the
  theorem harness reads every product side through it.  It builds no
  product, and joins two tables the same way for every kind:
  ``_root_costs()`` prices one copy of H by the state of its root, each
  state from one scan of H or of H - r with forced masks (for super's
  ``og``, of H plus a pendant vertex), and ``_base_table()`` lists count
  tuples of G, how many copies take each state; the value is the best dot
  product of the two.  The base tables count, over root sets S, the roots
  in S, in N(S) - S and outside N[S]: for gamma and Roman over every S,
  from one pass over the 2^n masks (``_closed_profile``), and for alpha
  and i over the independent S that ``_independent_sets()`` lists; super
  has its own pass, ``_super_profile``.  The scan budget then applies to
  each factor, not to the product; a factor past it gets ``value()`` of the
  built product.

``induced_independent_domination()`` tabulates i(G[U]) for every vertex
mask U of G, for the harness's deletion theorem I3, from the same listing
of independent sets, ``_independent_sets()``, that the alpha and i base
tables read.

``classify_root()`` says whether a root lies in every optimum, in none or in
some.  It takes one optimum -- the tree DP's where ``value()`` would use it,
``solve()``'s otherwise -- and runs one existence scan at the optimal size
(``cap == 0``) with the root forced to the side that optimum does not show;
a cut vertex is in every connected and convex optimum and needs no scan.
For Roman it reads one root label off ``solve()``'s witness and asks one
scan per missing label, with 2-set masks.  It lists no optimum, so unlike
``enumerate_optimal`` it never raises ``EnumerationCapError``.

One seam leads to the kernels, each of which takes forced masks.
``_minimum()`` is the one caller of the three optimum kernels
(``scan_min``, ``scan_max_independent`` for alpha, ``roman_min``), for
``solve()`` and for ``_cost()``, which reads the root costs of
``product_value()``.  ``_listing()`` is the one caller of the two listing
kernels (``enumerate_size``, ``roman_enumerate``), for enumeration and for
every existence scan.  Each subset scan takes its arguments from
``_scan_args()``, the one place a kind's structure reaches the kernels:
the cut vertices forced in for connected and convex, and the table
``Graph`` computes, the interval masks for convex and the bridges for
weakly.  ``_witness()`` is the one decoder of a kernel mask into a set or a
Roman assignment.

The scan budget is the one resource knob: ``scan_budget()`` reads it from
``ROOTDOM_BUDGET`` (default 22), and ``_require_scan()`` is the one guard
that raises ``BudgetExceededError`` past it, for ``solve()``, enumeration,
root classification, ``induced_independent_domination()`` and the
harness's C2 check; ``require_solvable()`` asks it for ``solve()`` before a
graph is built.  ``product_value()`` compares each factor with
``scan_budget()`` and sends a product with a factor past it to ``value()``,
where that guard answers.  The witness-list
cap of ``enumerate_optimal`` is the fixed ``ENUMERATION_CAP``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from operator import mul

from . import kernels, tree_dp
from .graph import Graph, delete_vertices, is_connected, is_tree
from .product import RootedGraph, rooted_product


class SolverError(Exception):
    """Base class for solver failures that are not plain input errors."""


class InfeasibleParameterError(SolverError):
    """No subset satisfies the parameter's predicate on this graph."""


class BudgetExceededError(SolverError):
    """The instance is larger than the configured search budget."""


class EnumerationCapError(BudgetExceededError):
    """Too many optimal witnesses; carries the partial count."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


#: Most optimal witnesses ``enumerate_optimal`` lists before it gives up.
ENUMERATION_CAP = 1_000_000


def scan_budget() -> int:
    """Largest order the 2^n subset scans take: ``ROOTDOM_BUDGET``, default 22."""
    env = os.environ.get("ROOTDOM_BUDGET")
    if not env:
        return 22
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"ROOTDOM_BUDGET must be an integer, got {env!r}") from None
    if not 1 <= cap <= kernels.MAX_ORDER:
        raise ValueError(
            f"ROOTDOM_BUDGET={cap} is outside the scan budget range 1..{kernels.MAX_ORDER} "
            "(the C kernel keeps vertex sets in 64-bit masks)"
        )
    return cap


class ParameterKind(str, Enum):
    """The eight parameters; values double as the CLI names."""

    DOMINATION = "gamma"
    INDEPENDENCE = "alpha"
    INDEPENDENT_DOMINATION = "i"
    ROMAN = "roman"
    CONNECTED = "connected"
    CONVEX = "convex"
    WEAKLY_CONNECTED = "weakly"
    SUPER = "super"


_KIND_CODE = {
    ParameterKind.DOMINATION: kernels.KIND_DOMINATING,
    ParameterKind.INDEPENDENCE: kernels.KIND_INDEPENDENT,
    ParameterKind.INDEPENDENT_DOMINATION: kernels.KIND_INDEPENDENT_DOMINATING,
    ParameterKind.CONNECTED: kernels.KIND_CONNECTED_DOMINATING,
    ParameterKind.CONVEX: kernels.KIND_CONVEX_DOMINATING,
    ParameterKind.WEAKLY_CONNECTED: kernels.KIND_WEAKLY_CONNECTED_DOMINATING,
    ParameterKind.SUPER: kernels.KIND_SUPER_DOMINATING,
}

#: Kinds whose definition requires a connected host graph.
_CONNECTED_HOST = {
    ParameterKind.CONNECTED,
    ParameterKind.CONVEX,
    ParameterKind.WEAKLY_CONNECTED,
}

#: Kinds whose every optimum holds every cut vertex: a connected set without
#: cut vertex v lies inside one component of G - v and leaves the others
#: undominated, and convex sets are connected.
_CUT_VERTICES_FORCED = {ParameterKind.CONNECTED, ParameterKind.CONVEX}

_TREE_DP_KINDS = {
    ParameterKind.INDEPENDENT_DOMINATION,
    ParameterKind.CONNECTED,
    ParameterKind.CONVEX,
}

#: The cost of a root state no set attains; larger than any value.
_INFEASIBLE = 1 << 62


@dataclass(frozen=True)
class RomanAssignment:
    """A 0/1/2 labeling stored as the 1-set and 2-set (0 implicit)."""

    b1: frozenset[int]
    b2: frozenset[int]

    def __post_init__(self) -> None:
        if self.b1 & self.b2:
            raise ValueError("label sets B1 and B2 must be disjoint")

    @property
    def weight(self) -> int:
        return 2 * len(self.b2) + len(self.b1)

    def label(self, v: int) -> int:
        if v in self.b2:
            return 2
        if v in self.b1:
            return 1
        return 0

    def is_valid(self, graph: Graph) -> bool:
        """Every 0-labeled vertex needs a 2-labeled neighbor."""
        for group in (self.b1, self.b2):
            for v in group:
                if not (0 <= v < graph.n):
                    return False
        positive = self.b1 | self.b2
        return all(
            v in positive or (graph.neighbors(v) & self.b2)
            for v in range(graph.n)
        )


@dataclass(frozen=True)
class SolveResult:
    kind: ParameterKind
    value: int
    witness: frozenset[int] | RomanAssignment


class Membership(str, Enum):
    IN_ALL = "IN_ALL"
    IN_NONE = "IN_NONE"
    IN_SOME = "IN_SOME"


@dataclass(frozen=True)
class RootClassification:
    """How the root sits across all optimal witnesses of one parameter, and
    the optimum's value."""

    kind: ParameterKind
    value: int
    membership: Membership
    roman_values: frozenset[int] | None = None


# -- predicates -------------------------------------------------------------


def is_dominating(graph: Graph, subset: frozenset[int] | set[int]) -> bool:
    """Every vertex outside the set has a neighbor inside it."""
    sub = set(subset)
    return all(v in sub or (graph.neighbors(v) & sub) for v in range(graph.n))


def is_independent(graph: Graph, subset: frozenset[int] | set[int]) -> bool:
    """The induced subgraph has no edges; empty sets and singletons qualify."""
    sub = set(subset)
    return all(not (graph.neighbors(v) & sub) for v in sub)


def is_super_dominating(graph: Graph, subset: frozenset[int] | set[int]) -> bool:
    """Each outside vertex has an inside neighbor whose whole neighborhood
    lies in the set plus that one vertex.  The full vertex set qualifies
    vacuously."""
    sub = set(subset)
    for v in range(graph.n):
        if v in sub:
            continue
        allowed = sub | {v}
        if not any(graph.neighbors(u) <= allowed for u in graph.neighbors(v) & sub):
            return False
    return True


# -- per-kind solvers ---------------------------------------------------------


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        bit = mask & (-mask)
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return frozenset(out)


def _witness(graph: Graph, kind: ParameterKind, mask: int) -> frozenset[int] | RomanAssignment:
    """The witness a kernel mask stands for: the set itself, or for Roman the
    assignment with 2-set ``mask`` and the 1-labels forced onto the vertices
    it leaves uncovered."""
    if kind is not ParameterKind.ROMAN:
        return _mask_to_set(mask)
    open_m, covered = graph.open_masks(), mask
    for v in _mask_to_set(mask):
        covered |= open_m[v]
    return RomanAssignment(_mask_to_set(((1 << graph.n) - 1) & ~covered), _mask_to_set(mask))


def _check_order(graph: Graph) -> None:
    if graph.n < 1:
        raise ValueError("parameters are undefined on the empty graph")


def _require_connected(graph: Graph, kind: ParameterKind) -> None:
    if kind in _CONNECTED_HOST and not is_connected(graph):
        raise InfeasibleParameterError(
            f"{kind.value} domination is infeasible on a disconnected graph"
        )


def _scan_args(graph: Graph, kind: ParameterKind, forced_in: int = 0) -> tuple[tuple, int]:
    """The kernel arguments every subset scan of ``kind`` starts with (kind
    code, order, open masks, and the kind's table: the interval masks for
    convex, the bridges for weakly), and ``forced_in`` with the cut vertices
    added for connected and convex.  The kernels derive the closed masks
    themselves."""
    table = None
    if kind is ParameterKind.CONVEX:
        table = graph.interval_masks()
    elif kind is ParameterKind.WEAKLY_CONNECTED:
        table = graph.bridges()
    if kind in _CUT_VERTICES_FORCED:
        forced_in |= graph.cut_vertices()
    return (_KIND_CODE[kind], graph.n, graph.open_masks(), table), forced_in


def _require_scan(n: int, task: str) -> None:
    """The one budget guard: ``BudgetExceededError`` when ``task`` would scan
    a graph of order ``n`` past ``scan_budget()``."""
    max_scan_n = scan_budget()
    if n > max_scan_n:
        raise BudgetExceededError(
            f"{task} needs the subset scan, and order {n} exceeds the subset-scan "
            f"budget (n <= {max_scan_n}); set ROOTDOM_BUDGET to raise it"
        )


def require_solvable(n: int, edges: list[tuple[int, int]], kind: ParameterKind) -> None:
    """Raises ``solve()``'s ``BudgetExceededError`` when no method can solve
    ``kind`` on a graph of order ``n`` with these edges.  Past the scan budget
    only a tree reaches the tree DP, and a tree has exactly n - 1 distinct
    edges.  No ``Graph`` is built, so a caller can refuse a huge declared
    order before allocating one."""
    if kind not in _TREE_DP_KINDS or len({(min(e), max(e)) for e in edges}) != n - 1:
        _require_scan(n, "solve")


def _minimum(
    graph: Graph, kind: ParameterKind, forced_in: int = 0, forced_out: int = 0
) -> tuple[int, int] | None:
    """The kernel's ``(value, mask)`` of the optimum of ``kind`` (for alpha
    the largest set, for Roman the least 2-set, else the least set) that
    holds ``forced_in`` and misses ``forced_out``, or None if no set does."""
    if kind is ParameterKind.ROMAN:
        return kernels.roman_min(graph.n, graph.open_masks(), forced_in, forced_out)
    if kind is ParameterKind.INDEPENDENCE:
        return kernels.scan_max_independent(graph.n, graph.open_masks(), forced_in, forced_out)
    args, forced_in = _scan_args(graph, kind, forced_in)
    return kernels.scan_min(*args, forced_in, forced_out)


def _listing(
    graph: Graph, kind: ParameterKind, target: int, cap: int, forced_in: int = 0, forced_out: int = 0
) -> list[int]:
    """Masks of the optima of ``kind`` at value ``target`` that hold
    ``forced_in`` and miss ``forced_out``, in scan order; for Roman, their
    2-sets.  ``cap == 0`` asks only whether one exists, and the list then
    says so by being empty or not; past a positive ``cap`` it raises
    ``EnumerationCapError``."""
    if kind is ParameterKind.ROMAN:
        masks, hit_cap = kernels.roman_enumerate(graph.n, graph.open_masks(), target, cap, forced_in, forced_out)
        listed = "optimal Roman assignments"
    else:
        args, forced_in = _scan_args(graph, kind, forced_in)
        masks, hit_cap = kernels.enumerate_size(*args, target, cap, forced_in, forced_out)
        listed = "optimal sets"
    if hit_cap and cap:
        raise EnumerationCapError(f"more than {cap} {listed}", partial_count=len(masks))
    return masks


def _solve_tree(graph: Graph, kind: ParameterKind) -> tuple[int, frozenset[int]]:
    if kind is ParameterKind.INDEPENDENT_DOMINATION:
        return tree_dp.tree_independent_domination(graph)
    return tree_dp.tree_connected_domination(graph)


def solve(graph: Graph, kind: ParameterKind) -> SolveResult:
    """Exact value and witness for one parameter kind."""
    max_scan_n = scan_budget()
    _check_order(graph)
    _require_connected(graph, kind)
    if graph.n > max_scan_n:
        if kind in _TREE_DP_KINDS and is_tree(graph):
            return SolveResult(kind, *_solve_tree(graph, kind))
        _require_scan(graph.n, "solve")

    found = _minimum(graph, kind)
    if found is None:
        raise InfeasibleParameterError(f"no {kind.value} dominating set exists")
    size, mask = found
    return SolveResult(kind, size, _witness(graph, kind, mask))


def _optimum(graph: Graph, kind: ParameterKind) -> tuple[int, frozenset[int] | RomanAssignment]:
    """Value and some optimum by the cheapest exact method: the tree DP for
    ``i``, connected and convex on every tree, ``solve()`` otherwise."""
    if kind in _TREE_DP_KINDS and is_tree(graph):
        return _solve_tree(graph, kind)
    found = solve(graph, kind)
    return found.value, found.witness


def value(graph: Graph, kind: ParameterKind) -> int:
    """Exact value of one parameter kind, without a witness promise.

    Trees go to the tree DP for ``i``, connected and convex at every order;
    everything else is ``solve(...).value``, with its errors.
    """
    return _optimum(graph, kind)[0]


def _independent_sets(G: Graph):
    """Every independent set I of G with its closed neighbourhood N[I], as
    the mask pair ``(I, N[I])``, the empty set first: one depth-first pass
    that extends I only by a vertex above its largest that lies outside
    N[I].  It is the one listing of independent sets, read by the I3 table
    and by the base tables of alpha and i."""
    n, open_m = G.n, G.open_masks()
    stack = [(0, 0, 0)]  # (I, N[I], the least vertex I may still take)
    while stack:
        chosen, cover, start = stack.pop()
        yield chosen, cover
        for v in range(start, n):
            if not cover >> v & 1:
                stack.append((chosen | 1 << v, cover | open_m[v] | 1 << v, v + 1))


def induced_independent_domination(graph: Graph) -> list[int]:
    """``table[U]`` = i(G[U]) for every vertex mask U of G; ``table[0]`` is 0.

    An independent set I of G is an independent dominating set of G[U]
    exactly when I <= U <= N[I].  So each independent set I of
    ``_independent_sets``, with its closed neighbourhood N[I], offers |I|
    to every U = I | s for s a submask of N[I] - I.  Each (I, U) pair gives
    every vertex one of three roles (in I, in U - I, outside U), so the pass
    takes at most 3^n steps.  Raises ``BudgetExceededError`` past the scan
    budget, on trees too.
    """
    _require_scan(graph.n, "the induced independent domination table")
    table = [graph.n] * (1 << graph.n)  # i(G[U]) <= |U| <= n
    for chosen, cover in _independent_sets(graph):
        size, free = chosen.bit_count(), cover ^ chosen
        sub = free
        while True:
            if size < table[chosen | sub]:
                table[chosen | sub] = size
            if not sub:
                break
            sub = (sub - 1) & free
    return table


# -- rooted products -----------------------------------------------------------


def _cost(graph: Graph, kind: ParameterKind, forced_in: int = 0, forced_out: int = 0) -> int:
    """The value of ``_minimum``'s optimum of ``kind`` over the sets (for
    Roman, the 2-sets) that hold ``forced_in`` and miss ``forced_out``;
    ``_INFEASIBLE`` if none does."""
    found = _minimum(graph, kind, forced_in, forced_out)
    return _INFEASIBLE if found is None else found[0]


def _root_costs(rooted: RootedGraph, kind: ParameterKind) -> tuple[int, ...]:
    """What one copy of H adds to a value of ``kind`` on G o H, by the state
    of its root r, in the order of ``_base_table``'s counts (``_INFEASIBLE``
    where no set attains the state).  Each state is one kernel scan of H,
    of H - r or, for super's ``og``, of H plus a pendant:

    * gamma, i, Roman: r in (Roman: in B2); r out and dominated from G
      (Roman: next to a 2), the copy then being H - r; r out, left to its copy.
    * alpha: the largest independent set of H holding r; the largest
      missing r, for both states of a root out.
    * connected and convex: r in.  Weakly: r in, r out.
    * super: see ``_super_profile``.  ``busy`` is 1 + gamma_sp(H - r): with
      r in D, r serves nobody in its copy, and a member u != r serves x in H
      (N_H(u) <= D + x) exactly when it serves x in H - r, as r is in D.
      ``og`` is gamma_sp of H plus a pendant q at r, with q in and r out,
      less q, which serves r.
    """
    graph, root = rooted.graph, rooted.root
    bit = 1 << root
    if kind in _CUT_VERTICES_FORCED:
        return (_cost(graph, kind, forced_in=bit),)
    if kind is ParameterKind.WEAKLY_CONNECTED:
        return _cost(graph, kind, forced_in=bit), _cost(graph, kind, forced_out=bit)
    if kind is ParameterKind.INDEPENDENCE:
        out = _cost(graph, kind, forced_out=bit)
        return _cost(graph, kind, forced_in=bit), out, out
    near = _cost(delete_vertices(graph, {root}).graph, kind)
    if kind is ParameterKind.SUPER:
        n, busy = graph.n, 1 + near
        hserve = _cost(graph, kind, forced_in=bit)
        own = _cost(graph, kind, forced_out=bit)
        free = _cost(graph, kind, forced_in=graph.open_masks()[root] | bit)
        pendant = Graph(n + 1, graph.edges() + [(root, n)])
        og = _cost(pendant, kind, forced_in=1 << n, forced_out=bit) - 1
        return hserve, busy, min(own, og + free - busy), own
    return _cost(graph, kind, forced_in=bit), near, _cost(graph, kind, forced_out=bit)


def _unions(masks) -> list[int]:
    """``table[m]``: the union of ``masks[v]`` over the bits v of m."""
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return table


def _closed_profile(G: Graph) -> set[tuple[int, int]]:
    """The pairs (|S|, |N[S]|) over the subsets S of V(G).  One pass over
    the 2^n masks; each half of the vertices has its own table of
    open-neighbourhood unions, so a mask costs two lookups, and
    N[S] = N(S) + S."""
    half, open_m = G.n // 2, G.open_masks()
    low = _unions(open_m[:half])
    pairs = set()
    for top, top_open in enumerate(_unions(open_m[half:])):
        top <<= half
        for bottom, bottom_open in enumerate(low):
            s = top | bottom
            pairs.add((s.bit_count(), (top_open | bottom_open | s).bit_count()))
    return pairs


def _super_profile(G: Graph) -> set[tuple[int, int, int, int]]:
    """The count tuples (a, b, c1, c2) over the subsets S of V(G): a counts
    the members of S with no G-neighbour outside S and b the other members;
    c1 counts the vertices outside S that are the only outside G-neighbour
    of some member, and c2 the other outside vertices.

    Let D be a super dominating set of G o H and S its roots; a vertex x
    outside D needs a member u of D with N(u) inside D + x.  A vertex of a
    copy sees only its copy, and its root sees G as well, so, copy by copy:

    * a member v of S with no G-neighbour outside S: its copy is a super
      dominating set of H holding r ("hserve");
    * a member v of S with a G-neighbour outside S: r serves nothing in its
      copy, so the copy's other members serve it ("busy"), unless v serves
      w, its only outside G-neighbour, which takes all of N_H[r] into D
      ("free"; busy <= free, since such an r serves nobody in H either).
      busy = 1 + gamma_sp(H - r): with r in D, a member u != r serves x in
      H, N_H(u) <= D + x, exactly when N_{H-r}(u) <= (D - r) + x, so the
      copy less r is a super dominating set of H - r, and r joins any such
      set to make a copy;
    * a vertex w outside S: its copy serves r ("self"), or a member of S
      serves it and the copy serves the rest with r out ("og").

    A server's one outside neighbour is the only vertex it can serve, so
    servers never compete: each w of c1 takes the cheaper of self and
    og + free - busy, and each of c2 takes self, the costs of
    ``_root_costs`` in the order of these counts.  The pass visits
    all 2^n masks at O(|S|) steps each, in Python on either backend: about
    3 s at order 20, and four times that per two vertices more."""
    n, open_m = G.n, G.open_masks()
    full = (1 << n) - 1
    neighbours = {1 << v: mask for v, mask in enumerate(open_m)}
    profile = set()
    for s in range(1 << n):
        out, rest_s, a, single = full ^ s, s, 0, 0
        while rest_s:
            low = rest_s & -rest_s
            rest_s ^= low
            outside = neighbours[low] & out
            if not outside:
                a += 1
            elif not outside & (outside - 1):
                single |= outside
        k, c1 = s.bit_count(), single.bit_count()
        profile.add((a, k - a, c1, n - k - c1))
    return profile


def _base_table(G: Graph, kind: ParameterKind) -> set[tuple[int, ...]]:
    """The count tuples, over the root sets an optimum of ``kind`` on G o H
    may hold, of the copies whose root takes each state of ``_root_costs``.

    * gamma, alpha, i, Roman: (|S|, |N(S) - S|, |V(G) - N[S]|) over the
      subsets S of V(G), from ``_closed_profile``, and for alpha and i over
      the independent sets of ``_independent_sets`` only.
    * super: ``_super_profile``.
    * connected and convex: every root is a cut vertex of the product, so
      every optimum holds all n roots.
    * weakly: unless they are all n, the roots of an optimum form a weakly
      connected dominating set of G, since a copy with r out reaches the rest
      only through an edge from r to a root in the set.  So do its supersets,
      and a cost linear in their number is least at n or gamma_w(G) roots.
    """
    if kind is ParameterKind.SUPER:
        return _super_profile(G)
    if kind in _CUT_VERTICES_FORCED:
        return {(G.n,)}
    if kind is ParameterKind.WEAKLY_CONNECTED:
        gamma_w = value(G, kind)
        return {(G.n, 0), (gamma_w, G.n - gamma_w)}
    if kind in (ParameterKind.INDEPENDENCE, ParameterKind.INDEPENDENT_DOMINATION):
        pairs = {(s.bit_count(), cover.bit_count()) for s, cover in _independent_sets(G)}
    else:
        pairs = _closed_profile(G)
    return {(k, c - k, G.n - c) for k, c in pairs}


def product_value(G: Graph, rooted: RootedGraph, kind: ParameterKind) -> int:
    """Exact value of ``kind`` on G o H, with no product built: G o H meets
    each copy of H only at its root, so the value is the least (for alpha
    the most) dot product of a count tuple of G with the root costs of H.

    A base of order 1 raises the product's ``ValueError``, and a
    disconnected factor its ``InfeasibleParameterError`` for connected,
    convex and weakly.  The scan budget bounds each factor (for super, H
    plus its pendant vertex), not the product; a factor past it gets
    ``value()`` of the built product, which answers trees with the tree DP
    and raises ``BudgetExceededError`` otherwise.
    """
    if G.n < 2:
        raise ValueError("the base factor must have at least two vertices")
    h_scan = rooted.n + 1 if kind is ParameterKind.SUPER else rooted.n
    if max(G.n, h_scan) > scan_budget():
        return value(rooted_product(G, rooted).product, kind)
    _require_connected(G, kind)
    _require_connected(rooted.graph, kind)
    costs = _root_costs(rooted, kind)
    best = max if kind is ParameterKind.INDEPENDENCE else min
    return best(sum(map(mul, counts, costs)) for counts in _base_table(G, kind))


# -- enumeration and root classification --------------------------------------


def enumerate_optimal(
    graph: Graph, kind: ParameterKind
) -> list[frozenset[int]] | list[RomanAssignment]:
    """All optimal witnesses, in lexicographic order.

    For the Roman kind this is the complete family of forced-completion
    assignments, ordered by 2-set size then lexicographically.
    """
    _require_scan(graph.n, "enumeration")
    target = value(graph, kind)
    masks = _listing(graph, kind, target, ENUMERATION_CAP)
    if kind is ParameterKind.ROMAN:
        # The scan lists 2-sets of one size in reverse lexicographic order.
        masks.reverse()
        masks.sort(key=int.bit_count)
    return [_witness(graph, kind, mask) for mask in masks]


def classify_root(rooted: RootedGraph, kind: ParameterKind) -> RootClassification:
    """Classify the root's membership across all optimal witnesses.

    One optimum W says on which side of the question the root lies; one
    existence scan at the optimal size then asks for an optimum on the other
    side.  If the root is in W, the root is in every optimum unless some
    optimum has it forced out; otherwise it is in none unless some optimum
    has it forced in.  A cut vertex is in every connected or convex optimum
    (``_CUT_VERTICES_FORCED``), so such a root needs no scan.

    For the Roman kind, membership refers to carrying a positive label and
    ``roman_values`` collects the labels the root attains across all
    minimum-weight assignments; see ``_roman_labels``.

    Nothing is listed, so the result does not depend on ``ENUMERATION_CAP``.
    Raises ``BudgetExceededError`` past the scan budget, on trees and
    disconnected hosts too, and below it ``InfeasibleParameterError`` where
    ``solve()`` does.
    """
    graph, root = rooted.graph, rooted.root
    _require_scan(graph.n, "root classification")
    target, witness = _optimum(graph, kind)
    if kind is ParameterKind.ROMAN:
        values = _roman_labels(graph, root, target, witness.label(root))
        if 0 not in values:
            membership = Membership.IN_ALL
        elif len(values) == 1:
            membership = Membership.IN_NONE
        else:
            membership = Membership.IN_SOME
        return RootClassification(kind, target, membership, roman_values=values)
    bit = 1 << root
    if kind in _CUT_VERTICES_FORCED and graph.cut_vertices() & bit:
        return RootClassification(kind, target, Membership.IN_ALL)
    if root in witness:  # in every optimum, unless one leaves it out
        masks, unless_found = (0, bit), Membership.IN_ALL
    else:  # in none, unless one holds it
        masks, unless_found = (bit, 0), Membership.IN_NONE
    found = _listing(graph, kind, target, 0, *masks)
    return RootClassification(kind, target, Membership.IN_SOME if found else unless_found)


def _roman_labels(graph: Graph, root: int, weight: int, first: int) -> frozenset[int]:
    """The labels the root carries across the minimum-weight Roman
    assignments, given one of them, ``first``.  Each missing label is one
    question about the 2-set B2 of an optimum, asked of the scan with forced
    masks: label 2 holds the root in B2; label 1 keeps N[root] out of B2;
    label 0 keeps the root out and some neighbour u in, one scan per u, each
    with the neighbours already tried kept out too."""

    def exists(forced_in: int, forced_out: int) -> bool:
        return bool(_listing(graph, ParameterKind.ROMAN, weight, 0, forced_in, forced_out))

    labels = {first}
    bit = 1 << root
    if first != 2 and exists(bit, 0):
        labels.add(2)
    if first != 1 and exists(0, graph.open_masks()[root] | bit):
        labels.add(1)
    if first != 0:
        tried = bit
        for u in sorted(graph.neighbors(root)):
            if exists(1 << u, tried):
                labels.add(0)
                break
            tried |= 1 << u
    return frozenset(labels)
