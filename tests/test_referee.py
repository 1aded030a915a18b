"""Both kernel backends and the solvers against the prune-free referee.

``rootdom.naive`` lists every feasible set of a kind (``naive_sets``) and
the weight of every Roman 2-set (``naive_roman_weights``) from its own
predicates over vertex tuples, so a bound or cut that drops an optimum
fails here, where ``test_backends`` (C against ``_pykernels``, the same
algorithm) would pass it.

``Referee`` takes the place of the five entries of ``rootdom.kernels``
while ``solve()``, ``enumerate_optimal()``, ``classify_root()`` and
``product_value()`` run, so the calls it checks are the ones the solvers
make, with their forced masks, the super gadgets and the Roman label
scans included.  It answers each call from naive's listing of the graph
the call's masks describe, and both backends must give that answer.  A
Roman minimum is also listed in full at its weight and one above, with
the same forced masks.  On top of the solvers' calls, each graph gets a
minimum scan with a seeded pair of forced masks and, for the set kinds,
the listings at every size with that pair and at the optimum with
nothing forced (but the cut vertices, for connected and convex), with
cap 0 and a cap one short.  ``classify_root()`` and
``product_value()`` run for their calls; ``test_classify`` and
``test_product_value`` hold their answers.
"""

import random
from functools import cache, partial

import pytest

from helpers import labelled_graphs, ladder_graph, random_gnp
from rootdom import _pykernels as slow
from rootdom import kernels
from rootdom.families import cycle_graph, path_graph, random_tree
from rootdom.graph import Graph, is_connected
from rootdom.naive import naive_roman, naive_roman_weights, naive_sets
from rootdom.product import RootedGraph
from rootdom.solvers import (
    _KIND_CODE,
    InfeasibleParameterError,
    ParameterKind,
    RomanAssignment,
    _scan_args,
    classify_root,
    enumerate_optimal,
    product_value,
    solve,
)

KIND_NAME = {code: kind.value for kind, code in _KIND_CODE.items()}


def _lex(mask):
    """The sorted vertex tuple of ``mask``: lexicographic order of these."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


@cache
def _by_tie(n):
    """Every 2-set in ``roman_min``'s tie order: fewest 2-labels, then lexicographic."""
    return sorted(range(1 << n), key=lambda b2: (b2.bit_count(), _lex(b2)))


@cache
def _by_scan(n):
    """Every 2-set in the Roman listings' order: at the lowest vertex where
    two 2-sets differ, the one without it first."""
    return sorted(range(1 << n), key=lambda b2: [b2 >> v & 1 for v in range(n)])


def _holding(masks, forced_in, forced_out):
    return [m for m in masks if m & forced_in == forced_in and not m & forced_out]


def _graph(n, masks):
    """The graph whose open neighbourhood masks are ``masks``."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1])


class Referee:
    """The five kernel entries, answered from naive's listings and held to
    ``backends`` on each call not asked before.  A graph asked about with
    nothing forced is listed in full once; any other only with the forced
    masks of the call, which keeps the super gadgets cheap."""

    def __init__(self, backends):
        self.backends, self._asked, self._sets, self._weights = backends, set(), {}, {}

    def _agree(self, name, args, answer):
        if (name, args) not in self._asked:
            self._asked.add((name, args))
            for backend in self.backends:
                assert getattr(backend, name)(*args) == answer, f"{backend.BACKEND} {name}{args}"
        return answer

    def sets(self, code, n, open_m, forced_in=0, forced_out=0):
        """The nonempty sets of kind ``code`` that hold ``forced_in`` and miss
        ``forced_out`` on the graph with these open masks, by ``naive_sets``."""
        if (code, open_m, 0, 0) in self._sets:
            return _holding(self._sets[code, open_m, 0, 0], forced_in, forced_out)
        key = (code, open_m, forced_in, forced_out)
        if key not in self._sets:
            held, missed = frozenset(_lex(forced_in)), frozenset(_lex(forced_out))
            self._sets[key] = [m for m in naive_sets(_graph(n, open_m), KIND_NAME[code], held, missed) if m]
        return self._sets[key]

    def weights(self, n, open_m):
        if open_m not in self._weights:
            self._weights[open_m] = naive_roman_weights(_graph(n, open_m))
        return self._weights[open_m]

    def scan_min(self, code, n, open_m, table, forced_in, forced_out):
        held = self.sets(code, n, open_m, forced_in, forced_out)
        args = (code, n, open_m, table, forced_in, forced_out)
        return self._agree("scan_min", args, (held[0].bit_count(), held[0]) if held else None)

    def scan_max_independent(self, n, open_m):
        sets = self.sets(_KIND_CODE[ParameterKind.INDEPENDENCE], n, open_m)
        size = sets[-1].bit_count()
        return self._agree("scan_max_independent", (n, open_m), (size, next(m for m in sets if m.bit_count() == size)))

    def enumerate_size(self, code, n, open_m, table, size, cap, forced_in, forced_out):
        listed = [m for m in self.sets(code, n, open_m, forced_in, forced_out) if m.bit_count() == size]
        args = (code, n, open_m, table, size, cap, forced_in, forced_out)
        return self._agree("enumerate_size", args, (listed[: cap + 1], len(listed) > cap))

    def roman_min(self, n, open_m, forced_in, forced_out):
        weights = self.weights(n, open_m)
        held = _holding(_by_tie(n), forced_in, forced_out)
        least = min(weights[b2] for b2 in held)
        # Listed in full at that weight and one above (up to 2n, the largest).
        for weight in range(least, min(least + 1, 2 * n) + 1):
            count = sum(weights[b2] == weight for b2 in held)
            self.roman_enumerate(n, open_m, weight, count, forced_in, forced_out)
        first = next(b2 for b2 in held if weights[b2] == least)
        return self._agree("roman_min", (n, open_m, forced_in, forced_out), (least, first))

    def roman_enumerate(self, n, open_m, weight, cap, forced_in, forced_out):
        weights = self.weights(n, open_m)
        listed = [b2 for b2 in _holding(_by_scan(n), forced_in, forced_out) if weights[b2] == weight]
        args = (n, open_m, weight, cap, forced_in, forced_out)
        return self._agree("roman_enumerate", args, (listed[: cap + 1], len(listed) > cap))


@pytest.fixture
def referee(fast, monkeypatch):
    referee = Referee((slow, fast))
    for name in ("scan_min", "scan_max_independent", "enumerate_size", "roman_min", "roman_enumerate"):
        monkeypatch.setattr(kernels, name, getattr(referee, name))
    return referee


# The families are built once, so the kinds share each graph's cached tables.
@cache
def _labelled():
    return [graph for n in range(1, 6) for graph in labelled_graphs(n)]


@cache
def _seeded():
    """G(n, p) at three densities, then trees, unicyclic graphs (a tree with
    two leaves joined) and cycles, then ladders."""
    rng = random.Random(10)
    graphs = [random_gnp(n, p, rng.randrange(1 << 30)) for n in range(6, 13) for p in (0.2, 0.4, 0.7)]
    for n in (7, 9, 10):
        tree = random_tree(n, rng.randrange(1 << 30))
        graphs += [tree, Graph(n, [*tree.edges(), tuple(rng.sample([v for v in range(n) if tree.degree(v) == 1], 2))])]
        graphs.append(cycle_graph(n))
    return graphs + [ladder_graph(4), ladder_graph(5)]


#: Each family of graphs, and how many graphs it holds.
FAMILIES = {"labelled": (_labelled, 1 + 2 + 8 + 64 + 1024), "seeded": (_seeded, 7 * 3 + 3 * 3 + 2)}

#: The largest order on which roots are classified, products with the path
#: P2 valued and the explicit calls made: each root in turn, except on the
#: labelled graphs of order 5, where one root per graph takes the vertices
#: in turn.  Above it only ``solve`` and ``enumerate_optimal`` run.
ROOTED_UP_TO = 10


def _explicit_calls(referee, graph, kind, rng):
    """A minimum scan with a seeded pair of forced masks; for the set kinds
    also the listings at every size with that pair, and at the optimum with
    nothing forced, with cap 0 and a cap one short."""
    forced_in = forced_out = 0
    for v in range(graph.n):
        draw = rng.randrange(4)
        forced_in |= (draw == 0) << v
        forced_out |= (draw == 1) << v
    if kind is ParameterKind.ROMAN:
        referee.roman_min(graph.n, graph.open_masks(), forced_in, forced_out)
        return
    args, cut = _scan_args(graph, kind)
    forced_in |= cut
    forced_out &= ~forced_in
    referee.scan_min(*args, forced_in, forced_out)
    held = referee.sets(*args[:3], forced_in, forced_out)
    for size in range(1, graph.n + 1):
        referee.enumerate_size(*args, size, sum(m.bit_count() == size for m in held), forced_in, forced_out)
    sets = referee.sets(*args[:3])
    best = (sets[-1] if kind is ParameterKind.INDEPENDENCE else sets[0]).bit_count()
    for cap in {0, max(sum(m.bit_count() == best for m in sets) - 1, 0)}:
        referee.enumerate_size(*args, best, cap, cut, 0)


def _optima(graph, kind, referee):
    """Every optimum of ``kind`` by naive, as the solvers give it, in order;
    empty where naive lists no set."""
    if kind is ParameterKind.ROMAN:
        weights = referee.weights(graph.n, graph.open_masks())
        best = min(weights)
        optima = [_lex(b2) for b2 in _by_tie(graph.n) if weights[b2] == best]
        full = frozenset(range(graph.n))
        return [RomanAssignment(full.difference(b2, *map(graph.neighbors, b2)), frozenset(b2)) for b2 in optima]
    sets = referee.sets(_KIND_CODE[kind], graph.n, graph.open_masks())  # listed in full
    if not sets:
        return []
    best = (sets[-1] if kind is ParameterKind.INDEPENDENCE else sets[0]).bit_count()
    return [frozenset(_lex(m)) for m in sets if m.bit_count() == best]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", list(ParameterKind))
def test_kernels_and_solvers_against_the_referee(referee, kind, family):
    graphs, count = FAMILIES[family]
    rng = random.Random(f"{kind.value} {family}")
    base = path_graph(2)
    checked = 0
    for index, graph in enumerate(graphs()):
        optima = _optima(graph, kind, referee)
        roots = [index % 5] if family == "labelled" and graph.n == 5 else range(graph.n)
        rooted = [RootedGraph(graph, root) for root in roots] if 2 <= graph.n <= ROOTED_UP_TO else []
        try:
            if not optima:
                # Connected, convex and weakly on a disconnected host: the
                # solvers raise before they scan.
                assert kind.value in ("connected", "convex", "weakly") and not is_connected(graph)
                for call in (solve, enumerate_optimal):
                    with pytest.raises(InfeasibleParameterError):
                        call(graph, kind)
                for root in rooted:
                    for call in (classify_root, partial(product_value, base)):
                        with pytest.raises(InfeasibleParameterError):
                            call(root, kind)
            else:
                found = solve(graph, kind)
                best = optima[0].weight if kind is ParameterKind.ROMAN else len(optima[0])
                assert (found.value, found.witness) == (best, optima[0])
                if kind is ParameterKind.SUPER:  # each vertex out is served by a member of its own
                    assert best >= (graph.n + 1) // 2
                assert enumerate_optimal(graph, kind) == optima
                for root in rooted:
                    classify_root(root, kind)
                    product_value(base, root, kind)
                if graph.n <= ROOTED_UP_TO:
                    _explicit_calls(referee, graph, kind, rng)
        except AssertionError as exc:
            raise AssertionError(f"{kind.value} on order {graph.n}, edges {graph.edges()}: {exc}") from exc
        checked += 1
    assert checked == count


def test_the_referee_counts_independent_and_dominating_sets():
    # Independent sets of P_n, the empty set too: F(n + 2) (OEIS A000045).
    assert [len(naive_sets(path_graph(n), "alpha")) for n in range(2, 9)] == [3, 5, 8, 13, 21, 34, 55]
    # Dominating sets of P_n (OEIS A000213) and of C_n (OEIS A001644).
    assert [len(naive_sets(path_graph(n), "gamma")) for n in range(2, 9)] == [3, 5, 9, 17, 31, 57, 105]
    assert [len(naive_sets(cycle_graph(n), "gamma")) for n in range(3, 10)] == [7, 11, 21, 39, 71, 131, 241]


def test_the_2_set_weights_give_the_labelling_scan_value():
    # The forced-completion model of the Roman kernels against all 3^n labelings.
    for graph in _labelled():
        assert min(naive_roman_weights(graph)) == naive_roman(graph), graph.edges()
