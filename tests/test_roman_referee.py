"""Both Roman kernels against a brute force over every 2-set.

``test_backends`` holds the C kernels to ``_pykernels``, and both prune by
the same weight bound, so a bound that cut an optimum would pass there.
This referee prunes nothing: for a 2-set B2 the cheapest Roman assignment
labels the vertices outside N[B2] with 1, so it weighs 2|B2| + n - |N[B2]|.
"""

import random

import pytest
from helpers import labelled_graphs, random_gnp
from rootdom import _pykernels as slow
from rootdom.families import random_connected_graph, random_tree


def _weights(graph):
    """The weight of the forced completion of every 2-set mask."""
    n, closed = graph.n, graph.closed_masks()
    weights = []
    for b2 in range(1 << n):
        cover = 0
        for v in range(n):
            if b2 >> v & 1:
                cover |= closed[v]
        weights.append(2 * b2.bit_count() + n - cover.bit_count())
    return weights


def _scan_order(n):
    """The kernels' listing order: at the lowest vertex where two 2-sets
    differ, the one without it comes first."""
    return lambda mask: [mask >> v & 1 for v in range(n)]


def _lex(n):
    """Lexicographic order of the sorted vertex tuples."""
    return lambda mask: [v for v in range(n) if mask >> v & 1]


def _check(backends, graph, weights, forced_in, forced_out):
    n, closed = graph.n, graph.closed_masks()
    if forced_in & forced_out:  # overlapping forced masks break the kernel contract
        for backend in backends:
            with pytest.raises(ValueError, match="overlap"):
                backend.roman_min(n, closed, forced_in, forced_out)
            with pytest.raises(ValueError, match="overlap"):
                backend.roman_enumerate(n, closed, 1, 10, forced_in, forced_out)
        return
    allowed = [b2 for b2 in range(1 << n) if b2 & forced_in == forced_in and not b2 & forced_out]
    for backend in backends:
        found = backend.roman_min(n, closed, forced_in, forced_out)
        best = min(weights[b2] for b2 in allowed)
        optima = [b2 for b2 in allowed if weights[b2] == best]
        # Ties go to the fewest 2-labels, then the lexicographically smallest 2-set.
        first = min(optima, key=lambda b2: (b2.bit_count(), _lex(n)(b2)))
        assert found == (best, first), (graph.edges(), forced_in, forced_out)
        listed = sorted(optima, key=_scan_order(n))
        assert backend.roman_enumerate(n, closed, best, len(listed), forced_in, forced_out) == (listed, False)
        assert backend.roman_enumerate(n, closed, best, 0, forced_in, forced_out) == (listed[:1], True)
        # One above the optimum: every 2-set of that weight, none lighter.
        # Past the largest weight, 2n, the call breaks the kernel contract.
        if best == 2 * n:
            with pytest.raises(ValueError, match=f"^a listing takes a target weight in 1..{2 * n}, got {best + 1}$"):
                backend.roman_enumerate(n, closed, best + 1, 1 << n, forced_in, forced_out)
            continue
        heavier = sorted((b2 for b2 in allowed if weights[b2] == best + 1), key=_scan_order(n))
        assert backend.roman_enumerate(n, closed, best + 1, 1 << n, forced_in, forced_out) == (heavier, False)


def _forced_pairs(n, rng):
    """No forcing, each vertex forced in, each forced out, and one seeded pair
    of masks that may overlap."""
    yield 0, 0
    for v in range(n):
        yield 1 << v, 0
        yield 0, 1 << v
    forced_in = forced_out = 0
    for v in range(n):
        draw = rng.randrange(4)
        forced_in |= (draw == 0) << v
        forced_out |= (draw == 1) << v
    yield forced_in, forced_out | (forced_in & rng.randrange(1 << n))


def test_every_labelled_graph_up_to_order_5(fast):
    rng = random.Random(5)
    for n in range(1, 6):
        for graph in labelled_graphs(n):
            weights = _weights(graph)
            for forced_in, forced_out in _forced_pairs(n, rng):
                _check((slow, fast), graph, weights, forced_in, forced_out)


def test_seeded_graphs_up_to_order_10(fast):
    rng = random.Random(10)
    graphs = [
        random_gnp(rng.randint(6, 10), rng.choice((0.2, 0.4, 0.7)), rng.randrange(1 << 30)) for _ in range(12)
    ]
    graphs += [random_tree(rng.randint(6, 10), rng.randrange(1 << 30)) for _ in range(6)]
    graphs += [random_connected_graph(rng.randint(6, 10), 0.3, rng.randrange(1 << 30)) for _ in range(6)]
    for graph in graphs:
        weights = _weights(graph)
        for forced_in, forced_out in _forced_pairs(graph.n, rng):
            _check((slow, fast), graph, weights, forced_in, forced_out)
