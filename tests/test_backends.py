"""The C kernels and the pure-Python fallback must agree bit for bit.

The ``fast`` fixture (``conftest.py``) loads the C library, compiling it for
the session when it is not built; the tests skip only when there is no C
compiler.
"""

import ctypes.util
import random

import pytest

from helpers import kind_table, ladder_graph, random_gnp
from rootdom import _pykernels as slow
from rootdom import kernels
from rootdom._cbackend import load
from rootdom.families import cycle_graph, path_graph, random_connected_graph, random_tree
from rootdom.graph import Graph, is_connected
from rootdom.product import RootedGraph, rooted_product

KINDS = range(slow.KIND_DOMINATING, slow.KIND_INDEPENDENT + 1)


def _graphs():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(1, 9)
        yield random_gnp(n, rng.choice((0.2, 0.4, 0.7)), seed=rng.randrange(1 << 30))


def _cases(kinds):
    """Each graph with each kind defined on it, and the kind's table."""
    for g in _graphs():
        for kind in kinds:
            if kind == slow.KIND_CONVEX_DOMINATING and not is_connected(g):
                continue
            yield g, kind, kind_table(g, kind)


def test_scan_min_identical(fast):
    for g, kind, table in _cases(range(6)):
        args = (kind, g.n, g.open_masks(), table)
        assert fast.scan_min(*args) == slow.scan_min(*args)


def test_scan_min_uses_the_top_mask_bit(fast):
    star = Graph(62, [(61, v) for v in range(61)])
    args = (star.n, star.open_masks(), None)
    assert fast.scan_min(slow.KIND_DOMINATING, *args) == slow.scan_min(slow.KIND_DOMINATING, *args)
    assert fast.scan_min(slow.KIND_DOMINATING, *args) == (1, 1 << 61)
    assert fast.scan_max_independent(62, star.open_masks()) == (61, (1 << 61) - 1)


def test_max_independent_identical(fast):
    for g in _graphs():
        assert fast.scan_max_independent(g.n, g.open_masks()) == slow.scan_max_independent(
            g.n, g.open_masks()
        )


def test_enumeration_identical(fast):
    hit_cap = 0
    for g, kind, table in _cases(KINDS):
        om = g.open_masks()
        if kind == slow.KIND_INDEPENDENT:
            found = slow.scan_max_independent(g.n, om)
        else:
            found = slow.scan_min(kind, g.n, om, table)
        for cap in (10**6, 1) if found else ():
            args = (kind, g.n, om, table, found[0], cap)
            result = fast.enumerate_size(*args)
            assert result == slow.enumerate_size(*args)
            hit_cap += result[1]
    assert hit_cap  # cap=1 cut some enumerations short


def _products():
    """Seeded rooted products G o H of order 12..20, G of order 2..4 and H of
    order 4..6 as in theorem S1: large enough for the scans' cuts, and every
    root is a cut vertex."""
    rng = random.Random(2025)
    for g_n, h_n in ((2, 6), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5)):
        for _ in range(2):
            g = random_connected_graph(g_n, 0.6, seed=rng.randrange(1 << 30))
            h = random_connected_graph(h_n, 0.5, seed=rng.randrange(1 << 30))
            yield rooted_product(g, RootedGraph(h, rng.randrange(h_n))).product


def test_super_scan_on_products_identical(fast):
    kind = slow.KIND_SUPER_DOMINATING
    hit_cap = 0
    for g in _products():
        om = g.open_masks()
        found = slow.scan_min(kind, g.n, om)
        assert fast.scan_min(kind, g.n, om) == found
        for cap in (10**6, 1):
            args = (kind, g.n, om, None, found[0], cap)
            result = fast.enumerate_size(*args)
            assert result == slow.enumerate_size(*args)
            hit_cap += result[1]
    assert hit_cap  # cap=1 cut some enumerations short


def _convex_hosts():
    """Trees, cycles, ladders and G(n, 0.25) of order 14..18."""
    rng = random.Random(2026)
    for n in (14, 16, 18):
        yield random_tree(n, seed=rng.randrange(1 << 30))
        yield cycle_graph(n)
        yield ladder_graph(n // 2)
        yield random_connected_graph(n, 0.25, seed=rng.randrange(1 << 30))


def test_connected_family_scans_with_forced_cut_vertices_identical(fast):
    connected, convex = slow.KIND_CONNECTED_DOMINATING, slow.KIND_CONVEX_DOMINATING
    weakly = slow.KIND_WEAKLY_CONNECTED_DOMINATING
    cases = [(g, kind) for g in _products() for kind in (connected, convex, weakly)]
    cases += [(g, kind) for g in _convex_hosts() for kind in (connected, convex)]
    hit_cap = forced = 0
    for g, kind in cases:
        om = g.open_masks()
        table = kind_table(g, kind)
        # The solvers force the cut vertices for connected and convex only.
        cut = 0 if kind == weakly else g.cut_vertices()
        found = slow.scan_min(kind, g.n, om, table, cut)
        assert fast.scan_min(kind, g.n, om, table, cut) == found
        for cap in (10**6, 1):
            args = (kind, g.n, om, table, found[0], cap, cut)
            result = fast.enumerate_size(*args)
            assert result == slow.enumerate_size(*args)
            hit_cap += result[1]
        forced += cut != 0
    assert hit_cap  # cap=1 cut some enumerations short
    assert forced >= 2 * (12 + 3)  # every product and every tree, for connected and convex


def test_forced_in_keeps_exactly_the_sets_that_hold_it(fast):
    # Forced vertices that the predicate does not imply, high ones included:
    # a forced vertex above the last pick must still be caught.
    rng = random.Random(7)
    for g, kind, table in _cases(range(6)):
        om = g.open_masks()
        forced = (1 << rng.randrange(g.n)) | (1 << (g.n - 1))
        first = None
        for k in range(1, g.n + 1):
            every, _ = slow.enumerate_size(kind, g.n, om, table, k, 10**6)
            held = [m for m in every if m & forced == forced]
            args = (kind, g.n, om, table, k, 10**6, forced)
            assert slow.enumerate_size(*args) == fast.enumerate_size(*args) == (held, False)
            if held and first is None:
                first = (k, held[0])
        args = (kind, g.n, om, table, forced)
        assert slow.scan_min(*args) == fast.scan_min(*args) == first


def test_forced_out_on_products_identical(fast):
    # Existence scans (cap 0), a cut short listing (cap 1) and a full one,
    # with a forced-out vertex and, for some scans, a forced-in one: the
    # constrained scans root classification runs.
    rng = random.Random(11)
    stopped = 0
    for g in _products():
        om = g.open_masks()
        for kind in KINDS:
            table = kind_table(g, kind)
            cut = g.cut_vertices() if kind in (slow.KIND_CONNECTED_DOMINATING, slow.KIND_CONVEX_DOMINATING) else 0
            if kind == slow.KIND_INDEPENDENT:
                size = slow.scan_max_independent(g.n, om)[0]
            else:
                size = slow.scan_min(kind, g.n, om, table, cut)[0]
            every, _ = slow.enumerate_size(kind, g.n, om, table, size, 10**6, cut)
            out = (1 << rng.randrange(g.n)) & ~cut
            forced_in = cut | (rng.choice((0, 1 << rng.randrange(g.n))) & ~out)
            held = [m for m in every if m & forced_in == forced_in and not m & out]
            for cap in (0, 1, 10**6):
                args = (kind, g.n, om, table, size, cap, forced_in, out)
                result = fast.enumerate_size(*args)
                assert result == slow.enumerate_size(*args) == (held[: cap + 1], len(held) > cap)
                stopped += result[1]
    assert stopped  # some scans stopped early


def test_roman_with_forced_2_sets_on_products_identical(fast):
    rng = random.Random(12)
    found = 0
    for g in _products():
        om, cm = g.open_masks(), g.closed_masks()
        weight = slow.roman_min(g.n, om)[0]
        every, _ = slow.roman_enumerate(g.n, om, weight, 10**6)
        for _ in range(3):
            forced_in = rng.choice((0, 1 << rng.randrange(g.n)))
            out = cm[rng.randrange(g.n)] & ~forced_in
            held = [m for m in every if m & forced_in == forced_in and not m & out]
            for cap in (0, 1, 10**6):
                args = (g.n, om, weight, cap, forced_in, out)
                result = fast.roman_enumerate(*args)
                assert result == slow.roman_enumerate(*args) == (held[: cap + 1], len(held) > cap)
                found += bool(result[0])
    assert found  # some forced scans found an optimum


def test_scan_min_with_forced_masks_identical(fast):
    # Zero masks give the unforced scan; otherwise the least feasible set
    # that holds forced_in and misses forced_out, the first of its size that
    # enumerate_size lists.
    rng = random.Random(13)
    forced = 0
    for g, kind, table in list(_cases(range(6))) + [(g, 0, None) for g in _products()]:
        args = (kind, g.n, g.open_masks(), table)
        assert fast.scan_min(*args, 0, 0) == slow.scan_min(*args, 0, 0) == slow.scan_min(*args)
        out = 1 << rng.randrange(g.n)
        forced_in = rng.choice((0, 1 << rng.randrange(g.n))) & ~out
        first = next(
            ((k, listed[0]) for k in range(1, g.n + 1)
             for listed in [slow.enumerate_size(*args, k, 0, forced_in, out)[0]] if listed),
            None,
        )
        assert fast.scan_min(*args, forced_in, out) == slow.scan_min(*args, forced_in, out) == first
        forced += first is not None
    assert forced  # some forced scans found a set


def test_roman_min_with_forced_2_sets_identical(fast):
    # Zero masks give the unforced scan; otherwise the least weight over the
    # 2-sets that hold forced_in and miss forced_out, with the tie-break of
    # roman_min: fewest 2-labels, then the lexicographically smallest.
    rng = random.Random(14)
    for g in list(_graphs()) + list(_products()):
        om, cm = g.open_masks(), g.closed_masks()
        assert fast.roman_min(g.n, om, 0, 0) == slow.roman_min(g.n, om, 0, 0) == slow.roman_min(g.n, om)
        for _ in range(3):
            forced_in = rng.choice((0, 1 << rng.randrange(g.n)))
            out = rng.choice((1 << rng.randrange(g.n), cm[rng.randrange(g.n)])) & ~forced_in
            weight = next(w for w in range(1, 3 * g.n) if slow.roman_enumerate(g.n, om, w, 0, forced_in, out)[0])
            listed = slow.roman_enumerate(g.n, om, weight, 10**6, forced_in, out)[0]
            listed.reverse()  # scan order lists 2-sets of one size in reverse lex order
            listed.sort(key=int.bit_count)
            expected = (weight, listed[0])
            assert fast.roman_min(g.n, om, forced_in, out) == slow.roman_min(g.n, om, forced_in, out) == expected


def _malformed_calls():
    """(fault, entry, arguments, message) of calls that break the kernel
    contract, on the path P6 unless they say otherwise: each fault on every
    entry that takes the argument at fault."""
    g = path_graph(6)
    om, dom = g.open_masks(), slow.KIND_DOMINATING
    convex, weakly = slow.KIND_CONVEX_DOMINATING, slow.KIND_WEAKLY_CONNECTED_DOMINATING
    # A convex or weakly scan without its table, or with one too short by
    # half or by one mask.
    for kind, table in ((convex, g.interval_masks()), (weakly, g.bridges())):
        for given in (None, table[:3], table[:-1]):
            message = f"^expected {len(table)} masks, got {0 if given is None else len(given)}$"
            yield "short", "scan_min", (kind, 6, om, given), message
            yield "short", "enumerate_size", (kind, 6, om, given, 2, 10), message
    # Open masks too short by half or by one mask.
    for got in (3, 5):
        short = f"^expected 6 masks, got {got}$"
        yield "short", "scan_min", (dom, 6, om[:got]), short
        yield "short", "enumerate_size", (dom, 6, om[:got], None, 2, 10), short
        yield "short", "scan_max_independent", (6, om[:got]), short
        yield "short", "roman_min", (6, om[:got]), short
        yield "short", "roman_enumerate", (6, om[:got], 4, 10), short
    # Orders outside 1..MAX_ORDER.
    for n in (0, slow.MAX_ORDER + 1):
        z, message = [0] * n, f"^the kernels take orders 1..{slow.MAX_ORDER}, got {n}$"
        yield "order", "scan_min", (dom, n, z), message
        yield "order", "scan_max_independent", (n, z), message
        yield "order", "enumerate_size", (dom, n, z, None, 1, 10), message
        yield "order", "roman_min", (n, z), message
        yield "order", "roman_enumerate", (n, z, 1, 10), message
    # Forced masks outside the vertices, or overlapping.
    for fault, forced, message in (
        ("outside", (1 << 6, 0), "^forced_in 0x40 is not a set of vertices of a graph of order 6$"),
        ("outside", (0, -1), "^forced_out -0x1 is not a set of vertices of a graph of order 6$"),
        ("overlap", (0b11, 0b10), "^forced_in 0x3 and forced_out 0x2 overlap$"),
    ):
        yield fault, "scan_min", (dom, 6, om, None, *forced), message
        yield fault, "enumerate_size", (dom, 6, om, None, 2, 10, *forced), message
        yield fault, "roman_min", (6, om, *forced), message
        yield fault, "roman_enumerate", (6, om, 4, 10, *forced), message
    # Masks outside the vertices: past 64 bits, negative, holding the vertex
    # n, or past 64 bits by far.  C would count a degree of 64 into count[64]
    # of start() and index past the n masks passed by a bit at or past n.
    for bad in (2**64 - 1, -1, 1 << 6, 1 << 70):
        wrong = f"{bad:#x} is not a set of vertices of a graph of order 6$"
        opened = (*om[:2], bad, *om[3:])
        yield "value", "scan_min", (dom, 6, opened), "^open mask " + wrong
        yield "value", "enumerate_size", (dom, 6, opened, None, 2, 10), "^open mask " + wrong
        yield "value", "scan_max_independent", (6, opened), "^open mask " + wrong
        yield "value", "roman_min", (6, opened), "^open mask " + wrong
        yield "value", "roman_enumerate", (6, opened, 4, 10), "^open mask " + wrong
        # A table entry, on the kinds that read one and on one that does not.
        for kind, table in ((convex, g.interval_masks()), (weakly, g.bridges()), (dom, om)):
            table = (*table[:2], bad, *table[3:])
            yield "value", "scan_min", (kind, 6, om, table), "^table entry " + wrong
            yield "value", "enumerate_size", (kind, 6, om, table, 2, 10), "^table entry " + wrong
        # Past the n masks the kernels read, too: the C wrapper converts them all.
        beyond = (*om, bad)
        yield "value", "scan_min", (dom, 6, beyond), "^open mask " + wrong
        yield "value", "enumerate_size", (dom, 6, beyond, None, 2, 10), "^open mask " + wrong
        yield "value", "scan_max_independent", (6, beyond), "^open mask " + wrong
        yield "value", "roman_min", (6, beyond), "^open mask " + wrong
        yield "value", "roman_enumerate", (6, beyond, 4, 10), "^open mask " + wrong
    # Listing sizes outside 1..n, on every kind, and target weights outside
    # 1..2n; the C int and int64 arguments would wrap 2**32 - 1 to -1, 2**32
    # to 0 and 2**64 + 4 to 4.
    for size in (0, -1, 7, 2**32 - 1, 2**32):
        message = f"^a listing takes a size in 1..6, got {size}$"
        for kind in KINDS:
            yield "size", "enumerate_size", (kind, 6, om, kind_table(g, kind), size, 10), message
    for weight in (0, -1, 13, 2**32 - 1, 2**64 + 4):
        message = f"^a listing takes a target weight in 1..12, got {weight}$"
        yield "size", "roman_enumerate", (6, om, weight, 10), message
    # Caps outside what C's int64 holds.
    for cap in (-1, slow.MAX_CAP + 1):
        message = f"^a listing takes a cap in 0..{slow.MAX_CAP}, got {cap}$"
        yield "cap", "enumerate_size", (dom, 6, om, None, 2, cap), message
        yield "cap", "roman_enumerate", (6, om, 4, cap), message


@pytest.mark.parametrize(
    "name, args, message",
    [
        pytest.param(name, args, message, id=f"{fault}-{name}-{i}")
        for i, (fault, name, args, message) in enumerate(_malformed_calls())
    ],
)
def test_a_call_that_breaks_the_contract_raises_the_same_error_on_both_backends(fast, name, args, message):
    raised = []
    for backend in (fast, slow):
        with pytest.raises(ValueError, match=message) as caught:
            getattr(backend, name)(*args)
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1]


def test_an_unknown_kind_is_rejected_at_entry(fast):
    g = Graph(3, [(0, 1), (1, 2)])
    om = g.open_masks()
    for backend in (fast, slow):
        for kind in (-1, 7, 9):
            # Overlapping forced masks and sizes below 1 break the contract
            # too, but the kind code is checked first.
            for forced_in, forced_out in ((0, 0), (1, 1)):
                with pytest.raises(ValueError, match=f"^unknown kind code {kind}$"):
                    backend.scan_min(kind, 3, om, None, forced_in, forced_out)
                for k in (-1, 0, 1):
                    with pytest.raises(ValueError, match=f"^unknown kind code {kind}$"):
                        backend.enumerate_size(kind, 3, om, None, k, 10, forced_in, forced_out)


def test_roman_identical(fast):
    hit_cap = 0
    for g in _graphs():
        om = g.open_masks()
        best = slow.roman_min(g.n, om)
        assert fast.roman_min(g.n, om) == best
        for cap in (10**6, 1):
            result = fast.roman_enumerate(g.n, om, best[0], cap)
            assert result == slow.roman_enumerate(g.n, om, best[0], cap)
            hit_cap += result[1]
    assert hit_cap  # cap=1 cut some enumerations short


def test_forced_in_outside_the_vertices_is_rejected(fast):
    g = Graph(3, [(0, 1), (1, 2)])
    args = (slow.KIND_DOMINATING, 3, g.open_masks(), None)
    for forced in (-1, 1 << 3, 1 << 64):
        for backend in (fast, slow):
            with pytest.raises(ValueError, match="forced_in"):
                backend.scan_min(*args, forced)
            with pytest.raises(ValueError, match="forced_in"):
                backend.enumerate_size(*args, 1, 10, forced)
            with pytest.raises(ValueError, match="forced_in"):
                backend.roman_enumerate(3, g.open_masks(), 2, 10, forced)
            with pytest.raises(ValueError, match="forced_in"):
                backend.roman_min(3, g.open_masks(), forced)


def test_forced_out_outside_the_vertices_is_rejected(fast):
    g = Graph(3, [(0, 1), (1, 2)])
    args = (slow.KIND_DOMINATING, 3, g.open_masks(), None)
    for forced in (-1, 1 << 3, 1 << 64):
        for backend in (fast, slow):
            with pytest.raises(ValueError, match="forced_out"):
                backend.enumerate_size(*args, 1, 10, 0, forced)
            with pytest.raises(ValueError, match="forced_out"):
                backend.roman_enumerate(3, g.open_masks(), 2, 10, 0, forced)
            with pytest.raises(ValueError, match="forced_out"):
                backend.scan_min(*args, 0, forced)
            with pytest.raises(ValueError, match="forced_out"):
                backend.roman_min(3, g.open_masks(), 0, forced)


def test_a_list_changed_in_place_gives_the_new_answer(fast):
    path, star = Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (0, 2), (0, 3)])
    masks = list(path.open_masks())
    assert fast.roman_min(4, masks) == (3, 0b10)
    masks[:] = star.open_masks()
    assert fast.roman_min(4, masks) == (2, 0b1)
    for g in (path, star, path, path):
        assert fast.roman_min(4, g.open_masks()) == slow.roman_min(4, g.open_masks())
        assert fast.scan_min(0, 4, g.open_masks()) == slow.scan_min(0, 4, g.open_masks())


def test_a_library_without_the_kernels_is_refused():
    with pytest.raises(ImportError, match="does not export"):
        load(ctypes.util.find_library("c"))


def test_backend_reports_name(fast):
    assert kernels.BACKEND in ("c", "python")
    assert fast.BACKEND == "c" and slow.BACKEND == "python"
