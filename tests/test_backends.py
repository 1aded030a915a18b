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
from rootdom.families import cycle_graph, random_connected_graph, random_tree
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
        args = (kind, g.n, g.open_masks(), g.closed_masks(), table)
        assert fast.scan_min(*args) == slow.scan_min(*args)


def test_scan_min_uses_the_top_mask_bit(fast):
    star = Graph(62, [(61, v) for v in range(61)])
    args = (star.n, star.open_masks(), star.closed_masks(), None)
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
        om, cm = g.open_masks(), g.closed_masks()
        if kind == slow.KIND_INDEPENDENT:
            found = slow.scan_max_independent(g.n, om)
        else:
            found = slow.scan_min(kind, g.n, om, cm, table)
        for cap in (10**6, 1) if found else ():
            args = (kind, g.n, om, cm, table, found[0], cap)
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
        om, cm = g.open_masks(), g.closed_masks()
        found = slow.scan_min(kind, g.n, om, cm)
        assert fast.scan_min(kind, g.n, om, cm) == found
        for cap in (10**6, 1):
            args = (kind, g.n, om, cm, None, found[0], cap)
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
        om, cm = g.open_masks(), g.closed_masks()
        table = kind_table(g, kind)
        # The solvers force the cut vertices for connected and convex only.
        cut = 0 if kind == weakly else g.cut_vertices()
        found = slow.scan_min(kind, g.n, om, cm, table, cut)
        assert fast.scan_min(kind, g.n, om, cm, table, cut) == found
        for cap in (10**6, 1):
            args = (kind, g.n, om, cm, table, found[0], cap, cut)
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
        om, cm = g.open_masks(), g.closed_masks()
        forced = (1 << rng.randrange(g.n)) | (1 << (g.n - 1))
        first = None
        for k in range(g.n + 1):
            every, _ = slow.enumerate_size(kind, g.n, om, cm, table, k, 10**6)
            held = [m for m in every if m & forced == forced]
            args = (kind, g.n, om, cm, table, k, 10**6, forced)
            assert slow.enumerate_size(*args) == fast.enumerate_size(*args) == (held, False)
            if held and first is None:
                first = (k, held[0])
        args = (kind, g.n, om, cm, table, forced)
        assert slow.scan_min(*args) == fast.scan_min(*args) == first


def test_forced_out_on_products_identical(fast):
    # Existence scans (cap 0), a cut short listing (cap 1) and a full one,
    # with a forced-out vertex and, for some scans, a forced-in one: the
    # constrained scans root classification runs.
    rng = random.Random(11)
    stopped = 0
    for g in _products():
        om, cm = g.open_masks(), g.closed_masks()
        for kind in KINDS:
            table = kind_table(g, kind)
            cut = g.cut_vertices() if kind in (slow.KIND_CONNECTED_DOMINATING, slow.KIND_CONVEX_DOMINATING) else 0
            if kind == slow.KIND_INDEPENDENT:
                size = slow.scan_max_independent(g.n, om)[0]
            else:
                size = slow.scan_min(kind, g.n, om, cm, table, cut)[0]
            every, _ = slow.enumerate_size(kind, g.n, om, cm, table, size, 10**6, cut)
            out = (1 << rng.randrange(g.n)) & ~cut
            forced_in = cut | (rng.choice((0, 1 << rng.randrange(g.n))) & ~out)
            held = [m for m in every if m & forced_in == forced_in and not m & out]
            for cap in (0, 1, 10**6):
                args = (kind, g.n, om, cm, table, size, cap, forced_in, out)
                result = fast.enumerate_size(*args)
                assert result == slow.enumerate_size(*args) == (held[: cap + 1], len(held) > cap)
                stopped += result[1]
    assert stopped  # some scans stopped early


def test_roman_with_forced_2_sets_on_products_identical(fast):
    rng = random.Random(12)
    found = 0
    for g in _products():
        cm = g.closed_masks()
        weight = slow.roman_min(g.n, cm)[0]
        every, _ = slow.roman_enumerate(g.n, cm, weight, 10**6)
        for _ in range(3):
            forced_in = rng.choice((0, 1 << rng.randrange(g.n)))
            out = cm[rng.randrange(g.n)] & ~forced_in
            held = [m for m in every if m & forced_in == forced_in and not m & out]
            for cap in (0, 1, 10**6):
                args = (g.n, cm, weight, cap, forced_in, out)
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
        args = (kind, g.n, g.open_masks(), g.closed_masks(), table)
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
        cm = g.closed_masks()
        assert fast.roman_min(g.n, cm, 0, 0) == slow.roman_min(g.n, cm, 0, 0) == slow.roman_min(g.n, cm)
        for _ in range(3):
            forced_in = rng.choice((0, 1 << rng.randrange(g.n)))
            out = rng.choice((1 << rng.randrange(g.n), cm[rng.randrange(g.n)])) & ~forced_in
            weight = next(w for w in range(3 * g.n) if slow.roman_enumerate(g.n, cm, w, 0, forced_in, out)[0])
            listed = slow.roman_enumerate(g.n, cm, weight, 10**6, forced_in, out)[0]
            listed.reverse()  # scan order lists 2-sets of one size in reverse lex order
            listed.sort(key=int.bit_count)
            expected = (weight, listed[0])
            assert fast.roman_min(g.n, cm, forced_in, out) == slow.roman_min(g.n, cm, forced_in, out) == expected


def test_overlapping_forced_masks_list_nothing(fast):
    g = cycle_graph(6)
    om, cm = g.open_masks(), g.closed_masks()
    for backend in (fast, slow):
        for kind in KINDS:
            table = kind_table(g, kind)
            for k in (0, 2, 6):
                assert backend.enumerate_size(kind, 6, om, cm, table, k, 10, 0b11, 0b10) == ([], False)
        assert backend.roman_enumerate(6, cm, 4, 10, 0b100, 0b110) == ([], False)
        for kind in range(6):
            table = kind_table(g, kind)
            assert backend.scan_min(kind, 6, om, cm, table, 0b11, 0b10) is None
        assert backend.roman_min(6, cm, 0b100, 0b110) is None


def test_sizes_zero_and_below(fast):
    # Below size 0 nothing is listed; at size 0 the empty set, when nothing is
    # forced in and it is feasible: for KIND_INDEPENDENT, and on the empty graph.
    path, empty = Graph(3, [(0, 1), (1, 2)]), Graph(0, [])
    for backend in (fast, slow):
        for kind in KINDS:
            for g, table in ((path, kind_table(path, kind)), (empty, None)):
                args = (kind, g.n, g.open_masks(), g.closed_masks(), table)
                assert backend.enumerate_size(*args, -1, 10) == ([], False)
                listed = [0] if kind == slow.KIND_INDEPENDENT or g is empty else []
                assert backend.enumerate_size(*args, 0, 10) == (listed, False)
                if g.n:  # a forced-in vertex rules the empty set out
                    assert backend.enumerate_size(*args, 0, 10, 1) == ([], False)


def test_an_unknown_kind_is_rejected_at_entry(fast):
    g = Graph(3, [(0, 1), (1, 2)])
    om, cm = g.open_masks(), g.closed_masks()
    for backend in (fast, slow):
        for kind in (-1, 7, 9):
            # Overlapping forced masks list nothing, but only after the kind is checked.
            for forced_in, forced_out in ((0, 0), (1, 1)):
                with pytest.raises(ValueError, match=f"^unknown kind code {kind}$"):
                    backend.scan_min(kind, 3, om, cm, None, forced_in, forced_out)
                for k in (-1, 0, 1):
                    with pytest.raises(ValueError, match=f"^unknown kind code {kind}$"):
                        backend.enumerate_size(kind, 3, om, cm, None, k, 10, forced_in, forced_out)


def test_roman_identical(fast):
    hit_cap = 0
    for g in _graphs():
        cm = g.closed_masks()
        best = slow.roman_min(g.n, cm)
        assert fast.roman_min(g.n, cm) == best
        for cap in (10**6, 1):
            result = fast.roman_enumerate(g.n, cm, best[0], cap)
            assert result == slow.roman_enumerate(g.n, cm, best[0], cap)
            hit_cap += result[1]
    assert hit_cap  # cap=1 cut some enumerations short


def test_order_63_is_rejected(fast):
    z = [0] * 63
    for call, args in (
        (fast.scan_min, (slow.KIND_DOMINATING, 63, z, z)),
        (fast.scan_max_independent, (63, z)),
        (fast.enumerate_size, (slow.KIND_DOMINATING, 63, z, z, None, 1, 10)),
        (fast.roman_min, (63, z)),
        (fast.roman_enumerate, (63, z, 63, 10)),
    ):
        with pytest.raises(ValueError):
            call(*args)


def test_forced_in_outside_the_vertices_is_rejected(fast):
    g = Graph(3, [(0, 1), (1, 2)])
    args = (slow.KIND_DOMINATING, 3, g.open_masks(), g.closed_masks(), None)
    for forced in (-1, 1 << 3, 1 << 64):
        for backend in (fast, slow):
            with pytest.raises(ValueError, match="forced_in"):
                backend.scan_min(*args, forced)
            with pytest.raises(ValueError, match="forced_in"):
                backend.enumerate_size(*args, 1, 10, forced)
            with pytest.raises(ValueError, match="forced_in"):
                backend.roman_enumerate(3, g.closed_masks(), 2, 10, forced)
            with pytest.raises(ValueError, match="forced_in"):
                backend.roman_min(3, g.closed_masks(), forced)


def test_forced_out_outside_the_vertices_is_rejected(fast):
    g = Graph(3, [(0, 1), (1, 2)])
    args = (slow.KIND_DOMINATING, 3, g.open_masks(), g.closed_masks(), None)
    for forced in (-1, 1 << 3, 1 << 64):
        for backend in (fast, slow):
            with pytest.raises(ValueError, match="forced_out"):
                backend.enumerate_size(*args, 1, 10, 0, forced)
            with pytest.raises(ValueError, match="forced_out"):
                backend.roman_enumerate(3, g.closed_masks(), 2, 10, 0, forced)
            with pytest.raises(ValueError, match="forced_out"):
                backend.scan_min(*args, 0, forced)
            with pytest.raises(ValueError, match="forced_out"):
                backend.roman_min(3, g.closed_masks(), 0, forced)


def test_a_mask_sequence_shorter_than_the_order_is_rejected(fast):
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    full, short = g.closed_masks(), g.closed_masks()[:3]
    dom, convex, weakly = slow.KIND_DOMINATING, slow.KIND_CONVEX_DOMINATING, slow.KIND_WEAKLY_CONNECTED_DOMINATING
    for call, args in (
        (fast.scan_min, (dom, 4, short, full)),
        (fast.scan_min, (dom, 4, full, short)),
        (fast.scan_min, (convex, 4, full, full, g.interval_masks()[:15])),
        (fast.scan_min, (convex, 4, full, full, None)),
        (fast.scan_max_independent, (4, short)),
        (fast.enumerate_size, (dom, 4, short, full, None, 2, 10)),
        (fast.enumerate_size, (convex, 4, full, full, g.interval_masks()[:15], 2, 10)),
        # A weakly scan reads n bridge masks.
        (fast.scan_min, (weakly, 4, full, full, g.bridges()[:3])),
        (fast.scan_min, (weakly, 4, full, full, None)),
        (fast.enumerate_size, (weakly, 4, full, full, g.bridges()[:3], 2, 10)),
        (fast.enumerate_size, (weakly, 4, full, full, None, 2, 10)),
        (fast.roman_min, (4, short)),
        (fast.roman_enumerate, (4, short, 3, 10)),
    ):
        # Only the Python-side size check words its error this way.
        with pytest.raises(ValueError, match=r"expected \d+ masks, got \d+"):
            call(*args)


def test_a_list_changed_in_place_gives_the_new_answer(fast):
    path, star = Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (0, 2), (0, 3)])
    masks = list(path.closed_masks())
    assert fast.roman_min(4, masks) == (3, 0b10)
    masks[:] = star.closed_masks()
    assert fast.roman_min(4, masks) == (2, 0b1)
    for g in (path, star, path, path):
        assert fast.roman_min(4, g.closed_masks()) == slow.roman_min(4, g.closed_masks())
        assert fast.scan_min(0, 4, g.open_masks(), g.closed_masks()) == slow.scan_min(
            0, 4, g.open_masks(), g.closed_masks()
        )


def test_a_library_without_the_kernels_is_refused():
    with pytest.raises(ImportError, match="does not export"):
        load(ctypes.util.find_library("c"))


def test_backend_reports_name(fast):
    assert kernels.BACKEND in ("c", "python")
    assert fast.BACKEND == "c" and slow.BACKEND == "python"
