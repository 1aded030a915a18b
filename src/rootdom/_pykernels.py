"""Pure-Python bitmask kernels: the fallback when ``_ckernels.c`` is not built.

This module also holds what both backends share: the kind codes,
``MAX_ORDER`` and the checks of the kernel contract below.  ``graph``
imports ``connected_mask`` from it, so it is loaded on either backend.

Contract.  Every entry of both backends takes the graph as its order n and
its n open neighbourhood masks N(v), and first checks its call, with
``check_scan`` for the subset scans, ``check_masks`` for the Roman scans
and ``scan_max_independent``, and ``check_listing`` for the two listings,
so a call that breaks the contract raises the same ``ValueError``, with the
same message, on either backend.  A call keeps it when its kind code is one
of the seven below; the order n is in 1..``MAX_ORDER``; it passes at least
n open masks, and a table of at least the n * n interval masks for convex
and the n bridge masks for weakly; every mask in these, and both forced
masks, are sets of vertices 0..n-1; its forced masks are disjoint; and a
listing asks for a size in 1..n (``enumerate_size``) or a target weight in
1..2n (``roman_enumerate``), with a cap in 0..``MAX_CAP``.  The open masks
and the table are each checked once, whole, by their least and their
largest mask.  No solver call breaks the contract, so no kernel has a
branch for the empty graph, the empty set, overlapping forced masks or a
neighbour outside the graph.  The closed neighbourhoods N[v] = N(v) + v
that the cuts read follow from the open masks: each backend builds them
once per call, in its one scan frame (``_scan_frame`` here, ``init_scan``
in C).

All functions operate on per-vertex neighborhood bitmasks.  Subset scans run
in cardinality order, enumerating each cardinality in lexicographic order of
the sorted vertex tuples, so the first feasible subset found is the
lexicographically smallest optimum.

``scan_min`` and ``enumerate_size`` take a ``table`` of the graph's
structure: the n * n geodesic interval masks (entry ``u * n + w``) for the
convex kind, the n bridge masks for the weakly kind, and nothing the other
kinds read.  They also take a ``forced_in`` mask and visit only feasible
sets that contain it.  The solvers pass the cut vertices for the
connected and convex kinds: if a cut vertex v is left out, a connected set
lies inside one component of G - v and the other components go
undominated; convex sets are connected.  Nine cuts follow.

* Start size.  ``start`` returns the largest of these lower bounds, with
  S_k the sum of the k largest degrees: |forced_in|; ceil(n/2) for super
  (each out-vertex v is served by its own member u with N(u) - S = {v});
  S_k >= n + k - 2 for connected and convex (G[S] has k - 1 edges and n - k
  edges leave S); S_k >= n - 1 for weakly (the weak subgraph spans G, is
  connected, and each of its edges has an end in S); S_k + k >= n for
  every dominating kind (|N[S]| <= S_k + k).
* Needed vertices.  The scan carries ``need``, the vertices every feasible
  completion of the picked set must hold: ``forced_in``, and for convex
  the geodesic interval of every picked pair.  A completion of size k that
  must hold more than k vertices fails, so such a pick is skipped.  At the
  last pick this test leaves no needed vertex out, one above the last pick
  included: the set holds ``forced_in`` and, for convex, the interval of
  every pair it holds, so it is convex.
* Decided out.  Before the scan picks vertex v, every unpicked vertex
  below v is out for good.  If one of them is needed, or (super) has no
  server left, the branch is cut with every larger v, since more
  out-vertices serve fewer.  A server of an out-vertex w is a vertex u
  outside the set with N(u) & out = {w}.  So the super scan carries two
  masks down the recursion: ``once``, the vertices with at least one
  neighbour out, and ``twice``, those with at least two.  When v - 1 goes
  out they take two ORs, twice |= once & N(v - 1), then once |= N(v - 1);
  the servers are once & ~twice & ~out, and the service test (``_served``)
  asks only that each out-vertex have a neighbour among them.  The leaf
  counts the vertices above the last pick into the same masks and asks
  the same test.  These tests and the bridge, lost-edge and dead-server
  tests run on one decided-out set, in one hook.
* Bridges.  An edge with both ends out of a set S is no edge of its weak
  subgraph, and a weak subgraph without a bridge of G is disconnected.
  So for the weakly kind the caller passes each vertex's neighbours across
  a bridge as the table (``Graph.bridges()``, from the same depth-first
  pass as the cut vertices), and the decided-out hook cuts the branch, with
  every larger v, once v - 1 is out together with a bridge neighbour below
  it.  Every pair of decided-out bridge ends meets this test when its
  higher end goes out.
* Convex hull.  A pick whose new intervals hold a decided-out vertex is
  skipped.  A larger v may still fit, so this cut skips only v.

Four more cuts are node-level forms of the counting bounds that
``start`` applies only at the root.  The first two read ``left``, the
number of picks still to come after the pick v, and test only picks with
``left > 0``: at the last pick the coverage test below is exact.

* Cover (gamma, i, weakly).  Each pick still to come covers at most D
  vertices, with D the size of the largest closed neighbourhood among the
  vertices above v that are not forced out (and at least 2:
  ``_scan_frame``'s ``widest[v + 1]``).  So a pick is skipped when more
  than ``left * D`` vertices lie outside N[S + v], the closed
  neighbourhood of the picked set with v.  For weakly the bound is
  ``left * D - 1``: the closed neighbourhood of the picks still to come
  must also meet N[S + v], or no edge of the weak subgraph joins the two.
* Room (alpha, i).  The picks still to come lie above v, and an
  independent set holds no vertex of N[S + v] but its own.  So a pick is
  skipped when fewer than ``left`` vertices above v lie outside N[S + v].
* Lost edges (weakly).  The weak subgraph of S loses every edge with both
  ends out of S, and as a connected spanning subgraph it keeps at least
  n - 1 of the m edges.  The decided-out hook counts the edges with both
  ends decided out (``lost``, one vertex more at each v) and cuts the
  branch, with every larger v, once they exceed m - n + 1; the count only
  grows with v.  The bridge test stays, since one lost bridge already
  disconnects the weak subgraph.
* Dead servers (super).  Each of the n - k out-vertices needs a server
  of its own in the set, and a picked vertex in ``twice`` serves no one,
  so at most 2k - n picks lie in ``twice`` (``start``'s ceil(n/2) is this
  bound with none there).  ``twice`` only grows with v, so the
  decided-out hook cuts the branch, with every larger v, once more picks
  than that lie in it, and skips a pick v in ``twice`` that would make
  one too many.  The hook runs only past a node's first vertex, so a
  first pick that makes one too many is not skipped: each node below it
  cuts every branch but its own first, and the leaf turns the last away.

Connected and convex scans do without the counting cuts, and super scans
have only their own: there the others prune little and cost more than they
save.

Each pick also passes two tests of its own.  Independence: for the
independent kinds, a pick next to a picked vertex is skipped.  Coverage: a
pick is skipped when a vertex that must be covered lies outside the closed
neighbourhoods of the picked set and of the vertices above the pick that
may still join it (the suffix cover, see ``_scan_frame``).  At the last
pick no vertex joins after it, so the suffix is empty, and the test says
exactly that the set does not dominate or that the pick is forced out.

So every local condition (coverage, independence, the forced vertices,
convexity) is decided by a cut, exactly at the last pick, and the leaf,
``_leaf_ok``, tests only what no cut decides: connectivity, weak
connectivity and super service.  Every cut drops only subsets that are not
feasible, so the feasible subsets are visited in the same order as without
them, and values, witnesses and enumerations are unchanged.

``scan_min`` and ``enumerate_size`` also take a ``forced_out`` mask and
visit only the feasible sets that miss it; root classification asks
``enumerate_size`` for one such set (``cap == 0``), and the root-state
tables of ``solvers.product_value`` ask ``scan_min`` for the least one.  A
forced-out vertex is never picked: the coverage test reads a per-vertex
table ``must`` (what must be covered once the vertex is picked), and a
forced-out vertex's entry is the bit n, which no cover holds.  So a scan
without forced-out vertices runs no extra test per candidate.  The closed
neighbourhoods of forced-out vertices also leave the suffix cover, which
makes the coverage cut stronger.  The cut stays sound: a completion of the
picked set adds only vertices above the last pick that are not forced out,
so it dominates no vertex outside the picked set's closed neighbourhoods
and that suffix cover, and a pick that leaves such a vertex is skipped.

``roman_min`` and ``roman_enumerate`` take 2-set masks the same way.
Forced-in vertices start in B2 and forced-out vertices stay out; the
recursion runs over the list of the other, free vertices, so a scan that
forces nothing pays no new test per node.  Its suffix cover holds the
closed neighbourhoods of the free vertices still to decide, and a branch is
cut once a lower bound on its weight exceeds the best weight so far (or the
target weight): 2 per vertex in B2 so far; 1 per uncovered vertex outside
the suffix cover, since it takes the label 1; and ceil(2|U|/D) for the set
U of the other uncovered vertices, with D the size of the largest closed
neighbourhood in the suffix cover, and at least 2.  Each vertex of U takes
the label 1 or joins a new 2-label's closed neighbourhood, and a new
2-label costs 2 and covers at most D vertices of U, so each costs at least
min(1, 2/D).  Once every vertex is decided U is empty and the bound is the
weight itself, so the leaf takes it and skips that term.  Only strictly
heavier branches are cut, so ties and listings are unchanged.

The C kernels in ``_ckernels.c`` have identical semantics, ``_cbackend``
checks their calls with the checks above, ``tests/test_backends.py`` holds
them to this module, and ``tests/test_referee.py`` holds both to the
prune-free referee ``naive``.
To compare their speed, run ``perfbench/run.py`` in a checkout with the
library built (``python setup.py build_ext --inplace``) and in one without
it.
"""

from __future__ import annotations

BACKEND = "python"

#: Kind codes, shared with the C kernels and with ``_cbackend``.
KIND_DOMINATING = 0
KIND_INDEPENDENT_DOMINATING = 1
KIND_CONNECTED_DOMINATING = 2
KIND_CONVEX_DOMINATING = 3
KIND_WEAKLY_CONNECTED_DOMINATING = 4
KIND_SUPER_DOMINATING = 5
KIND_INDEPENDENT = 6

#: Largest order the kernels are called with: the C kernels keep vertex sets
#: in 64-bit masks.  It is also the ceiling of the scan budget.
MAX_ORDER = 62

#: Largest cap a listing takes: the C kernels keep it in an int64.
MAX_CAP = (1 << 63) - 1


def check_kind(kind: int) -> None:
    """``kind`` must be one of the kind codes above."""
    if not KIND_DOMINATING <= kind <= KIND_INDEPENDENT:
        raise ValueError(f"unknown kind code {kind}")


def check_mask(n: int, mask: int, name: str) -> None:
    """A mask, named ``name`` in the error, must be a set of vertices 0..n-1."""
    if not 0 <= mask < 1 << n:
        raise ValueError(f"{name} {mask:#x} is not a set of vertices of a graph of order {n}")


def _check_sequence(masks, size: int, n: int, name: str) -> None:
    """A mask sequence, or a table, must hold at least ``size`` masks, and
    each of them, named ``name`` in the error, must be a set of vertices
    0..n-1: the C wrapper converts them all to 64-bit words."""
    got = 0 if masks is None else len(masks)
    if got < size:
        raise ValueError(f"expected {size} masks, got {got}")
    if min(masks) < 0 or max(masks) >> n:
        check_mask(n, next(m for m in masks if not 0 <= m < 1 << n), name)


def check_masks(n: int, open_m, forced_in: int = 0, forced_out: int = 0) -> None:
    """The contract of a Roman scan and of ``scan_max_independent``: an
    order in 1..``MAX_ORDER``, n open masks of vertices 0..n-1, and disjoint
    forced masks of vertices 0..n-1."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"the kernels take orders 1..{MAX_ORDER}, got {n}")
    _check_sequence(open_m, n, n, "open mask")
    check_mask(n, forced_in, "forced_in")
    check_mask(n, forced_out, "forced_out")
    if forced_in & forced_out:
        raise ValueError(f"forced_in {forced_in:#x} and forced_out {forced_out:#x} overlap")


def check_scan(kind: int, n: int, open_m, table, forced_in: int = 0, forced_out: int = 0) -> None:
    """The contract of a subset scan: a known kind code (checked first),
    ``check_masks``, and the kind's table, or any table given to a kind that
    reads none, of vertices 0..n-1."""
    check_kind(kind)
    check_masks(n, open_m, forced_in, forced_out)
    size = n * n if kind == KIND_CONVEX_DOMINATING else n if kind == KIND_WEAKLY_CONNECTED_DOMINATING else 0
    if size or table:
        _check_sequence(table, size, n, "table entry")


def check_listing(name: str, size: int, top: int, cap: int) -> None:
    """The contract of a listing: a size, named ``name`` in the error, in
    1..``top`` and a cap in 0..``MAX_CAP``.  C takes them as int and int64,
    which would wrap a larger one silently."""
    if not 1 <= size <= top:
        raise ValueError(f"a listing takes a {name} in 1..{top}, got {size}")
    if not 0 <= cap <= MAX_CAP:
        raise ValueError(f"a listing takes a cap in 0..{MAX_CAP}, got {cap}")


_INDEPENDENT_KINDS = (KIND_INDEPENDENT_DOMINATING, KIND_INDEPENDENT)

#: The kinds of the cover cut (see the module docstring).
_COVER_CUT_KINDS = (KIND_DOMINATING, KIND_INDEPENDENT_DOMINATING, KIND_WEAKLY_CONNECTED_DOMINATING)

#: (slope, offset) of the degree-sum bound of ``start`` for the connected
#: kinds; every other dominating kind has (-1, 0).
_DEGREE_BOUND = {
    KIND_CONNECTED_DOMINATING: (1, -2),
    KIND_CONVEX_DOMINATING: (1, -2),
    KIND_WEAKLY_CONNECTED_DOMINATING: (0, -1),
}


def connected_mask(sub: int, open_m) -> bool:
    """True iff the nonempty vertex mask ``sub`` induces a connected
    subgraph: one bitmask BFS from its lowest vertex, kept inside ``sub``.
    ``graph.is_connected`` and ``graph.is_connected_subset`` use it too."""
    reach = sub & (-sub)
    frontier = reach
    while frontier:
        grow = 0
        f = frontier
        while f:
            b = f & (-f)
            f ^= b
            grow |= open_m[b.bit_length() - 1]
        frontier = grow & sub & ~reach
        reach |= frontier
    return reach == sub


def _weakly_connected(sub: int, full: int, open_m) -> bool:
    # Caller guarantees N[sub] == full, so the weak subgraph spans all vertices.
    reach = sub & (-sub)
    frontier = reach
    while frontier:
        grow = 0
        f = frontier
        while f:
            b = f & (-f)
            f ^= b
            v = b.bit_length() - 1
            if b & sub:
                grow |= open_m[v]
            else:
                grow |= open_m[v] & sub
        frontier = grow & ~reach
        reach |= frontier
    return reach == full


def _served(out: int, once: int, twice: int, open_m) -> bool:
    """Whether every vertex w in ``out`` has a server: a neighbour u outside
    ``out`` with N(u) & out = {w}.  ``once`` and ``twice`` are the vertices
    with at least one and at least two neighbours in ``out``, so the servers
    are ``once & ~twice & ~out``.  With ``out = full & ~sub`` this is "sub is
    super dominating"; on a partial set it is the prune.  The test runs from
    the highest out-vertex down: the scan puts vertices out in increasing
    order, and the last one out is the likeliest to have no server."""
    servers = once & ~(twice | out)
    rest = out
    while rest:
        w = rest.bit_length() - 1
        if not open_m[w] & servers:
            return False
        rest ^= 1 << w
    return True


def _leaf_ok(kind: int, sub: int, full: int, open_m, first: int, outs: int) -> bool:
    """What no cut decides: whether the complete set ``sub``, whose last pick
    is ``first - 1``, is connected, weakly connected or super dominating, as
    its kind asks.  For super, ``outs`` is ``once | twice << n`` (see
    ``_served``) of the vertices out below ``first``; every vertex from
    ``first`` on is out too, and joins them here."""
    if kind == KIND_CONNECTED_DOMINATING:
        return connected_mask(sub, open_m)
    if kind == KIND_WEAKLY_CONNECTED_DOMINATING:
        return _weakly_connected(sub, full, open_m)
    if kind == KIND_SUPER_DOMINATING:
        n = full.bit_length()
        for v in range(first, n):
            gone = open_m[v]
            outs |= gone | (outs & gone) << n
        return _served(full & ~sub, outs & full, outs >> n, open_m)
    return True


def _scan_frame(kind: int, n: int, open_m, fixed: int):
    """The per-vertex tables of a scan that never picks a vertex of ``fixed``
    (a subset scan's forced-out vertices, a Roman scan's forced ones).
    ``closed[v]`` is the closed neighbourhood N[v], built here from the open
    masks, the one place a kernel does so.  ``suffix[v]`` is the union of the
    closed neighbourhoods of the vertices at or above v that are not in
    ``fixed``, and ``none`` the all-zero table the last pick reads instead,
    since no vertex joins after it.  ``must[v]`` is what must be covered once
    v is picked: every vertex for a dominating kind, nothing for
    ``KIND_INDEPENDENT``, and for a v in ``fixed`` the bit n, which no cover
    holds, so the coverage test turns v away at no extra cost.  ``widest[v]``
    is the size of the largest of those closed neighbourhoods, and at least
    2, the D of the cover cut and of the Roman weight bound; for the weakly
    kind, ``slack`` is m - n + 1, the most edges a spanning weak subgraph can
    lose (see the module docstring)."""
    closed = [m | 1 << v for v, m in enumerate(open_m[:n])]
    full = (1 << n) - 1 if kind != KIND_INDEPENDENT else 0
    must = [full] * n
    # joins[v]: what a pick of v may add to the cover; none for a fixed v,
    # which the scan never picks.
    joins = closed
    if fixed:
        joins = closed[:]
        for v in range(n):
            if fixed >> v & 1:
                must[v] = 1 << n
                joins[v] = 0
    suffix = [0] * (n + 1)
    widest = [2] * (n + 1)
    cover = 0
    wide = 2
    for v in range(n - 1, -1, -1):
        join = joins[v]
        cover |= join
        suffix[v] = cover
        if join.bit_count() > wide:
            wide = join.bit_count()
        widest[v] = wide
    slack = None
    if kind == KIND_WEAKLY_CONNECTED_DOMINATING:
        slack = sum(map(int.bit_count, open_m[:n])) // 2 - n + 1
    return closed, suffix, [0] * (n + 1), must, widest, slack


def _scan_k(kind, n, k, open_m, table, forced_in, frame, visit) -> bool:
    """Calls ``visit`` on each feasible subset of size k that contains
    ``forced_in`` and misses the forced-out vertices of ``frame`` (see
    ``_scan_frame``), in lex order, until it returns False; returns whether
    the scan ran to the end."""
    independent = kind in _INDEPENDENT_KINDS
    convex = kind == KIND_CONVEX_DOMINATING
    super_dominating = kind == KIND_SUPER_DOMINATING
    weakly = kind == KIND_WEAKLY_CONNECTED_DOMINATING
    hooked = super_dominating or weakly
    covering = kind in _COVER_CUT_KINDS
    counting = covering or independent
    full = (1 << n) - 1
    closed, suffix, none, must, widest, slack = frame

    # The most picks that may lie in ``twice`` (the dead-server cut).
    spare = 2 * k - n

    # ``togo`` picks are still to make, at ``first`` or above.  ``lost``
    # carries what the decided-out hook counts of the vertices out below
    # ``first``: for weakly the edges with both ends out, for super the
    # vertices with at least one and at least two neighbours out, as
    # once | twice << n.
    def rec(first: int, togo: int, sub: int, cover: int, need: int, lost: int) -> bool:
        if not togo:
            return not _leaf_ok(kind, sub, full, open_m, first, lost) or visit(sub)
        left = togo - 1
        tail = suffix if left else none
        counted = left and counting
        for v in range(first, n - left):
            # Below v every unpicked vertex is out for good: a needed one, a
            # bridge between two of them (v - 1 and a lower one), more lost
            # edges than a spanning weak subgraph can spare, an out-vertex
            # without a server, or more picks next to two out-vertices than
            # the out-vertices leave spare rules out every larger v too.
            if v > first and (need or hooked):
                out = ((1 << v) - 1) & ~sub
                if need & out:
                    break
                if weakly:
                    lost += (open_m[v - 1] & out).bit_count()
                    if table[v - 1] & out or lost > slack:
                        break
                elif super_dominating:
                    # A pick in ``twice`` serves no one, and each of the n - k
                    # out-vertices needs a server of its own among the k picks.
                    gone = open_m[v - 1]
                    lost |= gone | (lost & gone) << n
                    twice = lost >> n
                    dead = (sub & twice).bit_count()
                    if dead > spare or not _served(out, lost & full, twice, open_m):
                        break
                    if dead == spare and twice >> v & 1:
                        continue
            if independent and (open_m[v] & sub):
                continue
            new_cover = cover | closed[v]
            if must[v] & ~(new_cover | tail[v + 1]):
                continue
            if counted:
                # The ``left`` picks still to come must cover what is left
                # uncovered, at most widest[v + 1] vertices each (for weakly
                # one fewer in all, as they must also meet N[S + v]), and (for
                # the independent kinds) lie above v and outside N[S + v].
                uncovered = full & ~new_cover
                if covering and uncovered.bit_count() > left * widest[v + 1] - weakly:
                    continue
                if independent and (uncovered >> (v + 1)).bit_count() < left:
                    continue
            bit = 1 << v
            new_need = need
            if convex:
                rest, row = sub, v * n
                while rest:
                    ub = rest & (-rest)
                    rest ^= ub
                    new_need |= table[row + ub.bit_length() - 1]
                if new_need & (bit - 1) & ~sub:
                    continue
            if new_need and (new_need | sub | bit).bit_count() > k:
                continue
            if not rec(v + 1, left, sub | bit, new_cover, new_need, lost):
                return False
        return True

    return rec(0, k, 0, 0, forced_in, 0)


def _first(kind, n, sizes, open_m, table, forced_in=0, forced_out=0):
    """``(k, mask)`` of the lex-first feasible subset containing ``forced_in``
    and missing ``forced_out`` of the first size in ``sizes`` that has one,
    or None."""
    found: list[int] = []

    def stop(sub: int) -> bool:
        found.append(sub)
        return False

    frame = _scan_frame(kind, n, open_m, forced_out)
    for k in sizes:
        if not _scan_k(kind, n, k, open_m, table, forced_in, frame, stop):
            return k, found[0]
    return None


def start(kind: int, n: int, open_m, forced_in: int) -> int:
    """The smallest size a feasible set containing ``forced_in`` can have, by
    the bounds in the module docstring: at least 1, and n + 1 when no size
    up to n meets them."""
    smallest = max(1, forced_in.bit_count())
    if kind == KIND_SUPER_DOMINATING:
        smallest = max(smallest, (n + 1) // 2)
    if kind != KIND_INDEPENDENT:
        # The k largest degrees must sum to at least n + slope * k + offset.
        slope, offset = _DEGREE_BOUND.get(kind, (-1, 0))
        k = top = 0
        for degree in sorted(map(int.bit_count, open_m[:n]), reverse=True):
            k += 1
            top += degree
            if top >= n + slope * k + offset:
                break
        else:
            k = n + 1
        smallest = max(smallest, k)
    return smallest


def scan_min(kind: int, n: int, open_m, table=None, forced_in: int = 0, forced_out: int = 0):
    """Minimum feasible subset containing ``forced_in`` and missing
    ``forced_out``: ``(size, mask)``, or None when there is none."""
    check_scan(kind, n, open_m, table, forced_in, forced_out)
    sizes = range(start(kind, n, open_m, forced_in), n + 1)
    return _first(kind, n, sizes, open_m, table, forced_in, forced_out)


def scan_max_independent(n: int, open_m):
    """Maximum independent set: ``(size, mask)``."""
    check_masks(n, open_m)
    return _first(KIND_INDEPENDENT, n, range(n, 0, -1), open_m, None)


def enumerate_size(kind: int, n: int, open_m, table, k: int, cap: int, forced_in: int = 0, forced_out: int = 0):
    """All feasible subsets of size k that contain ``forced_in`` and miss
    ``forced_out``, in lex order: ``(masks, hit_cap)``.  With ``cap == 0``
    this is an existence test: it stops at the first such subset."""
    check_scan(kind, n, open_m, table, forced_in, forced_out)
    check_listing("size", k, n, cap)
    out: list[int] = []

    def collect(sub: int) -> bool:
        out.append(sub)
        return len(out) <= cap

    frame = _scan_frame(kind, n, open_m, forced_out)
    completed = _scan_k(kind, n, k, open_m, table, forced_in, frame, collect)
    return out, not completed


def _roman_scan(n: int, open_m, bound: list[int], leaf, forced_in: int = 0, forced_out: int = 0) -> bool:
    """Decides each vertex out of, then into, the 2-set B2, skipping every
    branch whose weight must exceed ``bound[0]``.  The vertices of
    ``forced_in`` start in B2 and those of ``forced_out`` stay out, so the
    recursion runs over the list of the other, free vertices, with the
    frame of ``_scan_frame`` over them.  Calls ``leaf(weight, twos,
    b2_mask)`` on each complete B2 until it returns False; returns whether
    the scan ran to the end.  The lowest free vertex is decided first, so
    2-sets of one size arrive in reverse lexicographic order."""
    fixed = forced_in | forced_out
    closed, suffix, _, _, widest, _ = _scan_frame(KIND_DOMINATING, n, open_m, fixed)
    free = [v for v in range(n) if not fixed >> v & 1]
    last = len(free)

    def rec(i: int, twos: int, uncovered: int, mask: int) -> bool:
        # The weight with every uncovered vertex labelled 1: exact once every
        # vertex is decided.  Before that, the ``inside`` ones, which a free
        # vertex may still cover, cost at least 2 / widest[v] each as part of
        # new 2-labels, ceil(2 * inside / widest[v]) together, and the lower
        # bound this gives can exceed ``bound[0]`` only where weight does.
        weight = 2 * twos + uncovered.bit_count()
        if i == last:
            return weight > bound[0] or leaf(weight, twos, mask)
        v = free[i]
        if weight > bound[0]:
            inside = (uncovered & suffix[v]).bit_count()
            if weight - inside - (-2 * inside // widest[v]) > bound[0]:
                return True
        i += 1
        return rec(i, twos, uncovered, mask) and rec(i, twos + 1, uncovered & ~closed[v], mask | 1 << v)

    cover = 0
    for v in range(n):
        if forced_in >> v & 1:
            cover |= closed[v]
    return rec(0, forced_in.bit_count(), ((1 << n) - 1) & ~cover, forced_in)


def roman_min(n: int, open_m, forced_in: int = 0, forced_out: int = 0):
    """Minimum Roman weight over the 2-label sets B2 that contain
    ``forced_in`` and miss ``forced_out``, with B1 forced.

    For a fixed B2 the cheapest completion labels exactly the vertices
    outside N[B2] with 1, giving weight ``2|B2| + n - |N[B2]|``; every
    minimum-weight assignment has this forced form, since a 1-label inside
    N[B2] could be lowered to 0.  Returns ``(weight, b2_mask)`` with ties
    broken by fewest 2-labels, then lexicographically smallest B2: a tie
    goes to the last candidate, which the scan order makes the smallest.
    """
    check_masks(n, open_m, forced_in, forced_out)
    bound = [3 * n + 1]
    best = [(3 * n + 1, 0), 0]

    def keep(weight: int, twos: int, mask: int) -> bool:
        if (weight, twos) <= best[0]:
            best[:] = (weight, twos), mask
            bound[0] = weight
        return True

    _roman_scan(n, open_m, bound, keep, forced_in, forced_out)
    return bound[0], best[1]


def roman_enumerate(n: int, open_m, target_weight: int, cap: int, forced_in: int = 0, forced_out: int = 0):
    """All B2 masks that contain ``forced_in``, miss ``forced_out`` and whose
    forced completion has the target weight, in scan order: ``(masks,
    hit_cap)``.  ``solvers.enumerate_optimal`` sorts them.  With ``cap == 0``
    this is an existence test."""
    check_masks(n, open_m, forced_in, forced_out)
    check_listing("target weight", target_weight, 2 * n, cap)
    out: list[int] = []

    def collect(weight: int, twos: int, mask: int) -> bool:
        if weight == target_weight:
            out.append(mask)
        return len(out) <= cap

    completed = _roman_scan(n, open_m, [target_weight], collect, forced_in, forced_out)
    return out, not completed
