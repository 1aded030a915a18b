/*
 * Compiled bitmask subset-scan kernels, loaded with ctypes by rootdom.kernels.
 *
 * Plain C without the Python C-API.  The semantics are those of
 * rootdom/_pykernels.py, whose docstring states the kernel contract, the
 * start bound and the cuts: the same scan order, pruning and tie-breaks, so
 * values and witnesses agree bit for bit.  Only what is C-specific is
 * written here:
 *
 * - A vertex set is a uint64_t mask.  rootdom/_cbackend.py checks every
 *   call against the contract before C reads a buffer, so n is in 1..62,
 *   every mask is a set of vertices 0..n-1 (a degree stays below 64, and a
 *   bit indexes one of the n masks passed), a listing's size is in 1..n and
 *   its weight in 1..2n, no argument has wrapped in ctypes, no shift
 *   overflows, the all-ones word is never a vertex set (it is NOT_FOUND),
 *   and C reads every mask table without bounds.
 * - Every entry takes the graph as its order and its open masks N(v);
 *   init_scan builds the closed masks N[v] = N(v) | v into the scan, the
 *   one place C does so.
 * - zeros is a mask table that holds no vertex: the bridge table of the
 *   kinds other than weakly and the suffix cover of the last pick.
 * - The listing kernels fill a mask_list whose masks C allocates; the
 *   caller releases them with free_masks.  Out of memory, a listing frees
 *   them itself and returns -1.
 */

#include <stdint.h>
#include <stdlib.h>

typedef uint64_t u64;

enum {
    KIND_DOMINATING,
    KIND_INDEPENDENT_DOMINATING,
    KIND_CONNECTED_DOMINATING,
    KIND_CONVEX_DOMINATING,
    KIND_WEAKLY_CONNECTED_DOMINATING,
    KIND_SUPER_DOMINATING,
    KIND_INDEPENDENT,
};

#define NOT_FOUND UINT64_MAX
#define LOWBIT(x) ((x) & (~(x) + 1))
#define BIT(v) ((u64)1 << (v))
#define VERTEX(bit) __builtin_ctzll(bit)
#define TOP(mask) (63 - __builtin_clzll(mask)) /* the highest vertex of a nonempty mask */
#define POPCOUNT(x) __builtin_popcountll(x)

static const u64 zeros[64]; /* a mask table that holds no vertex */

/* Masks handed to the caller, who releases them with free_masks. */
typedef struct {
    u64 *masks;
    int64_t count;
    int64_t hit_cap;
} mask_list;

/*
 * One scan.  Without an output list it stops at the first feasible set;
 * with one it lists every feasible set until the list holds more than cap.
 */
typedef struct {
    int kind, n, k;
    /* covering: the kinds of the cover cut (gamma, i, weakly); the room cut
     * takes the independent kinds, the lost-edge cut the weakly kind, and
     * the dead-server cut the super kind, whose masks once and twice
     * rec_scan carries as two arguments of its own, since 2n bits do not
     * fit one word. */
    int independent, convex, super_dominating, weakly, covering;
    u64 full;
    /* table: the caller's interval masks (convex) or bridge masks (weakly);
     * bridges: the table for the weakly kind, else zeros. */
    const u64 *open_m, *table, *bridges;
    /* closed_m[v]: the closed neighbourhood N[v], built from open_m.
     * The vertices of `fixed` (init_scan) are never picked.  suffix[v]: the
     * union of the closed neighbourhoods of the other vertices in v..n-1.
     * must[v]: what must be covered once v is picked -- every vertex for a
     * dominating kind, none for KIND_INDEPENDENT, and for a fixed v the bit
     * n, which no cover holds, so the coverage test turns v away.
     * widest[v]: the size of the largest of those closed neighbourhoods, and
     * at least 2: the D of the cover cut and of the Roman weight bound.
     * slack: for the weakly kind, m - n + 1, the most edges a spanning weak
     * subgraph may lose. */
    u64 closed_m[64], suffix[64], must[64];
    int widest[64], slack;
    /* Roman scans: the vertices rec_roman decides, in increasing order, then n. */
    int decide[64], ndecide;
    mask_list *out;
    int64_t capacity, cap;
    int out_of_memory;
    u64 found;
    /* Roman scans: the weight bound, and the 2-label count of the best
     * 2-set so far (its mask is `found`). */
    int64_t bound, twos;
} scan;

static void init_scan(scan *s, int kind, int n, const u64 *open_m, const u64 *table, u64 fixed,
                      mask_list *out, int64_t cap)
{
    s->kind = kind;
    s->n = n;
    s->k = 0;
    s->independent = kind == KIND_INDEPENDENT_DOMINATING || kind == KIND_INDEPENDENT;
    s->convex = kind == KIND_CONVEX_DOMINATING;
    s->super_dominating = kind == KIND_SUPER_DOMINATING;
    s->weakly = kind == KIND_WEAKLY_CONNECTED_DOMINATING;
    s->covering = kind == KIND_DOMINATING || kind == KIND_INDEPENDENT_DOMINATING || s->weakly;
    s->full = BIT(n) - 1;
    s->open_m = open_m;
    s->table = table;
    s->bridges = s->weakly ? table : zeros;
    s->suffix[n] = 0;
    s->widest[n] = 2;
    int degrees = 0;
    for (int v = n - 1; v >= 0; v--) {
        u64 closed = s->closed_m[v] = open_m[v] | BIT(v);
        int is_fixed = (fixed >> v) & 1, size = is_fixed ? 0 : POPCOUNT(closed);
        s->suffix[v] = s->suffix[v + 1] | (is_fixed ? 0 : closed);
        s->widest[v] = size > s->widest[v + 1] ? size : s->widest[v + 1];
        s->must[v] = is_fixed ? BIT(n) : kind == KIND_INDEPENDENT ? 0 : s->full;
        if (s->weakly)
            degrees += POPCOUNT(open_m[v]);
    }
    s->slack = degrees / 2 - n + 1;
    s->ndecide = 0;
    for (int v = 0; v < n; v++)
        if (!((fixed >> v) & 1))
            s->decide[s->ndecide++] = v;
    s->decide[s->ndecide] = n;
    s->out = out;
    s->capacity = 0;
    s->cap = cap;
    s->out_of_memory = 0;
    s->found = NOT_FOUND;
    s->bound = s->twos = 0;
    if (out) {
        out->masks = NULL;
        out->count = 0;
        out->hit_cap = 0;
    }
}

/* Ends a listing scan: 0 on success, -1 when out of memory (the list is then freed). */
static int finish(scan *s, int completed)
{
    if (s->out_of_memory) {
        free(s->out->masks);
        s->out->masks = NULL;
        s->out->count = 0;
        return -1;
    }
    s->out->hit_cap = !completed;
    return 0;
}

/* Records a feasible set; returns 0 to stop the scan. */
static int visit(scan *s, u64 mask)
{
    mask_list *out = s->out;
    if (!out) {
        s->found = mask;
        return 0;
    }
    if (out->count == s->capacity) {
        int64_t capacity = s->capacity ? 2 * s->capacity : 64;
        u64 *grown = realloc(out->masks, (size_t)capacity * sizeof(u64));
        if (!grown) {
            s->out_of_memory = 1;
            return 0;
        }
        out->masks = grown;
        s->capacity = capacity;
    }
    out->masks[out->count++] = mask;
    return out->count <= s->cap;
}

static int connected_mask(u64 sub, const u64 *open_m)
{
    u64 reach = LOWBIT(sub), frontier = reach;
    while (frontier) {
        u64 grow = 0;
        for (u64 f = frontier; f; f &= f - 1)
            grow |= open_m[VERTEX(f)];
        frontier = grow & sub & ~reach;
        reach |= frontier;
    }
    return reach == sub;
}

/* The caller guarantees N[sub] == full, so the weak subgraph spans every vertex. */
static int weakly_connected(u64 sub, u64 full, const u64 *open_m)
{
    u64 reach = LOWBIT(sub), frontier = reach;
    while (frontier) {
        u64 grow = 0;
        for (u64 f = frontier; f; f &= f - 1) {
            u64 bit = LOWBIT(f);
            grow |= (bit & sub) ? open_m[VERTEX(bit)] : open_m[VERTEX(bit)] & sub;
        }
        frontier = grow & ~reach;
        reach |= frontier;
    }
    return reach == full;
}

/* Whether every w in `out` has a server: a neighbour u outside `out` with
 * N(u) & out = {w}.  once and twice are the vertices with at least one and at
 * least two neighbours in `out`, so the servers are once & ~twice & ~out.
 * With out = full & ~sub, "sub is super dominating"; on a partial set, the
 * prune.  It runs from the highest out-vertex down, as _pykernels does. */
static int served(u64 out, u64 once, u64 twice, const u64 *open_m)
{
    u64 servers = once & ~(twice | out);
    for (u64 rest = out; rest;) {
        int w = TOP(rest);
        if (!(open_m[w] & servers))
            return 0;
        rest &= ~BIT(w);
    }
    return 1;
}

/* What no cut decides: whether the complete set `sub`, whose last pick is
 * first - 1, is connected, weakly connected or super dominating, as its kind
 * asks.  For super, once and twice count the vertices out below first; every
 * vertex above is out too. */
static int leaf_ok(const scan *s, u64 sub, int first, u64 once, u64 twice)
{
    switch (s->kind) {
    case KIND_CONNECTED_DOMINATING:
        return connected_mask(sub, s->open_m);
    case KIND_WEAKLY_CONNECTED_DOMINATING:
        return weakly_connected(sub, s->full, s->open_m);
    case KIND_SUPER_DOMINATING:
        for (int v = first; v < s->n; v++) {
            twice |= once & s->open_m[v];
            once |= s->open_m[v];
        }
        return served(s->full & ~sub, once, twice, s->open_m);
    default:
        return 1;
    }
}

/* Visits the feasible completions of `sub` to s->k vertices that hold
 * `need`, in lex order; returns 0 once the scan stopped.  The decided-out
 * hook counts the vertices below `first` and out of `sub`: `lost`, the edges
 * with both ends out (weakly), and once and twice, the vertices with at least
 * one and at least two neighbours out (super). */
static int rec_scan(scan *s, int first, int picked, u64 sub, u64 cover, u64 need, int lost, u64 once,
                    u64 twice)
{
    if (picked == s->k)
        return !leaf_ok(s, sub, first, once, twice) || visit(s, sub);
    /* No vertex joins after the last pick, so its coverage test reads no suffix. */
    const u64 *tail = picked + 1 < s->k ? s->suffix : zeros;
    int left = s->covering || s->independent ? s->k - picked - 1 : 0;
    for (int v = first; v <= s->n - (s->k - picked); v++) {
        /* Below v every unpicked vertex is out for good: a needed one, a
         * bridge between two of them (v - 1 and a lower one), more lost edges
         * than a spanning weak subgraph can spare, an out-vertex without a
         * server, or more picks next to two out-vertices than the
         * out-vertices leave spare rules out every larger v too. */
        u64 out = (BIT(v) - 1) & ~sub;
        if (v > first) {
            if (s->weakly) {
                lost += POPCOUNT(s->open_m[v - 1] & out);
            } else if (s->super_dominating) {
                /* A pick in twice serves no one, and each of the n - k
                 * out-vertices needs a server of its own among the k picks. */
                u64 gone = s->open_m[v - 1];
                twice |= once & gone;
                once |= gone;
                int dead = POPCOUNT(sub & twice);
                if (dead > 2 * s->k - s->n || !served(out, once, twice, s->open_m))
                    break;
                if (dead == 2 * s->k - s->n && (twice & BIT(v)))
                    continue;
            }
            if ((need & out) || (s->bridges[v - 1] & out) || (s->weakly && lost > s->slack))
                break;
        }
        if (s->independent && (s->open_m[v] & sub))
            continue;
        u64 new_cover = cover | s->closed_m[v];
        if (s->must[v] & ~(new_cover | tail[v + 1]))
            continue;
        if (left) {
            /* The picks still to come must cover what is left uncovered, at
             * most widest[v + 1] vertices each (for weakly one fewer in all,
             * as they must also meet N[sub + v]), and (for the independent
             * kinds) lie above v and outside N[sub + v]. */
            u64 uncovered = s->full & ~new_cover;
            if (s->covering && POPCOUNT(uncovered) > left * s->widest[v + 1] - s->weakly)
                continue;
            if (s->independent && POPCOUNT(uncovered >> (v + 1)) < left)
                continue;
        }
        u64 new_need = need;
        if (s->convex) {
            const u64 *row = s->table + (int64_t)v * s->n;
            for (u64 rest = sub; rest; rest &= rest - 1)
                new_need |= row[VERTEX(rest)];
            if (new_need & out)
                continue;
        }
        if (POPCOUNT(new_need | sub | BIT(v)) > s->k)
            continue;
        if (!rec_scan(s, v + 1, picked + 1, sub | BIT(v), new_cover, new_need, lost, once, twice))
            return 0;
    }
    return 1;
}

/* The smallest size a feasible set holding forced_in can have, by the bounds
 * of the _pykernels docstring: at least 1, and n + 1 when no size up to n
 * meets them. */
static int start(int kind, int n, const u64 *open_m, u64 forced_in)
{
    int smallest = POPCOUNT(forced_in) > 1 ? POPCOUNT(forced_in) : 1;
    if (kind == KIND_SUPER_DOMINATING && (n + 1) / 2 > smallest)
        smallest = (n + 1) / 2;
    if (kind == KIND_INDEPENDENT)
        return smallest;
    /* The k largest degrees must sum to at least n + slope * k + offset. */
    int slope = -1, offset = 0;
    if (kind == KIND_CONNECTED_DOMINATING || kind == KIND_CONVEX_DOMINATING)
        slope = 1, offset = -2;
    else if (kind == KIND_WEAKLY_CONNECTED_DOMINATING)
        slope = 0, offset = -1;
    int count[64] = {0}; /* count[d]: vertices of degree d */
    for (int v = 0; v < n; v++)
        count[POPCOUNT(open_m[v])]++;
    int k = 0, top = 0;
    for (int d = 63; d >= 0; d--)
        for (int i = 0; i < count[d]; i++) {
            k++;
            top += d;
            if (top >= n + slope * k + offset)
                return k > smallest ? k : smallest;
        }
    return n + 1 > smallest ? n + 1 : smallest;
}

/* Minimum feasible subset holding forced_in and missing forced_out, or
 * NOT_FOUND; its size is its popcount. */
u64 scan_min(int kind, int n, const u64 *open_m, const u64 *table, u64 forced_in, u64 forced_out)
{
    scan s;
    init_scan(&s, kind, n, open_m, table, forced_out, NULL, 0);
    for (s.k = start(kind, n, open_m, forced_in);
         s.k <= n && rec_scan(&s, 0, 0, 0, 0, forced_in, 0, 0, 0); s.k++)
        ;
    return s.found;
}

/* Maximum independent set: a single vertex is one, so the scan finds a set. */
u64 scan_max_independent(int n, const u64 *open_m)
{
    scan s;
    init_scan(&s, KIND_INDEPENDENT, n, open_m, NULL, 0, NULL, 0);
    for (s.k = n; rec_scan(&s, 0, 0, 0, 0, 0, 0, 0, 0); s.k--)
        ;
    return s.found;
}

/* All feasible subsets of size k that hold forced_in and miss forced_out, in
 * lex order; with cap 0 it stops at the first. */
int enumerate_size(int kind, int n, const u64 *open_m, const u64 *table, int k, int64_t cap,
                   u64 forced_in, u64 forced_out, mask_list *out)
{
    scan s;
    init_scan(&s, kind, n, open_m, table, forced_out, out, cap);
    s.k = k;
    return finish(&s, rec_scan(&s, 0, 0, 0, 0, forced_in, 0, 0, 0));
}

/* A complete 2-set: listed when its weight meets the bound, else kept when it
 * is no worse than the best so far (weight, then 2-labels).  A tie goes to the
 * later 2-set, the lex-smaller one, as rec_roman meets 2-sets of one size in
 * reverse lexicographic order. */
static int roman_leaf(scan *s, int64_t weight, int64_t twos, u64 mask)
{
    if (s->out)
        return weight != s->bound || visit(s, mask);
    if (weight < s->bound || (weight == s->bound && twos <= s->twos)) {
        s->bound = weight;
        s->twos = twos;
        s->found = mask;
    }
    return 1;
}

/* Decides vertex v = s->decide[i] out of, then into, the 2-set, pruning by
 * the weight bound; returns 0 once the scan stopped.  The lowest vertex is
 * decided first. */
static int rec_roman(scan *s, int i, int64_t twos, u64 cover, u64 mask)
{
    int v = s->decide[i];
    /* The weight with every uncovered vertex labelled 1: exact once every
     * vertex is decided (v = n). */
    u64 uncovered = s->full & ~cover;
    int64_t weight = 2 * twos + POPCOUNT(uncovered);
    if (i == s->ndecide)
        return weight > s->bound || roman_leaf(s, weight, twos, mask);
    /* Before that, the uncovered vertices a free vertex may still cover cost
     * at least 2 / widest[v] each as part of new 2-labels, and the lower
     * bound this gives can exceed the bound only where weight does. */
    if (weight > s->bound) {
        int64_t inside = POPCOUNT(uncovered & s->suffix[v]);
        if (weight - inside + (2 * inside + s->widest[v] - 1) / s->widest[v] > s->bound)
            return 1;
    }
    return rec_roman(s, i + 1, twos, cover, mask)
        && rec_roman(s, i + 1, twos + 1, cover | s->closed_m[v], mask | BIT(v));
}

/* Runs rec_roman over the 2-sets that hold forced_in and miss forced_out:
 * the forced vertices are decided before the scan starts. */
static int roman_scan(scan *s, u64 forced_in)
{
    u64 cover = 0;
    for (u64 rest = forced_in; rest; rest &= rest - 1)
        cover |= s->closed_m[VERTEX(rest)];
    return rec_roman(s, 0, POPCOUNT(forced_in), cover, forced_in);
}

/*
 * Minimum Roman weight over the 2-label sets B2 that hold forced_in and
 * miss forced_out, with the 1-labels forced onto the vertices outside
 * N[B2].  Writes the B2 mask to *b2 and returns the weight.
 */
int64_t roman_min(int n, const u64 *open_m, u64 forced_in, u64 forced_out, u64 *b2)
{
    scan s;
    init_scan(&s, KIND_DOMINATING, n, open_m, NULL, forced_in | forced_out, NULL, 0);
    s.bound = 3 * (int64_t)n + 1;
    s.found = 0;
    roman_scan(&s, forced_in);
    *b2 = s.found;
    return s.bound;
}

/* All B2 masks that hold forced_in, miss forced_out and whose forced
 * completion has the target weight, in scan order; rootdom.solvers sorts
 * them. */
int roman_enumerate(int n, const u64 *open_m, int64_t target, int64_t cap, u64 forced_in,
                    u64 forced_out, mask_list *out)
{
    scan s;
    init_scan(&s, KIND_DOMINATING, n, open_m, NULL, forced_in | forced_out, out, cap);
    s.bound = target;
    return finish(&s, roman_scan(&s, forced_in));
}

void free_masks(u64 *masks)
{
    free(masks);
}
