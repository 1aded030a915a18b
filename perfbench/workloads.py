"""The four seeded workloads of the rootdom benchmark.

Every workload owns a fixed pool of items, drawn from ``POOL_SEED`` by the
benchmark's own generators, so that each item's output has a digest
recorded in ``expected.json``.  At record time the pool is split into
``groups`` groups that cost the same to run; a run's ``--seed`` picks one
group and the order of its items.  The program only ever sees the
generated inputs.

A workload is a closed loop: one caller issues the next item only when the
previous one has returned.  Per item the benchmark keeps

* ``run(rd, prep)``     -- the timed call into rootdom's public API;
* ``summary(out)``      -- a cheap JSON-able digest input, taken every pass;
* ``verify(rd, prep, out)`` -- untimed checks on the first pass, returning
  a list of problems and an extra value folded into the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import deque

from tracing import THEOREMS

POOL_SEED = 20261017

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finaliser, used to spread seeds over groups and items."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def percentile(sorted_values, q: float, width: float = 0.02) -> float:
    """The ``q`` quantile of an ascending list, smoothed over nearby ranks.

    The mean of the values ranked within ``q +- width``: item times come in
    steps (one order more, one more scan level), and a bare order statistic
    jumps a whole step when two neighbouring items swap places.
    """
    n = len(sorted_values)
    lo = min(n - 1, math.floor((q - width) * n))
    hi = max(lo + 1, math.ceil((q + width) * n))
    window = sorted_values[lo:hi]
    return sum(window) / len(window)


def latency_percentiles(sorted_values) -> tuple[float, float]:
    """The reported p50 and p95; the median averages the wider middle band."""
    return percentile(sorted_values, 0.50, 0.05), percentile(sorted_values, 0.95)


def digest(obj) -> str:
    """Short sha256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- input generators (the benchmark's own, independent of rootdom.families) --


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on ``n >= 2`` vertices."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        u = degree.index(1)
        edges.append((u, v))
        degree[u] -= 1
        degree[v] -= 1
    a, b = (u for u in range(n) if degree[u] == 1)
    edges.append((a, b))
    return edges


def gnp_connected(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) rejection-sampled until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if _connected(n, edges):
            return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(n - 1, 0)]


def ladder_edges(n: int) -> list[tuple[int, int]]:
    """The ladder P_{n/2} x K_2 on even ``n``."""
    k = n // 2
    rails = path_edges(k) + [(k + u, k + v) for u, v in path_edges(k)]
    return rails + [(i, k + i) for i in range(k)]


def family_edges(family: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    if family == "tree":
        return prufer_tree(n, rng)
    if family == "path":
        return path_edges(n)
    if family == "cycle":
        return cycle_edges(n)
    if family == "ladder":
        return ladder_edges(n)
    if family.startswith("gnp"):
        return gnp_connected(n, float(family[3:]), rng)
    raise ValueError(f"unknown family {family!r}")


# -- workloads ---------------------------------------------------------------


class Workload:
    """Pool, timed call, digest input and untimed checks of one workload."""

    name = ""
    #: Groups the pool is split into; the seed picks one.
    groups = 12
    #: Items of each stratum in one group (one run's pass).
    per_group: dict[str, int] = {}

    def pool(self) -> list[dict]:
        """Every item of the pool, in a fixed order; ``id`` is the index."""
        items = []
        rng = random.Random(f"{POOL_SEED}/{self.name}")
        for stratum, count in self.per_group.items():
            for _ in range(count * self.groups):
                item = self.draw(stratum, rng)
                item["stratum"] = stratum
                item["id"] = len(items)
                items.append(item)
        return items

    def draw(self, stratum: str, rng: random.Random) -> dict:
        raise NotImplementedError

    def unit(self, item: dict) -> str:
        """What an item's time is summed under for critical_theorem_s: a
        theorem on the campaign, a parameter kind elsewhere."""
        return item["stratum"].split("/")[0]

    def pass_stats(self, items, latency) -> tuple[float, float]:
        """Wall time and critical unit time of one pass."""
        per_unit: dict[str, float] = {}
        for item, lat in zip(items, latency):
            unit = self.unit(item)
            per_unit[unit] = per_unit.get(unit, 0.0) + lat
        return sum(latency), max(per_unit.values())

    def prepare(self, rd, item: dict):
        raise NotImplementedError

    def run(self, rd, prep):
        raise NotImplementedError

    def summary(self, out):
        raise NotImplementedError

    def verify(self, rd, prep, out) -> tuple[list[str], object]:
        return [], None


def _witness_problems(rd, graph, kind: str, value: int, witness) -> list[str]:
    """Check a witness against the predicate of its parameter kind."""
    s = rd.solvers
    if kind == "roman":
        ok = witness.is_valid(graph) and witness.weight == value
        return [] if ok else ["invalid Roman assignment"]
    problems = []
    if len(witness) != value:
        problems.append(f"witness size {len(witness)} != value {value}")
    if not witness:  # every kind's value is positive, and connectivity of {} is undefined
        return problems + ["empty witness"]
    if kind == "alpha":
        if not s.is_independent(graph, witness):
            problems.append("witness not independent")
        return problems
    if not s.is_dominating(graph, witness):
        problems.append("witness not dominating")
    if kind == "i" and not s.is_independent(graph, witness):
        problems.append("witness not independent")
    if kind == "connected" and not rd.is_connected_subset(graph, witness):
        problems.append("witness not connected")
    if kind == "convex" and not (
        rd.is_connected_subset(graph, witness) and rd.is_convex_set(graph, witness)
    ):
        problems.append("witness not convex")
    if kind == "weakly":
        weak = rd.weakly_induced_subgraph(graph, witness)
        if weak.graph.n != graph.n or not rd.is_connected(weak.graph):
            problems.append("weak subgraph not connected and spanning")
    if kind == "super" and not s.is_super_dominating(graph, witness):
        problems.append("witness not super dominating")
    return problems


class Campaign(Workload):
    """Single-theorem campaigns: one item is one theorem swept over one seed."""

    name = "campaign"
    trials = 5
    # Every seed runs the same sweeps, in its own order: a few super scans of
    # 1.4-4.3 s each make any split of a larger pool into cost-equal groups
    # impossible, and a pass holds too few of them to average out.
    groups = 1
    per_group = {theorem: 8 for theorem in THEOREMS}

    def pool(self) -> list[dict]:
        # Campaign seeds 0..7 for every theorem, so that the 27 reports of one
        # seed join into one whole campaign.
        pairs = [(t, s) for t, count in self.per_group.items() for s in range(count * self.groups)]
        return [
            {"id": i, "stratum": theorem, "campaign_seed": seed}
            for i, (theorem, seed) in enumerate(pairs)
        ]

    def prepare(self, rd, item):
        return rd.CampaignConfig(
            theorems=[rd.TheoremId(item["stratum"])],
            seed=item["campaign_seed"],
            trials=self.trials,
        )

    def run(self, rd, prep):
        return rd.run_campaign(prep, jobs=1)

    def summary(self, out):
        text = json.dumps(out, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def verify(self, rd, prep, out):
        skips = sum(r["errors"] for r in out["results"])
        return ([f"{skips} budget skips"] if skips else []), None


class SolveBudget(Workload):
    """solve() near the 2^n scan budget; the Graph is rebuilt per item."""

    name = "solve-budget"
    #: Orders per kind, 18..22 unless listed: these scans grow fastest with n.
    orders = {"connected": (18, 21), "convex": (18, 19), "super": (18, 19)}
    per_group = {
        f"{kind}/{family}": 7
        for kind in ("gamma", "alpha", "i", "roman", "connected", "convex", "weakly", "super")
        for family in ("gnp0.15", "gnp0.25", "gnp0.5", "tree")
    }
    # Fewer of the slowest scans, so that a pass fits several times in a run.
    per_group.update({"convex/gnp0.15": 5, "convex/gnp0.25": 4, "super/gnp0.25": 4, "super/gnp0.5": 1})

    def draw(self, stratum, rng):
        kind, family = stratum.split("/")
        lo, hi = self.orders.get(kind, (18, 22))
        n = rng.randint(lo, hi)
        return {"kind": kind, "n": n, "edges": family_edges(family, n, rng)}

    def prepare(self, rd, item):
        return (item["n"], item["edges"], rd.ParameterKind(item["kind"]))

    def run(self, rd, prep):
        n, edges, kind = prep
        return rd.solve(rd.Graph(n, edges), kind)

    def summary(self, out):
        w = out.witness
        witness = [sorted(w.b1), sorted(w.b2)] if out.kind.value == "roman" else sorted(w)
        return [out.kind.value, out.value, witness]

    def verify(self, rd, prep, out):
        n, edges, kind = prep
        return _witness_problems(rd, rd.Graph(n, edges), kind.value, out.value, out.witness), None


class Enumerate(Workload):
    """classify_root(), which enumerates every optimal witness."""

    name = "enumerate"
    orders = {"connected": (18, 19)}
    per_group = {
        f"{kind}/{family}": 5 if kind == "connected" else 7
        for kind in ("gamma", "alpha", "i", "roman", "weakly", "connected")
        for family in ("path", "cycle", "tree", "ladder", "gnp0.15")
    }

    def draw(self, stratum, rng):
        kind, family = stratum.split("/")
        lo, hi = self.orders.get(kind, (18, 22))
        n = rng.randint(lo, hi)
        if family == "ladder":
            n -= n % 2
        return {
            "kind": kind,
            "n": n,
            "root": rng.randrange(n),
            "edges": family_edges(family, n, rng),
        }

    def prepare(self, rd, item):
        return (item["n"], item["edges"], item["root"], rd.ParameterKind(item["kind"]))

    def run(self, rd, prep):
        n, edges, root, kind = prep
        return rd.classify_root(rd.RootedGraph(rd.Graph(n, edges), root), kind)

    def summary(self, out):
        values = None if out.roman_values is None else sorted(out.roman_values)
        return [out.kind.value, out.membership.value, values]

    def verify(self, rd, prep, out):
        # Re-enumerate untimed: the witness count joins the digest, and the
        # classification must follow from the witnesses.
        n, edges, root, kind = prep
        graph = rd.Graph(n, edges)
        witnesses = rd.enumerate_optimal(graph, kind)
        if kind.value == "roman":
            labels = sorted({w.label(root) for w in witnesses})
            problems = [] if labels == sorted(out.roman_values) else ["root labels differ"]
        else:
            flags = {root in w for w in witnesses}
            member = {frozenset({True}): "IN_ALL", frozenset({False}): "IN_NONE"}
            want = member.get(frozenset(flags), "IN_SOME")
            problems = [] if want == out.membership.value else ["membership differs"]
        return problems, len(witnesses)


class TreeProducts(Workload):
    """rooted_product() of two random trees, then solve() past the budget."""

    name = "tree-products"
    #: Product orders and their items per kind in one group.  The time per
    #: item grows with the square of the order, so few items are large; the
    #: median falls inside the order-200 band, not on a step between bands.
    per_group = {
        f"{kind}/{order}": count
        for kind in ("i", "connected", "convex")
        for order, count in ((100, 24), (200, 26), (400, 12), (800, 5), (1600, 1))
    }

    def draw(self, stratum, rng):
        kind, order = stratum.split("/")
        order = int(order)
        n1 = rng.choice([d for d in range(2, order // 2 + 1) if order % d == 0])
        n2 = order // n1
        return {
            "kind": kind,
            "t1": prufer_tree(n1, rng),
            "n1": n1,
            "t2": prufer_tree(n2, rng),
            "n2": n2,
            "root": rng.randrange(n2),
        }

    def prepare(self, rd, item):
        return (
            rd.Graph(item["n1"], item["t1"]),
            rd.Graph(item["n2"], item["t2"]),
            item["root"],
            rd.ParameterKind(item["kind"]),
        )

    def run(self, rd, prep):
        t1, t2, root, kind = prep
        product = rd.rooted_product(t1, rd.RootedGraph(t2, root))
        return product.product, rd.solve(product.product, kind)

    def summary(self, out):
        # Tree-DP witnesses carry no lexicographic promise: values only.
        return [out[1].kind.value, out[1].value]

    def verify(self, rd, prep, out):
        graph, result = out
        # On a tree geodesics are unique, so convex sets are the connected ones;
        # checking connectivity avoids the cubic convexity test at this order.
        kind = "connected" if result.kind.value == "convex" else result.kind.value
        return _witness_problems(rd, graph, kind, result.value, result.witness), None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Campaign(), SolveBudget(), Enumerate(), TreeProducts())
}
