"""Span tracing of rootdom's public functions, from outside the program.

``Tracer.install`` wraps every binding site of the traced functions: a
module attribute, a name bound by ``from ... import`` in another rootdom
module, or a method on ``Graph``.  Each call made while an item is open
records a span ``[name, start, end, parent, item, info]`` in memory; the
spans are written out once, at the end of the run.

A span's self time is its duration minus the part of it covered by its
child spans; the self times of all spans add up to the items' wall time.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ITEM, INFO = range(6)

#: Kernel kind constants -> the parameter names used in metric names.
KERNEL_KINDS = {
    "KIND_DOMINATING": "gamma",
    "KIND_INDEPENDENT_DOMINATING": "i",
    "KIND_CONNECTED_DOMINATING": "connected",
    "KIND_CONVEX_DOMINATING": "convex",
    "KIND_WEAKLY_CONNECTED_DOMINATING": "weakly",
    "KIND_SUPER_DOMINATING": "super",
    "KIND_INDEPENDENT": "alpha",
}

#: (module, function) pairs traced as module-level functions.
FUNCTIONS = (
    ("kernels", "scan_min"),
    ("kernels", "scan_max_independent"),
    ("kernels", "roman_min"),
    ("kernels", "enumerate_size"),
    ("kernels", "roman_enumerate"),
    ("graph", "is_connected"),
    ("graph", "is_tree"),
    ("product", "rooted_product"),
    ("tree_dp", "tree_independent_domination"),
    ("tree_dp", "tree_connected_domination"),
    ("solvers", "solve"),
    ("solvers", "enumerate_optimal"),
    ("solvers", "classify_root"),
    ("harness", "check"),
    ("harness", "run_campaign"),
)

#: Graph methods traced on the class, under ``graph.<name>``.
GRAPH_METHODS = (("__init__", "init"), ("distances", "distances"), ("interval_masks", "interval_masks"))

KINDED = {"scan_min", "enumerate_size"}

THEOREMS = (
    "D1 D2 R1 R2 R3 R4 R5 R6 I1 I2 I3 I4 I5 I6 I7 C1 C2 C3 C4 X1 X2 W1 W2 W3 S1 S2 S3"
).split()


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


class Tracer:
    """In-memory span recorder with reversible wrapping of binding sites."""

    def __init__(self, rd):
        self.rd = rd
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item = -1
        self._undo: list[tuple[object, str, object]] = []
        codes = vars(rd.kernels)
        self._kind = {codes[const]: name for const, name in KERNEL_KINDS.items()}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self._item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def item(self, index: int, name: str):
        """Open the root span of one item; wrapped calls record only inside."""
        self._item = index
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self._item = -1

    def _wrap(self, fn, name: str, kinded: bool):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._item < 0:
                return fn(*args, **kwargs)
            label = f"{name}.{tracer._kind[args[0]]}" if kinded else name
            span = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[INFO] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if name == "solvers.enumerate_optimal":
                span[INFO] = len(result)
            elif name == "harness.check":
                span[INFO] = bool(result.applicable)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        rd = self.rd
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == rd.__name__ or key.startswith(rd.__name__ + "."))
        ]
        for module_name, attr in FUNCTIONS:
            original = getattr(getattr(rd, module_name), attr)
            wrapper = self._wrap(original, f"{module_name}.{attr}", attr in KINDED)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        graph_cls = rd.graph.Graph
        for method, label in GRAPH_METHODS:
            self._set(graph_cls, method, self._wrap(vars(graph_cls)[method], f"graph.{label}", False))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = []
    kinds = ("gamma", "i", "connected", "convex", "weakly", "super")
    timed = (
        [f"kernels.scan_min.{k}" for k in kinds]
        + ["kernels.scan_max_independent", "kernels.roman_min"]
        + [f"kernels.enumerate_size.{k}" for k in ("alpha",) + kinds]
        + ["kernels.roman_enumerate"]
        + [f"graph.{label}" for _, label in GRAPH_METHODS]
        + ["graph.is_connected", "graph.is_tree", "product.rooted_product"]
        + ["tree_dp.tree_independent_domination", "tree_dp.tree_connected_domination"]
        + ["solvers.solve", "solvers.enumerate_optimal", "solvers.classify_root"]
        + ["harness.check", "harness.run_campaign"]
    )
    for name in timed:
        names.append((f"{name}.calls", "count", "lower"))
        names.append((f"{name}.self_s", "s", "lower"))
    names += [
        ("graph.distances.for_connectivity_ratio", "ratio", "lower"),
        ("solvers.solve.method.scan", "count", "lower"),
        ("solvers.solve.method.tree_dp", "count", "higher"),
        ("solvers.enumerate_optimal.witnesses", "count", "lower"),
        ("harness.applicable_ratio", "ratio", "higher"),
        ("harness.budget_skips", "count", "lower"),
        ("harness.solves_per_verdict", "ratio", "lower"),
    ]
    names += [(f"harness.theorem.{t}.s", "s", "lower") for t in THEOREMS]
    names += [
        ("driver.self_s", "s", "lower"),
        ("traced_wall_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return names


def layer_metrics(spans, theorem_of_item: dict[int, str] | None = None) -> dict[str, float]:
    """Calls and self time per traced function, plus the derived ratios.

    Root spans (``parent == -1``) are the benchmark's items: their self time
    is ``driver.self_s`` and their summed duration ``traced_wall_s``.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    driver = wall = 0.0
    has_kernel_child: set[int] = set()
    has_dp_child: set[int] = set()
    for span, own in zip(spans, selfs):
        name = span[NAME]
        if span[PARENT] < 0:
            driver += own
            wall += span[END] - span[START]
            continue
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        if name.startswith("kernels."):
            has_kernel_child.add(span[PARENT])
        elif name.startswith("tree_dp."):
            has_dp_child.add(span[PARENT])
    out["driver.self_s"] = driver
    out["traced_wall_s"] = wall

    distances = [s for s in spans if s[NAME] == "graph.distances"]
    for_conn = sum(1 for s in distances if spans[s[PARENT]][NAME] == "graph.is_connected")
    out["graph.distances.for_connectivity_ratio"] = for_conn / len(distances) if distances else 0.0

    solves = [i for i, s in enumerate(spans) if s[NAME] == "solvers.solve"]
    out["solvers.solve.method.scan"] = sum(1 for i in solves if i in has_kernel_child)
    out["solvers.solve.method.tree_dp"] = sum(1 for i in solves if i in has_dp_child)
    out["solvers.enumerate_optimal.witnesses"] = sum(
        s[INFO] for s in spans if s[NAME] == "solvers.enumerate_optimal" and isinstance(s[INFO], int)
    )

    checks = [s for s in spans if s[NAME] == "harness.check"]
    verdicts = [s for s in checks if isinstance(s[INFO], bool)]
    out["harness.budget_skips"] = sum(1 for s in checks if s[INFO] == "BudgetExceededError")
    out["harness.applicable_ratio"] = (
        sum(1 for s in verdicts if s[INFO]) / len(verdicts) if verdicts else 0.0
    )
    out["harness.solves_per_verdict"] = len(solves) / len(verdicts) if verdicts else 0.0
    for span in spans:
        if span[PARENT] < 0 and theorem_of_item and span[ITEM] in theorem_of_item:
            key = f"harness.theorem.{theorem_of_item[span[ITEM]]}.s"
            out[key] = out.get(key, 0.0) + span[END] - span[START]
    return out
