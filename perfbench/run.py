#!/usr/bin/env python3
"""rootdom benchmark: one seeded workload in one single-threaded process.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; rootdom is imported from ``src/`` there,
with whichever kernel backend ``rootdom.kernels`` selects.  The run picks
the seed's group of items (see ``workloads.py``), times ``--seconds`` worth
of passes over it, checks every output against ``expected.json``, and
prints the metrics; the last line of output is one JSON object.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced, then runs each item untraced and traced back to back, reports the per-layer metrics, and writes the
spans to ``.perfbench/`` in the checkout.  The exit code is 0 only when
every output matched; it is 2 when rootdom or the recorded digests are
missing.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
#: Nominal duration of one ``reference()`` call; see ``Pass.scaled``.
REF_SECONDS = 0.005
#: Seconds between two reference calls within a pass.
REF_EVERY = 0.1

from tracing import Tracer, layer_metrics, per_layer_names  # noqa: E402
from workloads import WORKLOADS, digest, latency_percentiles, mix64  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2)."""


def import_rootdom():
    """Import rootdom afresh from this checkout's ``src/``."""
    if not (SRC / "rootdom" / "__init__.py").is_file():
        raise BenchError(f"no rootdom sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "rootdom" or k.startswith("rootdom.")]:
        del sys.modules[key]
    rd = importlib.import_module("rootdom")
    if Path(rd.__file__).resolve().parent != (SRC / "rootdom").resolve():
        raise BenchError(f"imported rootdom from {rd.__file__}, not from {SRC}")
    return rd


def load_expected(path: Path, workload, pool) -> dict:
    """The recorded groups and digests of ``workload``'s pool."""
    try:
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)["workloads"][workload.name]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no recorded digests for {workload.name} in {path}: {exc!r}") from None
    if entry["pool"] != digest(pool):
        raise BenchError(f"the {workload.name} pool changed since it was recorded; re-record it")
    return entry


def select(pool, groups, seed: int) -> list[dict]:
    """The seed's group of items, in a seed-shuffled order."""
    items = [pool[i] for i in groups[mix64(seed) % len(groups)]]
    random.Random(seed).shuffle(items)
    return items


def reference() -> float:
    """Time a fixed piece of pure-Python work: bit counting into a dict."""
    start = perf_counter()
    table = {}
    for i in range(5000):
        m = (i * 2654435761) & 0xFFFFF
        count = 0
        while m:
            m &= m - 1
            count += 1
        table[i & 255] = count
    return perf_counter() - start


class Pass:
    """Latencies and digests of one pass over the run's items."""

    def __init__(self):
        self.start: list[float] = []
        self.latency: list[float] = []
        self.digests: list[str | None] = []
        self.problems: list[list[str]] = []
        self.ref: list[tuple[float, float]] = []

    def wall(self) -> float:
        return sum(self.latency)

    def scaled(self) -> list[float]:
        """Item latencies in reference-speed seconds.

        The shared host's speed drifts by up to half between runs and
        within one, and slows rootdom and ``reference()`` alike.  Each
        latency is scaled as if the median of the five reference calls
        nearest to the item, timed between items, had taken ``REF_SECONDS``.
        """
        times = [t for t, _ in self.ref]
        out = []
        for start, latency in zip(self.start, self.latency):
            k = bisect.bisect(times, start)
            near = statistics.median(d for _, d in self.ref[max(0, k - 3):k + 2])
            out.append(latency * REF_SECONDS / near)
        return out


def run_item(result: Pass, workload, rd, pos, item, prep, expected, extras, scope=None) -> None:
    """Time one item into ``result``; verify its output the first time it runs.

    An item fails when its call or its checks raise, when its output fails
    the checks, or when its digest differs from ``expected`` (compared only
    when ``expected`` is given).
    """
    first = pos == len(extras)
    if first:
        extras.append(None)
    problems: list[str] = []
    item_digest = None
    start = perf_counter()
    result.start.append(start)
    try:
        try:
            with scope or nullcontext():
                out = workload.run(rd, prep)
        finally:
            result.latency.append(perf_counter() - start)
        if first:
            problems, extras[pos] = workload.verify(rd, prep, out)
        item_digest = digest([workload.summary(out), extras[pos]])
    except Exception as exc:  # a malformed output can break the checks too
        problems.append(f"{type(exc).__name__}: {exc}")
    if expected is not None and item_digest is not None and item_digest != expected[item["id"]]:
        problems.append(f"digest {item_digest} != recorded {expected[item['id']]}")
    result.digests.append(item_digest)
    result.problems.append(problems)


def run_pass(workload, rd, items, preps, expected, extras) -> Pass:
    """Time every item, with reference calls between items for ``Pass.scaled``."""
    result = Pass()
    last_ref = float("-inf")
    for pos, (item, prep) in enumerate(zip(items, preps)):
        if perf_counter() - last_ref >= REF_EVERY:
            result.ref.append((perf_counter(), reference()))
            last_ref = perf_counter()
        run_item(result, workload, rd, pos, item, prep, expected, extras)
    return result


def run_traced(workload, rd, items, preps, expected, extras, tracer) -> tuple[Pass, Pass]:
    """Run each item untraced and traced back to back, in alternating order.

    The host's speed drifts over seconds, so only the difference of
    neighbouring runs resolves the tracing overhead.  The tracer is
    installed, untimed, around each traced run only.
    """
    untraced, traced = Pass(), Pass()
    for pos, (item, prep) in enumerate(zip(items, preps)):
        for on in ((False, True) if pos % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            try:
                scope = tracer.item(pos, workload.unit(item)) if on else None
                run_item(traced if on else untraced, workload, rd, pos, item, prep,
                         expected, extras, scope)
            finally:
                tracer.uninstall()
    return untraced, traced


def end_to_end(workload, items, passes, setup_s: float) -> dict[str, tuple[float, str]]:
    scaled = [p.scaled() for p in passes]
    stats = [workload.pass_stats(items, latency) for latency in scaled]
    p50, p95 = latency_percentiles(sorted(lat for latency in scaled for lat in latency))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(wall for wall, _ in stats), "s"),
        "critical_theorem_s": (statistics.median(crit for _, crit in stats), "s"),
        "item_p50_ms": (1e3 * p50, "ms"),
        "item_p95_ms": (1e3 * p95, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    try:
        pool = workload.pool()
        recorded = load_expected(EXPECTED, workload, pool)
        items = select(pool, recorded["groups"], args.seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            ref = reference()
            start = perf_counter()
            rd = import_rootdom()
            preps = [workload.prepare(rd, item) for item in items]
            setups.append((perf_counter() - start) * REF_SECONDS / ref)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setups)
    expected = recorded["digests"]
    # Keep the benchmark's own objects out of the collector's way while timing.
    del pool, recorded
    gc.collect()
    gc.freeze()

    extras: list = []
    passes = []
    layers: dict[str, float] = {}
    begin = perf_counter()
    passes.append(run_pass(workload, rd, items, preps, expected, extras))
    if args.trace:
        tracer = Tracer(rd)
        untraced, traced = run_traced(workload, rd, items, preps, expected, extras, tracer)
        for pos, (a, b) in enumerate(zip(passes[0].digests, traced.digests)):
            if a != b:
                traced.problems[pos].append("traced output differs from untraced output")
        theorem_of_item = (
            {pos: item["stratum"] for pos, item in enumerate(items)}
            if workload.name == "campaign" else None
        )
        layers = layer_metrics(tracer.spans, theorem_of_item)
        # Raw seconds, as traced_wall_s and the self times.
        layers["trace_overhead_s"] = traced.wall() - untraced.wall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
        passes += [untraced, traced]
    else:
        # The first pass also verifies outputs; later passes only time them.
        while perf_counter() - begin + passes[-1].wall() <= args.seconds:
            passes.append(run_pass(workload, rd, items, preps, expected, extras))

    attempted = sum(len(p.latency) for p in passes)
    failures = [
        (items[pos]["id"], probs) for p in passes for pos, probs in enumerate(p.problems) if probs
    ]
    for item_id, probs in failures[:10]:
        print(f"FAILED item {item_id}: {'; '.join(probs)}")

    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_names()}
        metrics = {name: (layers.get(name, 0), unit) for name, unit in units.items()}
    else:
        metrics = end_to_end(workload, items, passes, setup_s)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "backend": rd.kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": nproc(),
        "items": len(items),
        "passes": len(passes),
        "raw_wall_s": [p.wall() for p in passes],
        "ref_s": [statistics.median(d for _, d in p.ref) if p.ref else None for p in passes],
        "failed_frac": len(failures) / attempted,
    }
    print(f"{'metric':<48} {'value':>14}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g}  {unit}")
    print(f"{'failed_frac':<48} {meta['failed_frac']:>14.6g}  ratio")
    if args.trace:
        wall = layers["traced_wall_s"]
        per_layer: dict[str, float] = {}
        for name, value in layers.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                per_layer[layer] = per_layer.get(layer, 0.0) + value
        for layer, value in sorted(per_layer.items(), key=lambda kv: -kv[1]):
            print(f"layer {layer:<10} self {value:12.6f} s  {100 * value / wall:6.2f} % of traced wall")
        print(f"layers sum {sum(per_layer.values()):.6f} s, traced wall {wall:.6f} s")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
