#!/usr/bin/env python3
"""Record the output digests and balanced groups of the benchmark's pools.

    python3 perfbench/record.py [--workload NAME ...]

Runs every pool item once, verifies its output, and stores in
``expected.json`` each output's digest and time (in reference-speed
seconds, as ``run.py`` reports times) and the split of the pool into the
workload's groups that cost the same to run, so that the runs of different
seeds do comparable work.  Re-record only in a change that touches nothing
but the benchmark; see README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

from run import EXPECTED, import_rootdom, run_pass
from workloads import POOL_SEED, WORKLOADS, digest, latency_percentiles


def spread(stats) -> float:
    """Sum over the metrics of the groups' relative deviations from the median."""
    total = 0.0
    for values in zip(*stats):
        middle = statistics.median(values)
        total += sum(abs(v - middle) for v in values) / middle
    return total


def group_stats(workload, pool, costs, group) -> tuple[float, ...]:
    latency = [costs[i] for i in group]
    wall, critical = workload.pass_stats([pool[i] for i in group], latency)
    return (wall, critical) + latency_percentiles(sorted(latency))


def split(workload, pool, costs, swaps: int = 40_000) -> list[list[int]]:
    """Split the pool into groups that cost the same to run.

    Every unit (theorem or kind) is dealt out boustrophedon by descending
    cost, so each group holds the same number of items of each unit.  Then
    random swaps of two items of one unit between two groups are kept
    whenever they narrow the groups' spread in wall, critical, p50 and p95
    cost, the four timings a run reports.
    """
    count = workload.groups
    groups: list[list[int]] = [[] for _ in range(count)]
    units = {}
    for item in pool:
        units.setdefault(workload.unit(item), []).append(item["id"])
    for ids in units.values():
        for rank, item in enumerate(sorted(ids, key=lambda i: (-costs[i], i))):
            lap, pos = divmod(rank, count)
            groups[pos if lap % 2 == 0 else count - 1 - pos].append(item)
    stats = [group_stats(workload, pool, costs, g) for g in groups]
    best = spread(stats)
    rng = random.Random(POOL_SEED)
    for _ in range(swaps if count > 1 else 0):
        x, y = rng.sample(range(count), 2)
        a = rng.randrange(len(groups[x]))
        unit = workload.unit(pool[groups[x][a]])
        b = rng.choice([k for k, i in enumerate(groups[y]) if workload.unit(pool[i]) == unit])
        groups[x][a], groups[y][b] = groups[y][b], groups[x][a]
        old = stats[x], stats[y]
        stats[x] = group_stats(workload, pool, costs, groups[x])
        stats[y] = group_stats(workload, pool, costs, groups[y])
        score = spread(stats)
        if score < best:
            best = score
        else:
            groups[x][a], groups[y][b] = groups[y][b], groups[x][a]
            stats[x], stats[y] = old
    return groups


def record(workload, rd) -> dict:
    pool = workload.pool()
    preps = [workload.prepare(rd, item) for item in pool]
    timed = run_pass(workload, rd, pool, preps, None, [])
    for item, problems in zip(pool, timed.problems):
        if problems:
            raise SystemExit(f"{workload.name} item {item['id']}: {'; '.join(problems)}")
    # Costs in reference-speed seconds, as the runs report their times.
    costs = timed.scaled()
    groups = split(workload, pool, costs)
    walls = sorted(group_stats(workload, pool, costs, g)[0] for g in groups)
    print(f"{workload.name}: {len(pool)} items, {sum(costs):.1f} s, "
          f"group {walls[0]:.2f}..{walls[-1]:.2f} s", file=sys.stderr)
    return {
        "pool": digest(pool),
        "groups": groups,
        "digests": timed.digests,
        "cost_ms": [round(1e3 * c, 2) for c in costs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        data = {"workloads": {}}
    rd = import_rootdom()
    for name in args.workload or sorted(WORKLOADS):
        data["workloads"][name] = record(WORKLOADS[name], rd)
    data["backend"] = rd.kernels.BACKEND
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
