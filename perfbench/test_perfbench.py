"""Tests of the benchmark itself: tiny runs, span arithmetic, digest gate."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import run_pass
from tracing import END, START, Tracer, layer_metrics, per_layer_names, self_times
from workloads import WORKLOADS, Workload, _witness_problems, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rd():
    sys.path.insert(0, str(ROOT / "src"))
    import rootdom

    return rootdom


def checkout(tmp_path: Path, src: bool = True) -> Path:
    """A copy of the benchmark as it is run, with the sources linked in."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if src:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def tiny_checkout(tmp_path: Path, workload: str, size: int, forge: bool = False) -> Path:
    """A checkout whose recorded groups hold one group of ``workload``'s
    ``size`` cheapest items, so that every seed runs those; ``forge`` zeroes
    the recorded digests."""
    root = checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    data = json.loads(path.read_text())
    entry = data["workloads"][workload]
    cost = entry["cost_ms"]
    entry["groups"] = [sorted(range(len(cost)), key=cost.__getitem__)[:size]]
    if forge:
        entry["digests"] = ["0" * 16] * len(entry["digests"])
    path.write_text(json.dumps(data))
    return root


def bench(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_of_every_workload(workload, tmp_path):
    root = tiny_checkout(tmp_path, workload, 3)
    code, lines = bench(root, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                        "--trace", "0")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_tiny_traced_run_reports_every_layer(tmp_path):
    root = tiny_checkout(tmp_path, "campaign", 2)
    code, lines = bench(root, "--workload", "campaign", "--seed", "7", "--seconds", "0.1",
                        "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _, _ in per_layer_names()]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.check.calls"] > 0
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert parts == pytest.approx(metrics["traced_wall_s"], rel=1e-6)
    assert (root / ".perfbench" / "spans-campaign-seed7.jsonl").is_file()


def test_forced_digest_mismatch_fails(tmp_path):
    root = tiny_checkout(tmp_path, "tree-products", 2, forge=True)
    code, lines = bench(root, "--workload", "tree-products", "--seed", "7", "--seconds", "0.1",
                        "--trace", "0")
    result = json.loads(lines[-1])
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert meta["failed_frac"] > 0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    root = checkout(tmp_path, src=False)
    code, lines = bench(root, "--workload", "campaign", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
    assert code != 0 and lines == []


def test_empty_witness_is_a_problem_not_an_error(rd):
    graph = rd.Graph(4, [(0, 1), (1, 2), (2, 3)])
    for kind in ("gamma", "alpha", "i", "connected", "convex", "weakly", "super"):
        assert "empty witness" in _witness_problems(rd, graph, kind, 2, frozenset())


def test_an_item_whose_checks_raise_fails_and_the_pass_goes_on():
    class Fragile(Workload):
        def run(self, rd, prep):
            return prep

        def verify(self, rd, prep, out):
            if out == "bad verify":
                raise ValueError("undefined")
            return [], None

        def summary(self, out):
            if out == "bad summary":
                raise TypeError("malformed")
            return out

    items = [{"id": i, "stratum": "x"} for i in range(3)]
    expected = [digest(["ok", None])] * 3
    done = run_pass(Fragile(), None, items, ["ok", "bad verify", "bad summary"], expected, [])
    assert len(done.latency) == 3
    assert done.problems == [[], ["ValueError: undefined"], ["TypeError: malformed"]]
    assert done.digests[1:] == [None, None]


def test_self_time_of_nested_and_sibling_children():
    # root [0, 10] holds A [1, 4] (with A1 [2, 3] nested) and B [5, 9]
    # (with siblings B1 [5, 6] and B2 [7, 9]); C [11, 12] is a second root.
    spans = [
        ["driver", 0.0, 10.0, -1, 0, None],
        ["A", 1.0, 4.0, 0, 0, None],
        ["A1", 2.0, 3.0, 1, 0, None],
        ["B", 5.0, 9.0, 0, 0, None],
        ["B1", 5.0, 6.0, 3, 0, None],
        ["B2", 7.0, 9.0, 3, 0, None],
        ["driver", 11.0, 12.0, -1, 1, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0]
    metrics = layer_metrics(spans)
    assert metrics["driver.self_s"] == 4.0 and metrics["traced_wall_s"] == 11.0
    assert metrics["A.self_s"] == 2.0 and metrics["B.calls"] == 1
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert parts == metrics["traced_wall_s"]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0, None], ["a", 1.0, 5.0, 0, 0, None], ["b", 3.0, 7.0, 0, 0, None]]
    assert self_times(spans)[0] == 4.0


def test_tracer_wraps_every_binding_site_and_restores_them(rd):
    originals = (rd.harness.solve, rd.solvers.is_connected, rd.tree_dp.is_tree, rd.Graph.__init__)
    tracer = Tracer(rd)
    tracer.install()
    try:
        assert rd.harness.solve is rd.solvers.solve is rd.solve
        assert rd.harness.solve.__wrapped__ is originals[0]
        assert rd.solvers.is_connected.__wrapped__ is originals[1]
        assert rd.tree_dp.is_tree is rd.harness.is_tree is rd.graph.is_tree
        with tracer.item(0, "driver"):
            rd.solve(rd.Graph(4, [(0, 1), (1, 2), (2, 3)]), rd.ParameterKind.CONNECTED)
    finally:
        tracer.uninstall()
    assert (rd.harness.solve, rd.solvers.is_connected, rd.tree_dp.is_tree, rd.Graph.__init__) == originals
    names = [span[0] for span in tracer.spans]
    assert names[:3] == ["driver", "graph.init", "solvers.solve"]
    assert "kernels.scan_min.connected" in names and "graph.is_connected" in names
    assert all(span[END] >= span[START] for span in tracer.spans)
