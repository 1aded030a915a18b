"""The table of i(G[U]) over every vertex mask U, and the deletion theorem I3
that reads it."""

import json

import pytest

from helpers import labelled_graphs, random_gnp
from rootdom import naive
from rootdom.cli import main
from rootdom.families import path_graph
from rootdom.graph import delete_vertices
from rootdom.harness import CampaignConfig, TheoremId, check, run_theorem
from rootdom.solvers import (
    BudgetExceededError,
    ParameterKind,
    induced_independent_domination,
    value,
)


def _removed(n: int, mask: int) -> set[int]:
    return {v for v in range(n) if not mask >> v & 1}


@pytest.mark.parametrize("n", range(1, 6))
def test_table_equals_the_value_of_every_deletion(n):
    for g in labelled_graphs(n):
        table = induced_independent_domination(g)
        assert len(table) == 1 << n and table[0] == 0
        for mask in range(1, 1 << n):
            deleted = delete_vertices(g, _removed(n, mask)).graph
            assert table[mask] == value(deleted, ParameterKind.INDEPENDENT_DOMINATION), (g.edges(), mask)


@pytest.mark.parametrize("n", (6, 7, 8))
def test_table_equals_the_naive_referee(n):
    for seed in range(34):
        g = random_gnp(n, (0.2, 0.4, 0.6, 0.8)[seed % 4], seed)
        table = induced_independent_domination(g)
        for mask in range(1, 1 << n):
            deleted = delete_vertices(g, _removed(n, mask)).graph
            assert table[mask] == naive.naive_value(deleted, "i"), (g.edges(), mask)


class TestBudget:
    """Past the scan budget the table raises, on trees too, though the tree
    DP would answer i(G) itself."""

    def test_a_tree_past_the_budget_raises(self, monkeypatch):
        monkeypatch.setenv("ROOTDOM_BUDGET", "5")
        path = path_graph(6)
        assert value(path, ParameterKind.INDEPENDENT_DOMINATION) == 2
        with pytest.raises(BudgetExceededError, match=r"order 6 exceeds the subset-scan budget"):
            induced_independent_domination(path)
        with pytest.raises(BudgetExceededError):
            check(TheoremId.I3, path)

    def test_trials_past_the_budget_are_errors(self, monkeypatch):
        config = CampaignConfig(theorems=[TheoremId.I3], trials=20, seed=3, deletion_n=6)
        full = run_theorem(TheoremId.I3, config)
        assert full["errors"] == 0 and full["pass"] == 20
        monkeypatch.setenv("ROOTDOM_BUDGET", "5")
        result = run_theorem(TheoremId.I3, config)
        # The 8 trials of order 6 are skipped, trees among them; the 12 of
        # order <= 5 pass.
        assert result["errors"] == 8 and result["trials"] == result["pass"] == 12

    def test_verify_witness_past_the_budget_exits_two(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "w.json"
        payload = {"theorem": "I3", "g": {"n": 6, "edges": path_graph(6).edges()}}
        path.write_text(json.dumps(payload), encoding="utf-8")
        monkeypatch.setenv("ROOTDOM_BUDGET", "5")
        assert main(["--quiet", "verify", "--witness", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "order 6 exceeds the subset-scan budget" in captured.err
