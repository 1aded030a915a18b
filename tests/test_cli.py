import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootdom
from rootdom.cli import main
from rootdom.graph import format_edge_list, read_edge_list
from rootdom.families import cycle_graph, path_graph, star_graph
from rootdom.harness import CampaignConfig, TheoremId, run_campaign


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(format_edge_list(path_graph(4)), encoding="utf-8")
    return str(path)


def _main_in_256_mb(argv):
    """``main(argv)`` in a child process capped at 256 MB of address space:
    enough for the interpreter and rootdom, and the cap is met within a
    second by an allocation that would need gigabytes."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from rootdom.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(rootdom.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


def _strip_meta(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    data.pop("meta", None)
    return data


#: The standard witness payload of a passing I6 instance: P3 with a star
#: K_{1,2} rooted at its centre.
I6_PASSING_WITNESS = {
    "theorem": "I6",
    "values": {"i_product": 4, "expected": 4, "product_order": 9},
    "g": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "h": {"n": 3, "edges": [[0, 1], [0, 2]]},
    "root": 0,
}


class TestSolve:
    def test_gamma_output(self, p4_file, capsys):
        assert main(["solve", "--param", "gamma", p4_file]) == 0
        out = capsys.readouterr().out
        assert "gamma = 2" in out
        assert "witness = {0, 2}" in out

    def test_roman_json(self, p4_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["solve", "--param", "roman", p4_file, "--out", str(out)])
        assert code == 0
        data = _strip_meta(out)
        assert data["value"] == 3
        assert data["witness"] == {"b1": [3], "b2": [1]}

    def test_enumerate_and_classify(self, tmp_path, capsys):
        c3 = tmp_path / "c3.el"
        c3.write_text(format_edge_list(cycle_graph(3)), encoding="utf-8")
        out = tmp_path / "s.json"
        code = main(
            ["solve", "--param", "gamma", str(c3), "--enumerate", "--classify-root", "0", "--out", str(out)]
        )
        assert code == 0
        data = _strip_meta(out)
        assert data["optimal_count"] == 3
        assert data["classification"]["membership"] == "IN_SOME"

    def test_a_root_comment_past_the_order_is_ignored(self, tmp_path, p4_file, capsys):
        # Neither solve nor product reads a root from the file.
        rooted = tmp_path / "rooted.el"
        rooted.write_text(format_edge_list(path_graph(4), root=9), encoding="utf-8")
        for argv in (["solve", "--param", "gamma"], ["product", p4_file, "--root", "0"]):
            outputs = []
            for path in (p4_file, str(rooted)):
                assert main([*argv, path]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1] and not outputs[1].err

    def test_quiet(self, p4_file, capsys):
        assert main(["--quiet", "solve", "--param", "gamma", p4_file]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        assert main(["solve", "--param", "gamma", "no-such-file.el"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("2 1\n0 x\n", encoding="utf-8")
        assert main(["solve", "--param", "gamma", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.el:2" in err

    @pytest.mark.parametrize(
        "graph,extra",
        [(path_graph(30), ["--enumerate"]), (path_graph(3), ["--classify-root", "5"])],
        ids=["enumerate-past-scan-budget", "root-out-of-range"],
    )
    def test_failing_request_prints_only_its_error(self, tmp_path, capsys, graph, extra):
        path = tmp_path / "g.el"
        path.write_text(format_edge_list(graph), encoding="utf-8")
        assert main(["solve", "--param", "connected", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_classifying_a_root_of_a_single_vertex_says_why_it_fails(self, tmp_path, capsys):
        path = tmp_path / "k1.el"
        path.write_text("1 0\n", encoding="utf-8")
        assert main(["solve", "--param", "gamma", str(path), "--classify-root", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: root classification needs a graph of order at least 2\n"

    @pytest.mark.memory_cap
    @pytest.mark.parametrize("param", ["gamma", "i"])
    def test_an_order_no_method_solves_exits_before_allocating(self, tmp_path, param):
        # 10^8 vertices and no edges: not a tree, so past the scan budget no
        # method answers.  Building the graph would take gigabytes, and under
        # the address-space cap it would end in "out of memory", not this.
        path = tmp_path / "huge.el"
        path.write_text("100000000 0\n", encoding="utf-8")
        done = _main_in_256_mb(["solve", "--param", param, str(path)])
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: solve needs the subset scan, and order 100000000 exceeds")
        assert done.stderr.count("\n") == 1

    def test_a_tree_past_the_budget_with_a_repeated_edge_still_solves(self, tmp_path, capsys):
        # The header counts 30 edge lines, but the 29 distinct ones form a tree.
        path = tmp_path / "p30.el"
        path.write_text(format_edge_list(path_graph(30)).replace("30 29\n", "30 30\n0 1\n", 1), encoding="utf-8")
        assert main(["solve", "--param", "i", str(path)]) == 0
        assert "i = 10" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["3", "0", "-5", "63"])
    def test_budget_env(self, p4_file, monkeypatch, capsys, budget):
        monkeypatch.setenv("ROOTDOM_BUDGET", budget)
        assert main(["solve", "--param", "gamma", p4_file]) == 2
        assert "budget" in capsys.readouterr().err


class TestGen:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "t.el"
        assert main(["--quiet", "gen", "--family", "random-tree", "--n", "8", "--seed", "5", "-o", str(out)]) == 0
        g = read_edge_list(str(out))
        assert g.n == 8 and g.m == 7

    def test_rooted_family_comment(self, tmp_path):
        out = tmp_path / "s.el"
        assert main(["--quiet", "gen", "--family", "star", "--m", "3", "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.strip().endswith("# root 0")
        assert read_edge_list(str(out)) == star_graph(3).graph

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        for target in (a, b):
            main(["--quiet", "gen", "--family", "random-connected", "--n", "7",
                  "--p", "0.4", "--seed", "9", "-o", str(target)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_size(self, capsys):
        assert main(["gen", "--family", "cycle", "--n", "2"]) == 2

    def test_random_connected_gives_up_exits_two(self, capsys):
        argv = ["gen", "--family", "random-connected", "--n", "12", "--p", "0.01", "--seed", "1"]
        assert main(argv) == 2
        assert "1000 attempts" in capsys.readouterr().err

    # The sha256 of each family's output at fixed options; the last case
    # takes ``--p``'s default.
    @pytest.mark.parametrize("family, options, digest", [
        ("path", ["--n", "7"], "cf064f6123409d88031a21cf5fb477cf8363544d74f99e476847bc69525553ac"),
        ("cycle", ["--n", "6"], "bfb5b0e7bc7ef780bd592500a43f482fa2055a92eb84ef0c44b8ef0ff96ac49a"),
        ("star", ["--m", "4"], "d4dc104928e5c397b98b2e4b015a5bd55d69a591e7c5b1781a1864cf71ecdb10"),
        ("subdivided-star", ["--m", "3"],
         "10e2ca33266978687877ba704a2da6f67e5e43c2b3cad570281209897658382e"),
        ("complete", ["--n", "5"], "02f369096b911556d342f347851a6f997d3766501c956bed1b4e3ed810a8fc42"),
        ("empty", ["--n", "4"], "f185975e4157c46adfe550d4b40b5132c89e77b2e34e84dd460510c341de7c6d"),
        ("random-tree", ["--n", "9", "--seed", "123"],
         "2a500925e52ba6c03be53123b49489268a6042316da55c576b3a55e4a96cdc1d"),
        ("random-connected", ["--n", "8", "--p", "0.4", "--seed", "7"],
         "41aee5e1094164493f6519683408d89636ed2e123973a2e7cb05791943cc50eb"),
        ("random-connected", ["--n", "8", "--seed", "7"],
         "348b5af18e875f7266ac4ee75a65fd1f626a2389909ba87f191cd1415545a4ba"),
    ])
    def test_pinned_output(self, capsys, family, options, digest):
        assert main(["gen", "--family", family, *options]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_family_choice_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--help"])
        assert ("--family {path,cycle,star,subdivided-star,complete,empty,random-tree,"
                "random-connected}") in capsys.readouterr().out

    # The first missing option is named, in the generator's argument order.
    @pytest.mark.parametrize("family, options, missing", [
        ("path", [], "n"),
        ("cycle", ["--m", "3"], "n"),
        ("star", ["--n", "3"], "m"),
        ("subdivided-star", [], "m"),
        ("complete", [], "n"),
        ("empty", [], "n"),
        ("random-tree", ["--seed", "1"], "n"),
        ("random-tree", ["--n", "5"], "seed"),
        ("random-connected", [], "n"),
        ("random-connected", ["--n", "5", "--p", "0.3"], "seed"),
    ])
    def test_missing_option_exits_two(self, capsys, family, options, missing):
        assert main(["gen", "--family", family, *options]) == 2
        assert capsys.readouterr().err == f"error: family parameter {missing!r} is required\n"

    @pytest.mark.parametrize("family, options, message", [
        ("path", ["--n", "1"], "paths need order >= 2, got 1"),
        ("cycle", ["--n", "2"], "cycles need order >= 3, got 2"),
        ("star", ["--m", "1"], "stars need at least 2 leaves, got 1"),
        ("subdivided-star", ["--m", "1"], "subdivided stars need at least 2 leaves, got 1"),
        ("complete", ["--n", "0"], "complete graphs need order >= 1, got 0"),
        ("empty", ["--n", "0"], "empty graphs need order >= 1, got 0"),
        ("random-tree", ["--n", "1", "--seed", "0"], "random trees need order >= 2, got 1"),
        ("random-connected", ["--n", "1", "--seed", "0"],
         "random connected graphs need order >= 2, got 1"),
        ("random-connected", ["--n", "5", "--p", "0", "--seed", "0"],
         "edge probability must be in (0, 1], got 0.0"),
    ])
    def test_range_error_exits_two(self, capsys, family, options, message):
        assert main(["gen", "--family", family, *options]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestProduct:
    def test_product_files(self, tmp_path, p4_file):
        c3 = tmp_path / "c3.el"
        c3.write_text(format_edge_list(cycle_graph(3)), encoding="utf-8")
        out = tmp_path / "prod.el"
        code = main(["--quiet", "product", p4_file, str(c3), "--root", "0", "-o", str(out)])
        assert code == 0
        g = read_edge_list(str(out))
        assert g.n == 12 and g.m == 15
        sidecar = _strip_meta(str(out) + ".map.json")
        assert sidecar["base"] == [0, 1, 2, 3]
        assert len(sidecar["copies"]) == 4
        assert all(len(c) == 3 for c in sidecar["copies"])

    def test_root_out_of_range(self, tmp_path, p4_file, capsys):
        c3 = tmp_path / "c3.el"
        c3.write_text(format_edge_list(cycle_graph(3)), encoding="utf-8")
        assert main(["product", p4_file, str(c3), "--root", "7"]) == 2

    @pytest.mark.memory_cap
    def test_out_of_memory_exits_two(self, tmp_path, p4_file):
        # A base of 10^8 vertices takes gigabytes; under the address-space cap
        # building it raises MemoryError, which ends in a one-line message.
        huge = tmp_path / "huge.el"
        huge.write_text("100000000 0\n", encoding="utf-8")
        done = _main_in_256_mb(["product", str(huge), p4_file, "--root", "0"])
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


class TestVerify:
    def test_clean_theorem(self, tmp_path, capsys):
        out = tmp_path / "d2.json"
        code = main(["verify", "--theorem", "D2", "--trials", "12", "--seed", "42", "--out", str(out)])
        assert code == 0
        data = _strip_meta(out)
        assert data["results"][0]["pass"] == 12
        assert "D2" in capsys.readouterr().out
        assert data == run_campaign(CampaignConfig(theorems=[TheoremId.D2], trials=12, seed=42))

    def test_defaults_are_the_campaign_config_defaults(self, tmp_path):
        out = tmp_path / "d2.json"
        assert main(["--quiet", "verify", "--theorem", "D2", "--out", str(out)]) == 0
        assert _strip_meta(out) == run_campaign(CampaignConfig(theorems=[TheoremId.D2]))

    @pytest.mark.memory_cap
    def test_a_witness_too_large_for_memory_exits_two(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"theorem": "R2", "g": {"n": 100_000_000, "edges": []}}), encoding="utf-8")
        done = _main_in_256_mb(["verify", "--witness", str(path)])
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")

    @pytest.mark.memory_cap
    def test_a_witness_past_the_budget_exits_on_the_budget(self, tmp_path):
        # A Graph of 10^6 vertices stores one open mask each, which fits the
        # cap, so the check reaches the scan budget instead of running out.
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"theorem": "R2", "g": {"n": 1_000_000, "edges": []}}), encoding="utf-8")
        done = _main_in_256_mb(["verify", "--witness", str(path)])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: enumeration needs the subset scan, and order 1000000 exceeds")
        assert done.stderr.count("\n") == 1

    def test_failing_paper_claim_still_exits_zero(self, tmp_path):
        out = tmp_path / "s1.json"
        code = main(["--quiet", "verify", "--theorem", "S1", "--trials", "40", "--seed", "42", "--out", str(out)])
        assert code == 0  # S1 is not a must-hold theorem
        data = _strip_meta(out)
        assert data["results"][0]["fail"] > 0

    def test_witness_files_reproduce(self, tmp_path):
        out = tmp_path / "s1.json"
        main(["--quiet", "verify", "--theorem", "S1", "--trials", "40", "--seed", "42", "--out", str(out)])
        witness_files = sorted(tmp_path.glob("s1-witness-*.json"))
        assert witness_files
        assert main(["verify", "--witness", str(witness_files[0])]) == 0

    def test_quiet_witness_check_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "s1.json"
        main(["--quiet", "verify", "--theorem", "S1", "--trials", "40", "--seed", "42", "--out", str(out)])
        witness = sorted(tmp_path.glob("s1-witness-*.json"))[0]
        capsys.readouterr()
        verdict = tmp_path / "v.json"
        assert main(["--quiet", "verify", "--witness", str(witness), "--out", str(verdict)]) == 0
        assert capsys.readouterr().out == ""
        assert _strip_meta(verdict)["verdict"]["outcome"] == "FAIL"

    def test_unreproduced_witness_fails(self, tmp_path):
        # A witness claiming a passing instance fails reproduction.
        path = tmp_path / "w.json"
        path.write_text(json.dumps(I6_PASSING_WITNESS), encoding="utf-8")
        assert main(["--quiet", "verify", "--witness", str(path)]) == 1

    def test_old_closed_form_witness_exits_two(self, tmp_path, capsys):
        payload = {"theorem": "I6", "closed_form": {"family": "caterpillar", "n": 3, "m": 2}}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", "--witness", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "needs a graph" in err

    def test_single_graph_witness_with_h_exits_two(self, tmp_path, capsys):
        payload = {
            "theorem": "R2",
            "g": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
            "h": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "root": 0,
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", "--witness", str(path)]) == 2
        assert "takes one graph" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem, g, message", [
        ("D2", {"n": 0, "edges": []}, "parameters are undefined on the empty graph"),
        ("R5", {"n": 1, "edges": []}, "the base factor must have at least two vertices"),
        ("I3", {"n": 0, "edges": []}, "parameters are undefined on the empty graph"),
    ])
    def test_witness_off_the_instance_rule_exits_two(self, tmp_path, capsys, theorem, g, message):
        payload = {"theorem": theorem, "g": g}
        if theorem != "I3":
            payload.update({"h": {"n": 3, "edges": [[0, 1], [1, 2]]}, "root": 1})
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", "--witness", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_needs_theorem_or_witness(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("budget", ["0", "abc", "63"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--theorem", "C3", "--trials", "3"],  # no solver call
            ["verify", "--theorem", "I6"],  # a finite sampler
            ["verify", "--witness", "{witness}"],
            ["campaign", "--config", "{config}"],
        ],
        ids=["C3", "I6", "witness", "campaign"],
    )
    def test_bad_budget_exits_two(self, tmp_path, monkeypatch, capsys, budget, argv):
        # The budget is read before any trial, so theorems that never reach a
        # scan reject it too.
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps(I6_PASSING_WITNESS), encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"theorems": ["C3"], "trials": 3}), encoding="utf-8")
        monkeypatch.setenv("ROOTDOM_BUDGET", budget)
        argv = [a.format(witness=witness, config=config) for a in argv]
        assert main(["--quiet", *argv]) == 2
        assert "ROOTDOM_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", [{}, {"theorem": "D2", "g": {"n": "x", "edges": []}}], ids=["empty", "bad-order"]
    )
    def test_malformed_witness_exits_two(self, tmp_path, capsys, payload):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", "--witness", str(path)]) == 2
        assert "witness" in capsys.readouterr().err


class TestCampaign:
    def test_campaign_deterministic_output(self, tmp_path):
        cfg = {"theorems": ["D2", "S1"], "trials": 10, "seed": 42}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--quiet", "campaign", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["--quiet", "campaign", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert _strip_meta(out_a) == _strip_meta(out_b)

    def test_jobs_below_one_exits_two(self, capsys):
        assert main(["--quiet", "campaign", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["campaign", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "cfg",
        [
            {"product_cap": 3},  # no product of two factors fits: the sampler gave up
            {"trials": "x"},  # crashed with a TypeError
            {"trials": -1},  # ran no trial and exited 0
            {"theorems": ["W3"], "tree_min": 5, "tree_max": 6},  # looped forever: 25 > cap 20
            {"theorems": ["D1", "D1"]},  # ran D1 once and reported it twice
        ],
        ids=["product-cap", "trials-type", "trials-negative", "tree-pair-cap", "theorems-repeated"],
    )
    def test_invalid_config_exits_two(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["campaign", "--config", str(cfg_path)]) == 2
        assert "campaign config" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
