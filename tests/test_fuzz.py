"""Fuzzed CLI inputs: edge-list text, witness JSON and campaign config JSON.

Whatever the file holds, a command exits 0, 1 or 2, and a fault in the
input exits 2 with a one-line message rather than a traceback.  Exit 1 keeps
its one meaning, a real verdict: a witness that did not reproduce, or a
must-hold failure, which a campaign here must never report.

Every size is bounded: at most 8 vertices and 12 edges per graph, products
of order at most 12, at most one trial per theorem and small tree caps.  A
super scan of an order-20 product takes seconds on the pure-Python kernels.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootdom import harness
from rootdom.cli import main
from rootdom.graph import parse_edge_list
from rootdom.harness import CampaignConfig, Outcome, TheoremId, check_witness
from rootdom.solvers import BudgetExceededError, InfeasibleParameterError, ParameterKind

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process: its exit code and its stderr.  An exception
    that escapes ``main`` fails the test, as its traceback would."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["--quiet", *argv])
    return code, err.getvalue()


def _assert_exit(code: int, err: str, allowed: tuple[int, ...]) -> None:
    assert code in allowed, (code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# -- shared strategies ----------------------------------------------------------

#: JSON values of every type, none of them the one a field wants.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(allow_nan=False, width=16),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3),
)

#: How an input is spoiled: most draws keep it well formed.
_FLAWS = ["none"] * 8


def _edges(draw, n: int) -> list[list[int]]:
    """Up to 12 edges of a simple graph of order ``n``, repeats allowed."""
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    return draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []


# -- edge-list text ------------------------------------------------------------

#: Small integers, and tokens that are not plain decimals: ``int`` takes the
#: sign, the Arabic-Indic three and the underscore, but not the superscript
#: two, which ``str.isdigit`` accepts.
_TOKEN = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["x", "1.5", "+3", "-0", "0x1", "\u0663", "\u00b2", "1_2", "#", "root"]),
)
_WORDS = st.lists(_TOKEN, max_size=3).map(" ".join)
#: Words after ``# root``, which the parser reads as a comment like any
#: other: the tokens above, and signs and digits in an order ``int`` refuses.
_ROOT_WORD = st.one_of(_TOKEN, st.sampled_from(["--1", "-", "1-", "-\u00b2"]))
_LINE = st.one_of(
    _WORDS,
    st.tuples(_WORDS, _WORDS).map(lambda parts: f"{parts[0]} # {parts[1]}"),
    _ROOT_WORD.map(lambda word: f"# root {word}"),
)


@st.composite
def _edge_list_texts(draw) -> str:
    """A graph of order 1..8 in the edge-list format, spoiled by at most one
    flaw, or free lines of tokens, with or without a ``# root`` comment."""
    flaw = draw(st.sampled_from([*_FLAWS, "lines", "order", "count", "vertex", "loop", "token"]))
    if flaw == "lines":
        return "\n".join(draw(st.lists(_LINE, max_size=14)))
    n = draw(st.integers(1, 8))
    edges = _edges(draw, n)
    if flaw == "vertex":
        edges.append([draw(st.integers(0, n - 1)), draw(st.sampled_from([-1, n]))])
    elif flaw == "loop":
        edges.append([n - 1, n - 1])
    m = len(edges) + (draw(st.sampled_from([-1, 1])) if flaw == "count" else 0)
    if flaw == "order":
        n = draw(st.integers(-1, n - 1))
    lines = [f"{n} {m}", *(f"{u} {v}" for u, v in edges)]
    if flaw == "token":
        lines[draw(st.integers(0, len(lines) - 1))] += " " + draw(_TOKEN)
    if draw(st.booleans()):
        lines.append(f"# root {draw(st.one_of(st.sampled_from([-1, n]), _ROOT_WORD))}")
    return "\n".join(lines) + "\n"


@FUZZ
@given(_edge_list_texts(), st.sampled_from([k.value for k in ParameterKind]))
@example(text="2 1\n0 1\n# root --1\n", param="gamma")
def test_edge_list_text(workdir, text, param):
    # Every parse error names its source.
    try:
        parse_edge_list(text, "g.el")
        parsed = True
    except ValueError as exc:
        assert str(exc).startswith("g.el"), exc
        parsed = False
    path = workdir / "g.el"
    path.write_text(text, encoding="utf-8")
    code, err = _run(["solve", "--param", param, str(path)])
    _assert_exit(code, err, (0, 2) if parsed else (2,))


# -- witness JSON ----------------------------------------------------------------


@st.composite
def _witness_payloads(draw):
    """A witness of some theorem on a G of order 2..8, with an H of order at
    least 2 for a product theorem and a product of order at most 12, spoiled
    by at most one flaw."""
    flaw = draw(st.sampled_from(
        [*_FLAWS, "whole", "drop", "junk", "theorem", "base", "root", "edge", "arity"]
    ))
    if flaw == "whole":
        return draw(_JUNK)
    theorem = draw(st.sampled_from(list(TheoremId)))
    on_products = harness._on_products(theorem)
    g_order = draw(st.integers(2, 6 if on_products else 8))
    payload = {
        "theorem": theorem.value, "values": {}, "g": {"n": g_order, "edges": _edges(draw, g_order)},
    }
    if on_products != (flaw == "arity"):
        h_order = draw(st.integers(2, max(2, 12 // g_order)))
        payload["h"] = {"n": h_order, "edges": _edges(draw, h_order)}
        payload["root"] = draw(st.integers(0, h_order - 1))
    if flaw in ("drop", "junk"):
        key = draw(st.sampled_from(sorted(payload)))
        if flaw == "drop":
            del payload[key]
        else:
            payload[key] = draw(_JUNK)
    elif flaw == "theorem":
        payload["theorem"] = draw(st.sampled_from(["", "D3", "d1", " D1"]))
    elif flaw == "base":
        payload["g"] = {"n": draw(st.integers(-1, 1)), "edges": []}
    elif flaw == "root" and "h" in payload:
        payload["root"] = draw(st.sampled_from([-1, payload["h"]["n"]]))
    elif flaw == "edge":
        payload["g"]["edges"].append(draw(st.sampled_from([[0, 0], [0, g_order], [0, 1, 2], [0]])))
    return payload


@FUZZ
@given(_witness_payloads())
def test_witness_json(workdir, payload):
    path = workdir / "w.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, err = _run(["verify", "--witness", str(path)])
    _assert_exit(code, err, (0, 1, 2))
    try:
        verdict = check_witness(payload)
    except (ValueError, BudgetExceededError, InfeasibleParameterError):
        assert code == 2, err
    else:
        assert code == (0 if verdict.outcome is Outcome.FAIL else 1)


#: Files that hold no JSON object: no JSON at all, a JSON scalar, and bytes
#: that are not UTF-8.
@pytest.mark.parametrize("data", [b"", b"{", b"[1,", b"nan", b'"I6"', b'{"theorem": "\xff"}'])
def test_witness_file_that_holds_no_object(workdir, data):
    path = workdir / "w.json"
    path.write_bytes(data)
    _assert_exit(*_run(["verify", "--witness", str(path)]), (2,))


# -- campaign config JSON ----------------------------------------------------------


@st.composite
def _campaign_configs(draw):
    """A config that meets every bound in ``CampaignConfig`` and the size
    bounds above, spoiled by at most one flaw.  Every field is set, since
    the defaults go past the size bounds."""
    flaw = draw(st.sampled_from([*_FLAWS, "whole", "junk", "low", "unknown"]))
    if flaw == "whole":
        return draw(_JUNK)
    tree_min = draw(st.integers(2, 3))
    config = {
        "theorems": draw(st.lists(st.sampled_from([t.value for t in TheoremId]), max_size=4)),
        "trials": draw(st.integers(0, 1)),
        "seed": draw(st.integers(-(2**70), 2**70)),
        "max_g": draw(st.integers(2, 6)),
        "max_h": draw(st.integers(2, 6)),
        "product_cap": draw(st.integers(max(4, tree_min**2), 12)),
        "deletion_n": draw(st.integers(2, 6)),
        "tree_min": tree_min,
        "tree_max": draw(st.integers(tree_min, 16)),
        "tree_single_max": draw(st.integers(3, 16)),
        "tree_product_cap": draw(st.integers(tree_min**2, 16)),
    }
    if flaw in ("junk", "low"):
        key = draw(st.sampled_from(sorted(config)))
        config[key] = draw(_JUNK if flaw == "junk" else st.integers(-1, 1))
    elif flaw == "unknown":
        config[draw(st.sampled_from(["nope", "Trials", ""]))] = 1
    return config


@FUZZ
@given(_campaign_configs())
def test_campaign_config(workdir, config):
    path = workdir / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, err = _run(["campaign", "--config", str(path)])
    _assert_exit(code, err, (0, 2))
    try:
        CampaignConfig.from_dict(config)
    except ValueError:
        assert code == 2, err
