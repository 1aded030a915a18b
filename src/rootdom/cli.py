"""Command-line entry point: solve, gen, product, verify, campaign.

All commands are deterministic given their full option set (seeds included).
JSON outputs carry a ``meta`` block (timestamp, backend, version); everything
outside ``meta`` is byte-stable across runs with identical options.
Exit codes: 0 clean, 1 must-hold theorem failure (or unreproduced witness),
2 input/config/resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, families, kernels
from .graph import format_edge_list, read_edge_list
from .harness import CampaignConfig, Outcome, TheoremId, check_witness, run_campaign
from .product import RootedGraph, rooted_product
from .solvers import (
    BudgetExceededError,
    InfeasibleParameterError,
    ParameterKind,
    RomanAssignment,
    classify_root,
    enumerate_optimal,
    require_solvable,
    solve,
)


def _meta() -> dict:
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "backend": kernels.BACKEND,
        "version": __version__,
    }


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _format_witness(witness) -> str:
    if isinstance(witness, RomanAssignment):
        b1 = "{" + ", ".join(map(str, sorted(witness.b1))) + "}"
        b2 = "{" + ", ".join(map(str, sorted(witness.b2))) + "}"
        return f"B1={b1} B2={b2}"
    return "{" + ", ".join(map(str, sorted(witness))) + "}"


def _witness_json(witness):
    if isinstance(witness, RomanAssignment):
        return {"b1": sorted(witness.b1), "b2": sorted(witness.b2)}
    return sorted(witness)


def _cmd_solve(args) -> int:
    kind = ParameterKind(args.param)
    # An order no method can solve exits before the graph is allocated.
    graph = read_edge_list(args.file, check=lambda n, edges: require_solvable(n, edges, kind))
    # Every check and computation runs before the first line is printed, so
    # a request that fails prints its error alone.
    if args.classify_root is not None and graph.n < 2:
        raise ValueError("root classification needs a graph of order at least 2")
    rooted = None if args.classify_root is None else RootedGraph(graph, args.classify_root)
    result = solve(graph, kind)
    witnesses = enumerate_optimal(graph, kind) if args.enumerate else None
    cls = None if rooted is None else classify_root(rooted, kind)

    payload: dict = {
        "param": args.param,
        "value": result.value,
        "witness": _witness_json(result.witness),
    }
    lines = [f"{args.param} = {result.value}", f"witness = {_format_witness(result.witness)}"]
    if witnesses is not None:
        payload["optimal_count"] = len(witnesses)
        payload["optimal"] = [_witness_json(w) for w in witnesses]
        lines.append(f"optimal_count = {len(witnesses)}")
    if cls is not None:
        payload["classification"] = {"root": rooted.root, "membership": cls.membership.value}
        extra = ""
        if cls.roman_values is not None:
            payload["classification"]["roman_values"] = sorted(cls.roman_values)
            extra = f" labels={sorted(cls.roman_values)}"
        lines.append(f"root {rooted.root} membership = {cls.membership.value}{extra}")
    if args.out:
        _dump_json({"meta": _meta(), **payload}, args.out)
    if not args.quiet:
        print("\n".join(lines))
    return 0


#: ``gen``'s families in ``--family`` order: each one's generator in
#: ``rootdom.families`` and the options it takes, in argument order.
_GENERATORS = {
    "path": (families.path_graph, ("n",)),
    "cycle": (families.cycle_graph, ("n",)),
    "star": (families.star_graph, ("m",)),
    "subdivided-star": (families.subdivided_star_graph, ("m",)),
    "complete": (families.complete_graph, ("n",)),
    "empty": (families.empty_graph, ("n",)),
    "random-tree": (families.random_tree, ("n", "seed")),
    "random-connected": (families.random_connected_graph, ("n", "p", "seed")),
}


def _cmd_gen(args) -> int:
    generator, options = _GENERATORS[args.family]
    for name in options:
        if getattr(args, name) is None:
            raise ValueError(f"family parameter {name!r} is required")
    result = generator(*(getattr(args, name) for name in options))
    if isinstance(result, RootedGraph):
        text = format_edge_list(result.graph, root=result.root)
    else:
        text = format_edge_list(result)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_product(args) -> int:
    base = read_edge_list(args.g_file)
    h_graph = read_edge_list(args.h_file)
    rooted = RootedGraph(h_graph, args.root)
    rp = rooted_product(base, rooted)
    text = format_edge_list(rp.product)
    sidecar = {
        "base": list(range(base.n)),
        "copies": [sorted(s) for s in rp.copy_vertex_sets()],
        "root": args.root,
    }
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _dump_json({"meta": _meta(), **sidecar}, args.out + ".map.json")
        if not args.quiet:
            print(f"wrote {args.out} and {args.out}.map.json")
    else:
        sys.stdout.write(text)
        _dump_json(sidecar, None)
    return 0


def _write_witness_files(report: dict, out: str, quiet: bool) -> None:
    stem = Path(out).with_suffix("")
    count = 0
    for entry in report["results"]:
        for idx, failure in enumerate(entry["failures"]):
            if "witness" not in failure:
                continue
            path = f"{stem}-witness-{entry['theorem']}-{idx}.json"
            _dump_json(failure["witness"], path)
            count += 1
    if count and not quiet:
        print(f"wrote {count} witness file(s) alongside {out}")


def _finish_campaign(report: dict, args) -> int:
    """Print the per-theorem summary, write the report and witness files, and
    return the exit code."""
    if not args.quiet:
        for entry in report["results"]:
            print(
                f"{entry['theorem']}: trials={entry['trials']} pass={entry['pass']} "
                f"fail={entry['fail']} not_applicable={entry['not_applicable']} "
                f"infeasible={entry['infeasible']}"
            )
        print(f"must-hold failures: {report['must_hold_failures']}")
    if args.out:
        _dump_json({"meta": _meta(), **report}, args.out)
        _write_witness_files(report, args.out, args.quiet)
    return 1 if report["must_hold_failures"] else 0


def _cmd_verify(args) -> int:
    if args.witness:
        payload = json.loads(Path(args.witness).read_text(encoding="utf-8"))
        verdict = check_witness(payload)
        if not args.quiet:
            print(f"{verdict.theorem.value}: {verdict.outcome.value}")
        _dump_json({"meta": _meta(), "verdict": verdict.to_json()}, args.out)
        return 0 if verdict.outcome is Outcome.FAIL else 1
    if not args.theorem:
        raise ValueError("verify needs --theorem or --witness")
    config = CampaignConfig(
        theorems=[args.theorem],
        trials=args.trials,
        seed=args.seed,
        max_g=args.max_g,
        max_h=args.max_h,
    )
    return _finish_campaign(run_campaign(config), args)


def _cmd_campaign(args) -> int:
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        config = CampaignConfig.from_dict(raw)
    else:
        config = CampaignConfig()
    return _finish_campaign(run_campaign(config, jobs=args.jobs), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootdom",
        description="Exact domination-type solvers and theorem checks for rooted product graphs",
        epilog="The ROOTDOM_BUDGET environment variable overrides the 2^n subset-scan cap (default 22).",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_quiet(p: argparse.ArgumentParser) -> None:
        # SUPPRESS keeps a subcommand-level default from clobbering the
        # global --quiet value already parsed into the namespace.
        p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help="suppress human-readable output")

    p_solve = sub.add_parser("solve", help="compute one parameter of a graph file")
    p_solve.add_argument("--param", required=True, choices=sorted(k.value for k in ParameterKind))
    p_solve.add_argument("file")
    p_solve.add_argument("--enumerate", action="store_true", help="list all optimal witnesses")
    p_solve.add_argument("--classify-root", type=int, default=None, metavar="K")
    p_solve.add_argument("--out", default=None, help="write machine-readable JSON here")

    p_gen = sub.add_parser("gen", help="generate a family instance as an edge list")
    p_gen.add_argument("--family", required=True, choices=list(_GENERATORS))
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("-o", "--out", default=None)

    p_prod = sub.add_parser("product", help="build the rooted product of two graph files")
    p_prod.add_argument("g_file")
    p_prod.add_argument("h_file")
    p_prod.add_argument("--root", type=int, required=True)
    p_prod.add_argument("-o", "--out", default=None)

    p_verify = sub.add_parser("verify", help="check one theorem over seeded instances")
    p_verify.add_argument("--theorem", choices=[t.value for t in TheoremId])
    p_verify.add_argument("--trials", type=int, default=CampaignConfig.trials)
    p_verify.add_argument("--seed", type=int, default=CampaignConfig.seed)
    p_verify.add_argument("--max-g", type=int, default=CampaignConfig.max_g)
    p_verify.add_argument("--max-h", type=int, default=CampaignConfig.max_h)
    p_verify.add_argument("--witness", default=None, help="re-run a recorded witness file")
    p_verify.add_argument("--out", default=None)

    p_camp = sub.add_parser("campaign", help="run a full campaign from a JSON config")
    p_camp.add_argument("--config", default=None)
    p_camp.add_argument("--out", default=None)
    p_camp.add_argument("--jobs", type=int, default=1)

    for sub_parser in (p_solve, p_gen, p_prod, p_verify, p_camp):
        _add_quiet(sub_parser)

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "product": _cmd_product,
    "verify": _cmd_verify,
    "campaign": _cmd_campaign,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError, InfeasibleParameterError, BudgetExceededError) as exc:
        # The interpreter's own MemoryError carries no message.
        message = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
