"""Command-line front end.

Subcommands:
    classify  print the arc-structure level of an annotated-sequence file
    solve     exact optimum for two annotated-sequence files
    reduce    turn a graph file into a reduced instance pair
    verify    one (graph, k) equivalence row
    sweep     equivalence report over a graph family

Exit codes: 0 ok, 1 usage or parse error, 2 budget exceeded,
3 counterexample found (sweep with --strict only).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .core import MatchConstraint, classify_structure
from .errors import ArcseqError, BudgetError
from .formats import _pair_lines, load_annotated_sequence, load_graph, save_annotated_sequence
from .reductions import REDUCTIONS, GraphOracles, check_equivalence
from .solvers import SearchBudget, solve
from .sweep import SweepConfig, row_cells, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_COUNTEREXAMPLE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _k_policy(text: str) -> int | str:
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'all' or an integer, got {text!r}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="arcseq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"arcseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the structure level of a sequence file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("solve", help="exact optimum for two sequence files")
    p.add_argument("file1", type=Path)
    p.add_argument("file2", type=Path)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--unconstrained", action="store_true")
    grp.add_argument("--fragment", type=int, metavar="C")
    grp.add_argument("--diagonal", type=int, metavar="C")
    p.add_argument("--budget-nodes", type=int, default=None)

    p = sub.add_parser("reduce", help="build a reduced instance from a graph file")
    p.add_argument("graph", type=Path)
    p.add_argument("k", type=int)
    p.add_argument("--theorem", choices=("1", "2"), required=True)
    p.add_argument("--out", type=Path, required=True, metavar="PREFIX")

    p = sub.add_parser("verify", help="one (graph, k) equivalence row")
    p.add_argument("graph", type=Path)
    p.add_argument("k", type=int)
    p.add_argument("--theorem", choices=("1", "2"), required=True)
    p.add_argument("--budget-nodes", type=int, default=None)

    p = sub.add_parser("sweep", help="equivalence report over a graph family")
    p.add_argument("--theorem", choices=("1", "2"), required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k", type=_k_policy, default="all",
                   help="'all' or a fixed integer (default: all)")
    p.add_argument("--random", type=int, default=None, metavar="COUNT",
                   help="draw COUNT random graphs per vertex count instead of all")
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, required=True, metavar="CSV")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--max-exhaustive-n", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any counterexample row is found")
    return parser


def _cmd_classify(args) -> int:
    a = load_annotated_sequence(args.file)
    print(classify_structure(a.arcs, len(a)))
    return EXIT_OK


def _cmd_solve(args) -> int:
    a1 = load_annotated_sequence(args.file1)
    a2 = load_annotated_sequence(args.file2)
    if args.fragment is not None:
        mc = MatchConstraint.fragment(args.fragment)
    elif args.diagonal is not None:
        mc = MatchConstraint.diagonal(args.diagonal)
    else:
        mc = MatchConstraint.unconstrained()
    result = solve(a1, a2, mc, budget=SearchBudget(max_nodes=args.budget_nodes))
    sys.stdout.write(f"{result.length}\n{_pair_lines(result.witness.pairs)}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    g = load_graph(args.graph)
    inst = REDUCTIONS[f"T{args.theorem}"](g, args.k)
    prefix = args.out
    prefix.parent.mkdir(parents=True, exist_ok=True)
    save_annotated_sequence(inst.a1, prefix.with_name(prefix.name + ".a1.txt"))
    save_annotated_sequence(inst.a2, prefix.with_name(prefix.name + ".a2.txt"))
    print(f"threshold {inst.threshold}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    oracles = GraphOracles(g, f"T{args.theorem}", SearchBudget(max_nodes=args.budget_nodes))
    row = check_equivalence(oracles, args.k, args.graph.stem)
    print(" ".join(f"{name}={cell}" for name, cell in row_cells(row).items()))
    return EXIT_BUDGET if row.skipped else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        theorem=f"T{args.theorem}",
        n_range=(args.n_min, args.n_max),
        k_policy=args.k,
        graph_source="random" if args.random is not None else "exhaustive",
        random_count=args.random,
        edge_probability=args.edge_prob,
        seed=args.seed,
        search_budget=SearchBudget(max_nodes=args.budget_nodes),
        max_exhaustive_n=args.max_exhaustive_n,
        output_csv=args.out,
    )
    counts = run_sweep(cfg).counts()
    print(
        f"rows={counts['rows']} skipped={counts['skipped']} "
        f"forward_failures={counts['forward_failures']} "
        f"backward_failures={counts['backward_failures']}"
    )
    if counts["skipped"]:
        return EXIT_BUDGET
    # The counterexample rows are exactly the rows with either failure.
    if args.strict and (counts["forward_failures"] or counts["backward_failures"]):
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"arcseq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        print(f"arcseq: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ArcseqError, OSError) as exc:
        print(f"arcseq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
