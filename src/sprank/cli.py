"""Command-line interface.

Subcommands: rank, resilience, decompose, augment, verify.

Exit codes: 0 success; 1 parse/shape errors, JSON headers claiming more
rows and columns than their stars allow, patterns over the dense-size cap
(n*m cells where they are built one by one, as by augment --out; n*(K+1)
pairs for each target K augment plans) and failed self-checks; 2 invalid
flags; 3 computed negative/deficient result; 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import augment as augment_mod
from . import flow as flow_engine
from . import io as io_mod
from . import oracle as oracle_mod
from . import resilience as resilience_mod
from .errors import BudgetExceededError, SprankError
from .pattern import check_dense_size, from_bipartite, to_bipartite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _oracle_budget() -> oracle_mod.OracleBudget:
    raw = os.environ.get("SPRANK_ORACLE_BUDGET")
    if raw is None:
        return oracle_mod.DEFAULT_BUDGET
    try:
        return oracle_mod.OracleBudget(max_subsets=int(raw))
    except ValueError:
        raise _UsageError(
            f"SPRANK_ORACLE_BUDGET must be a positive integer, got {raw!r}"
        ) from None


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _edges_1based(edges) -> list[list[int]]:
    return [[i + 1, j + 1] for (i, j) in sorted(edges)]


def _format_edges(edges) -> str:
    return " ".join(f"({i + 1},{j + 1})" for (i, j) in sorted(edges))


def _cmd_rank(args, out) -> int:
    g = to_bipartite(io_mod.load_pattern(args.file))
    rank = resilience_mod.structural_rank(g)
    full = rank == g.n_left
    if args.json:
        out.write(json.dumps({"rank": rank, "full_rank": full}) + "\n")
    else:
        out.write(f"rank: {rank} ({'full' if full else 'deficient'})\n")
    return EXIT_OK if full else EXIT_NEGATIVE


def _cmd_resilience(args, out) -> int:
    if args.budget is not None and not args.weak:
        raise _UsageError("--budget needs --weak: it caps the weak-resilience subset tests")
    g = to_bipartite(io_mod.load_pattern(args.file))
    if args.weak:
        budget = args.budget if args.budget is not None else resilience_mod.DEFAULT_WEAK_BUDGET
        value = resilience_mod.weak_resilience(g, budget=budget)
        if args.json:
            out.write(json.dumps({"weak_resilience": value}) + "\n")
        else:
            out.write(f"weak_resilience: {value}\n")
        return EXIT_OK if value >= 0 else EXIT_NEGATIVE
    sweep = flow_engine.resilience_sweep(g)
    strong = sweep.ell_star - 1
    if args.json:
        out.write(
            json.dumps(
                {
                    "rank": sweep.rank,
                    "strong_resilience": strong,
                    "ell_star": sweep.ell_star,
                }
            )
            + "\n"
        )
    else:
        out.write(f"strong_resilience: {strong}, ell_star: {sweep.ell_star}\n")
    return EXIT_OK if strong >= 0 else EXIT_NEGATIVE


def _cmd_decompose(args, out) -> int:
    g = to_bipartite(io_mod.load_pattern(args.file))
    report = resilience_mod.strong_resilience(g)
    if args.dot:
        # Written before stdout, so a failed write exits 1 with nothing printed.
        dot = io_mod.export_dot(report.witness_subgraph, list(report.matchings))
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    if args.json:
        out.write(
            json.dumps(
                {
                    "ell_star": report.ell_star,
                    "strong_resilience": report.strong_resilience,
                    "matchings": [
                        _edges_1based(m.edges) for m in report.matchings
                    ],
                }
            )
            + "\n"
        )
    else:
        out.write(f"ell_star: {report.ell_star}\n")
        for idx, m in enumerate(report.matchings, start=1):
            out.write(f"matching {idx}: {_format_edges(m.edges)}\n")
    return EXIT_OK if report.ell_star > 0 else EXIT_NEGATIVE


def _cmd_augment(args, out) -> int:
    g = to_bipartite(io_mod.load_pattern(args.file))
    if args.out:
        # The written pattern has n * m tokens.
        check_dense_size(g.n_left, g.n_right)
    if args.target is not None:
        plan = augment_mod.min_edges_for_target(g, args.target)
    else:
        plan = augment_mod.best_within_budget(g, args.budget)
    if args.out:
        # Written before stdout, so a failed write exits 1 with nothing printed.
        augmented = from_bipartite(plan.result_graph)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(io_mod.serialize_text(augmented))
    if args.json:
        out.write(
            json.dumps(
                {
                    "delta_star": plan.delta_star,
                    "achieved_resilience": plan.achieved_resilience,
                    "added_edges": _edges_1based(plan.added_edges),
                }
            )
            + "\n"
        )
    else:
        out.write(
            f"delta_star: {plan.delta_star}, "
            f"achieved_resilience: {plan.achieved_resilience}\n"
        )
        if plan.added_edges:
            out.write(f"added: {_format_edges(plan.added_edges)}\n")
    return EXIT_OK if plan.achieved_resilience >= 0 else EXIT_NEGATIVE


def _cmd_verify(args, out) -> int:
    g = to_bipartite(io_mod.load_pattern(args.file))
    budget = _oracle_budget()
    checks = []

    # The request's one sweep, its witness checked, gives the rank (its
    # level 1), the strong resilience and the weak bounds' starting point.
    sweep = flow_engine.resilience_sweep(g)
    strong = sweep.ell_star - 1
    rank_brute = oracle_mod.brute_rank(g)
    checks.append(("rank flow vs oracle", sweep.rank == rank_brute))

    strong_brute = oracle_mod.brute_strong_resilience(g, budget)
    checks.append(("strong resilience flow vs oracle", strong == strong_brute))

    weak_enum = resilience_mod._weak_resilience(g, sweep, budget.max_subsets)
    weak_brute = oracle_mod.brute_weak_resilience(g, budget)
    checks.append(("weak resilience enumeration vs oracle", weak_enum == weak_brute))
    checks.append(("weak >= strong sandwich", weak_enum >= strong))

    ok = True
    for name, passed in checks:
        out.write(f"{'PASS' if passed else 'FAIL'}: {name}\n")
        ok = ok and passed
    out.write("all checks passed\n" if ok else "checks failed\n")
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="sprank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="structural rank of a pattern")
    p_rank.add_argument("file")
    p_rank.add_argument("--json", action="store_true")
    p_rank.set_defaults(func=_cmd_rank)

    p_res = sub.add_parser("resilience", help="strong (default) or weak resilience")
    p_res.add_argument("file")
    p_res.add_argument("--weak", action="store_true")
    p_res.add_argument("--budget", type=_nonnegative_int, default=None)
    p_res.add_argument("--json", action="store_true")
    p_res.set_defaults(func=_cmd_resilience)

    p_dec = sub.add_parser("decompose", help="disjoint left-perfect matchings")
    p_dec.add_argument("file")
    p_dec.add_argument("--dot", default=None, metavar="OUT")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=_cmd_decompose)

    p_aug = sub.add_parser("augment", help="plan minimum edge additions")
    p_aug.add_argument("file")
    group = p_aug.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=_nonnegative_int, default=None, metavar="K")
    group.add_argument("--budget", type=_nonnegative_int, default=None, metavar="P")
    p_aug.add_argument("--out", default=None, metavar="FILE")
    p_aug.add_argument("--json", action="store_true")
    p_aug.set_defaults(func=_cmd_augment)

    p_ver = sub.add_parser("verify", help="cross-check flow results against the oracle")
    p_ver.add_argument("file")
    p_ver.set_defaults(func=_cmd_verify)

    # Each subcommand's own parser, by name, for run to call directly.
    parser._commands = sub.choices
    return parser


# Built once: parse_args returns a fresh namespace on every call.
_PARSER = build_parser()


def run(argv, out=None) -> int:
    """Dispatch a command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        # A named subcommand goes straight to its own parser: the top level
        # would only hand it the rest of argv.  Anything else, help and
        # unknown commands included, takes the top level.  Usage errors
        # print only their message, so both routes print the same bytes.
        command = argv and _PARSER._commands.get(argv[0])
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
        return args.func(args, out)
    except _UsageError as exc:
        print(f"sprank: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"sprank: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SprankError, OSError) as exc:
        print(f"sprank: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
