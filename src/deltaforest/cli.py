"""Command-line front end.

Subcommands: ``eval`` (forest algorithm), ``oracle`` (cut recursion),
``tree`` (monomial to serialized loaded tree), ``random`` (fuzz-input
monomials).  Reports are single JSON objects with fixed field order and
values serialized as decimal strings; ``--plain`` prints the bare
integer.  Exit codes: 0 ok, 2 input error, 3 evaluator disagreement.
Under ``--stdin`` every input line gets one output line, in order: its
report, or an error record for a line with an input error, after which
the run goes on (exit 2 at the end); a disagreement stops the run.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from decimal import Decimal

from .expressions import ParseError, parse_monomial, render_monomial
from .forest import eval_loaded_tree, sign_of, to_weighted
from .graphio import tree_to_dot, tree_to_json
from .model import Classification, classify
from .oracle import oracle_eval
from .trees import (
    CrossingFactorsError,
    EmptyNonTrivialError,
    _random_proper_tree,
    monomial_to_tree,
    tree_to_monomial,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISAGREE = 3


class _Disagreement(Exception):
    pass


def _report(text: str, *, use_oracle: bool, check_oracle: bool, trace: bool) -> dict:
    m = parse_monomial(text)
    kind = classify(m)
    report = {
        "input": render_monomial(m),
        "classification": kind.value,
    }
    stages: list | None = [] if trace else None
    if kind in (Classification.ZERO_BY_KEEL, Classification.DEGREE_MISMATCH):
        value = 0
        sign = None
    else:
        t = monomial_to_tree(m)
        sign = sign_of(to_weighted(t))
        if use_oracle:
            value = oracle_eval(t, trace=stages)
        else:
            value = eval_loaded_tree(t, trace=stages)
        if check_oracle:
            other = oracle_eval(t)
            if other != value:
                raise _Disagreement(
                    f"forest value {value} != cut-recursion value {other} "
                    f"for {report['input']}"
                )
    # Decimal's conversion has no digit limit, unlike int -> str.
    report["value"] = str(Decimal(value))
    report["sign"] = sign
    if trace:
        report["stages"] = stages
    return report


def _emit(report: dict, plain: bool):
    if not plain:
        print(json.dumps(report))
    elif "error" in report:
        print(f"error: {report['error']}")
    else:
        print(report["value"])


def _iter_inputs(args) -> list[str]:
    if args.stdin:
        return [line for line in sys.stdin.read().splitlines() if line.strip()]
    if args.file is not None:
        # undecodable bytes become surrogates, which no token matches
        with open(args.file, encoding="utf-8", errors="surrogateescape") as fh:
            return [fh.read()]
    if args.expr is None:
        raise ParseError("no expression given (pass EXPR, --file, or --stdin)", 0)
    return [args.expr]


def _cmd_eval(args, use_oracle: bool) -> int:
    try:
        texts = _iter_inputs(args)
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    code = EXIT_OK
    for text in texts:
        try:
            report = _report(
                text,
                use_oracle=use_oracle,
                check_oracle=getattr(args, "oracle", False),
                trace=args.trace,
            )
        except (ParseError, CrossingFactorsError, EmptyNonTrivialError) as err:
            print(f"error: {err}", file=sys.stderr)
            if not args.stdin:
                return EXIT_INPUT
            code = EXIT_INPUT
            report = {"input": text, "error": str(err), "position": getattr(err, "position", None)}
        except _Disagreement as err:
            print(f"disagreement: {err}", file=sys.stderr)
            return EXIT_DISAGREE
        _emit(report, args.plain)
    return code


def _cmd_tree(args) -> int:
    try:
        m = parse_monomial(args.expr)
        t = monomial_to_tree(m)
    except (ParseError, CrossingFactorsError, EmptyNonTrivialError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "dot":
        print(tree_to_dot(t), end="")
    else:
        print(json.dumps(tree_to_json(t)))
    return EXIT_OK


def _cmd_random(args) -> int:
    if args.n < 3:
        print(f"error: need n >= 3, got {args.n}", file=sys.stderr)
        return EXIT_INPUT
    if args.count < 0:
        print(f"error: need --count >= 0, got {args.count}", file=sys.stderr)
        return EXIT_INPUT
    rng = random.Random(args.seed)
    for _ in range(args.count):
        t = _random_proper_tree(args.n, rng)
        print(render_monomial(tree_to_monomial(t)))
    return EXIT_OK


def _add_eval_args(p: argparse.ArgumentParser):
    p.add_argument("expr", nargs="?", help="monomial expression, e.g. 'n=5; d(1,2|3,4,5)'")
    p.add_argument("--file", help="read one expression from this file")
    p.add_argument("--stdin", action="store_true", help="one expression per stdin line")
    p.add_argument("--plain", action="store_true", help="print the bare integer value")
    p.add_argument("--trace", action="store_true", help="include pipeline stage records")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deltaforest",
        description="Exact integer values of boundary-divisor monomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate with the forest algorithm")
    _add_eval_args(p_eval)
    p_eval.add_argument(
        "--oracle",
        action="store_true",
        help="also run the cut recursion and require agreement",
    )

    p_oracle = sub.add_parser("oracle", help="evaluate with the cut recursion only")
    _add_eval_args(p_oracle)

    p_tree = sub.add_parser("tree", help="serialize the loaded tree of a monomial")
    p_tree.add_argument("expr")
    p_tree.add_argument("--format", choices=("json", "dot"), default="json")

    p_random = sub.add_parser("random", help="emit random proper tree monomials")
    p_random.add_argument("n", type=int)
    p_random.add_argument("--count", type=int, default=1)
    p_random.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args, use_oracle=False)
    if args.command == "oracle":
        return _cmd_eval(args, use_oracle=True)
    if args.command == "tree":
        return _cmd_tree(args)
    return _cmd_random(args)


if __name__ == "__main__":
    sys.exit(main())
