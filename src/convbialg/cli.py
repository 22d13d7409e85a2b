"""Command-line front end.

    convbialg check [--suite NAME] [--model FILE] [--seed N] [--output text|json] [--jobs N]
    convbialg eval EXPR [--model FILE] [--output text|json]
    convbialg demo {kernel-example,cartier-gabriel,etale-iso} [--output text|json]

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error or
any other library error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .coeffs import _clipped, parse_rational
from .conv import conv_mul
from .dist import dist_eval_at
from .errors import ConvBialgError, ParseError
from .models import load_model_doc, model_from_json, pair_model
from .phi import phi as phi_map
from .suites import SUITES, run_all, run_suite
from .textform import parse_conv, parse_dist, split_top

DEMOS = ("kernel-example", "cartier-gabriel", "etale-iso")


def _seed(text):
    return int(text, 0)


def _jobs(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    parse_args reads it and never changes it."""
    p = argparse.ArgumentParser(prog="convbialg",
                                description="convolution bialgebra toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=True):
        sp.add_argument("--model", metavar="PATH", default=None,
                        help="JSON model definition (replaces the builtin of its kind)")
        if seeded:
            sp.add_argument("--seed", type=_seed, default=0xC0FFEE, metavar="U64")
        sp.add_argument("--output", choices=("text", "json"), default="text")

    sp = sub.add_parser("check", help="run invariant suites")
    sp.add_argument("--suite", choices=sorted(SUITES), default=None,
                    help="one suite (default: all)")
    common(sp)
    sp.add_argument("--jobs", type=_jobs, default=1, metavar="N")

    sp = sub.add_parser("eval", help="evaluate an element expression")
    sp.add_argument("expr", help="conv_mul(<a>,<b>) | phi(<a>) | dist_eval(<T>,<F>,<x>)")
    common(sp, seeded=False)

    sp = sub.add_parser("demo", help="run a named scenario")
    sp.add_argument("name", choices=DEMOS)
    common(sp)
    return p


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                default=str) + "\n")


def _load_model(args):
    """The --model document and its model, or (None, None)."""
    if not args.model:
        return None, None
    doc = load_model_doc(args.model)
    return doc, model_from_json(doc)


def _print_checks(report):
    for c in report["checks"]:
        mark = "ok  " if c["pass"] else "FAIL"
        line = f"  [{mark}] {c['name']}"
        if not c["pass"] and c.get("witness"):
            line += f"  -- {c['witness']}"
        print(line)


def cmd_check(args) -> int:
    doc, model = _load_model(args)
    if args.suite:
        models = {model.doc_key: model} if model else None
        report = {"pass": None, "suites": [run_suite(args.suite, seed=args.seed,
                                                     models=models)]}
        report["pass"] = report["suites"][0]["pass"]
    else:
        docs = {model.doc_key: doc} if model else None
        report = run_all(seed=args.seed, docs=docs, jobs=args.jobs)
    if args.output == "json":
        _emit_json(report)
    else:
        for s in report["suites"]:
            print(f"{s['suite']}: {'PASS' if s['pass'] else 'FAIL'}")
            _print_checks(s)
        print(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def _eval_expr(model, expr: str):
    expr = expr.strip()
    for head in ("conv_mul", "phi", "dist_eval"):
        if expr.startswith(head + "(") and expr.endswith(")"):
            argtext = expr[len(head) + 1 : -1]
            parts = [s.strip() for s in split_top(argtext, ",")]
            if head == "conv_mul":
                if len(parts) != 2:
                    raise ParseError("conv_mul takes two arguments")
                return conv_mul(parse_conv(model, parts[0]),
                                parse_conv(model, parts[1])).text()
            if head == "phi":
                if len(parts) != 1:
                    raise ParseError("phi takes one argument")
                return phi_map(parse_conv(model, parts[0])).text()
            if len(parts) != 3:
                raise ParseError("dist_eval takes three arguments")
            T = parse_dist(model, parts[0])
            x = parse_rational(parts[2])
            F = model.parse_test_function(parts[1])
            return str(dist_eval_at(T, F, x))
    raise ParseError(f"unknown expression head in {_clipped(repr(expr))}", 0)


def cmd_eval(args) -> int:
    _, model = _load_model(args)
    value = _eval_expr(model or pair_model(), args.expr)
    if args.output == "json":
        _emit_json({"expr": args.expr, "value": value})
    else:
        print(value)
    return 0


def cmd_demo(args) -> int:
    _, model = _load_model(args)
    models = {model.doc_key: model} if model else None
    report = run_suite(args.name, seed=args.seed, models=models)
    if args.output == "json":
        _emit_json(report)
        return 0 if report["pass"] else 1
    print(f"demo {args.name}: {'PASS' if report['pass'] else 'FAIL'}")
    _print_checks(report)
    if args.name == "kernel-example" and report["pass"]:
        print("a != 0, Phi(a) = 0")
        print("stratification:")
        for stext, classes in report["strata"]:
            groups = " | ".join("{" + ", ".join(cls) + "}" for cls in classes)
            print(f"  {stext:16s} {groups}")
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_demo(args)
    except (ConvBialgError, OSError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
