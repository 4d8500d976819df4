"""Command-line front end: verification suites, ad-hoc equality and
order queries, coset enumeration, and presentation dumps.

Exit codes: 0 pass/equal, 1 fail/not equal, 2 overflow or cap exceeded,
64 usage error, 65 expression parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from .action import equal_in_group, order_of
from .coset import enumerate_cosets
from .harness import SUITES, Limits, Report, full_report
from .homs import abelianization_image, format_gf2, format_perm, perm_image
from .presentation import (
    FLAVORS,
    NAME_HEADS,
    build_presentation,
    format_presentation,
    named_word,
    parse_expression,
)
from .words import ParseError, format_word

USAGE_EXIT = 64
PARSE_EXIT = 65


@dataclass(frozen=True)
class Config:
    n: int | None
    limits: Limits
    output: str


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags, which collides with the overflow
    code; route usage errors to 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


# Limit types for argparse, so a bad limit is a usage error (64) found
# before any work starts.  They are public because argparse names the
# type function when a value does not parse at all.

def positive_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_seconds(text: str) -> float:
    """A time limit; nan would never expire and inf is no limit."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _usage(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return USAGE_EXIT


def _parse_fail(exc: ParseError) -> int:
    sys.stderr.write(f"parse error: {exc}\n")
    return PARSE_EXIT


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


SUITE_TOKENS = tuple(SUITES) + ("all",)


def cmd_verify(config: Config, suite: str, out: str | None = None) -> int:
    n = config.n
    if suite == "all":
        if n is None:
            return _usage("--n is required for --suite all")
        report = full_report([n], config.limits)
    else:
        runner, applies = SUITES[suite]
        if applies is None:
            if n is not None:
                return _usage(f"suite {suite} takes no --n")
            checks = runner(config.limits)
        elif n is None:
            return _usage(f"--n is required for --suite {suite}")
        elif not applies(n):
            return _usage(f"suite {suite} does not apply at n={n}")
        else:
            checks = runner(n, config.limits)
        report = Report(tuple(sorted(checks, key=lambda c: c.id)))
    if out is not None:
        _write_atomic(out, report.to_json() + "\n")
    if config.output == "machine":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.human() + "\n")
    return report.exit_code


def cmd_eval(config: Config, left: str, right: str) -> int:
    n = config.n
    try:
        u = parse_expression(left, n)
        v = parse_expression(right, n)
    except ParseError as exc:
        return _parse_fail(exc)
    equal = equal_in_group(u, v, n, config.limits.aut_guard)
    print(f"equal: {'yes' if equal else 'no'}")
    print(f"perm: {format_perm(perm_image(u, n))} vs {format_perm(perm_image(v, n))}")
    pu, pv = abelianization_image(u), abelianization_image(v)
    print(f"psi: {format_gf2(pu)} vs {format_gf2(pv)}")
    return 0 if equal else 1


def cmd_order(config: Config, expr: str) -> int:
    n = config.n
    try:
        word = parse_expression(expr, n)
    except ParseError as exc:
        return _parse_fail(exc)
    cap = config.limits.order_cap if config.limits.order_cap is not None else 4 * n
    got = order_of(word, n, cap, config.limits.aut_guard)
    if got is None:
        print(f"exceeds cap {cap}")
        return 2
    print(got)
    return 0


def cmd_enumerate(config: Config, flavor: str, subgroup: str | None) -> int:
    n = config.n
    try:
        subgens = tuple(parse_expression(part, n)
                        for part in (subgroup.split(",") if subgroup else ())
                        if part.strip())
    except ParseError as exc:
        return _parse_fail(exc)
    pres = build_presentation(n, flavor)
    try:
        result = enumerate_cosets(pres, subgens, config.limits.max_cosets,
                                  config.limits.max_time)
    except ValueError as exc:
        return _usage(str(exc))
    s = result.stats
    if result.status == "overflow":
        print("OVERFLOW")
        print(f"stats: defined={s.defined} max_alive={s.max_alive} "
              f"collapses={s.collapses} seconds={s.seconds:.2f}")
        return 2
    print(f"index {result.index}")
    print(f"stats: defined={s.defined} max_alive={s.max_alive} "
          f"collapses={s.collapses} seconds={s.seconds:.2f}")
    return 0


def cmd_dump(config: Config, flavor: str) -> int:
    pres = build_presentation(config.n, flavor)
    print(format_presentation(pres))
    for name in NAME_HEADS:
        try:
            print(f"{name} = {format_word(named_word(name, config.n))}")
        except ParseError:
            pass
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="spheremcg",
                     description="verification toolkit for sphere braid quotients")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, need_n=False):
        p.add_argument("--n", type=int, required=need_n,
                       help="number of punctures")
        p.add_argument("--max-cosets", type=positive_count, default=10**6)
        p.add_argument("--max-time", type=positive_seconds, default=60.0)
        p.add_argument("--order-cap", type=positive_count, default=None)

    verify = sub.add_parser("verify", help="run a verification suite")
    common(verify)
    verify.add_argument("--suite", choices=SUITE_TOKENS, default="all")
    verify.add_argument("--machine", action="store_true",
                        help="emit the JSON report on stdout")
    verify.add_argument("--out", default=None,
                        help="also write the JSON report to this path")

    ev = sub.add_parser("eval", help="decide equality of two expressions")
    common(ev, need_n=True)
    ev.add_argument("left")
    ev.add_argument("right")

    order = sub.add_parser("order", help="order of an expression")
    common(order, need_n=True)
    order.add_argument("expr")

    enum = sub.add_parser("enumerate", help="coset enumeration")
    common(enum, need_n=True)
    enum.add_argument("--subgroup", default=None,
                      help="comma-separated generator expressions")

    dump = sub.add_parser("dump", help="print the presentation and named words")
    common(dump, need_n=True)
    for p in (enum, dump):
        p.add_argument("--flavor", choices=FLAVORS, default="extended")
    return parser


def _config(args) -> Config:
    limits = Limits(max_cosets=args.max_cosets, max_time=args.max_time,
                    order_cap=args.order_cap)
    output = "machine" if getattr(args, "machine", False) else "human"
    return Config(n=args.n, limits=limits, output=output)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    config = _config(args)
    if config.n is not None and config.n < 3:
        return _usage(f"need n >= 3, got {config.n}")
    if args.command == "verify":
        return cmd_verify(config, args.suite, args.out)
    if args.command == "eval":
        return cmd_eval(config, args.left, args.right)
    if args.command == "order":
        return cmd_order(config, args.expr)
    if args.command == "enumerate":
        return cmd_enumerate(config, args.flavor, args.subgroup)
    if args.command == "dump":
        return cmd_dump(config, args.flavor)
    return _usage(f"unknown command {args.command}")
