"""Command-line front end: verification suites, ad-hoc equality and
order queries, coset enumeration, and presentation dumps.

Exit codes: 0 pass/equal, 1 fail/not equal, 2 overflow, cap exceeded or
a tripped automorphism guard, 64 usage error, 65 expression parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .action import ResourceLimitError, equal_in_group, order_of
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
from .words import T_LETTER, ParseError, format_word

USAGE_EXIT = 64
PARSE_EXIT = 65


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


def cmd_verify(n: int | None, limits: Limits, suite: str, machine: bool = False,
               out: str | None = None) -> int:
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        return _usage(f"cannot write --out: no directory for {out}")
    if suite == "all":
        if n is None:
            return _usage("--n is required for --suite all")
        report = full_report([n], limits)
    else:
        runner, applies = SUITES[suite]
        if applies is None:
            if n is not None:
                return _usage(f"suite {suite} takes no --n")
            checks = runner(limits)
        elif n is None:
            return _usage(f"--n is required for --suite {suite}")
        elif not applies(n):
            return _usage(f"suite {suite} does not apply at n={n}")
        else:
            checks = runner(n, limits)
        report = Report(tuple(sorted(checks, key=lambda c: c.id)))
    if out is not None:
        try:
            _write_atomic(out, report.to_json() + "\n")
        except OSError as exc:
            return _usage(f"cannot write --out: {exc}")
    if machine:
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.human() + "\n")
    return report.exit_code


def cmd_eval(n: int, limits: Limits, left: str, right: str) -> int:
    try:
        u = parse_expression(left, n)
        v = parse_expression(right, n)
    except ParseError as exc:
        return _parse_fail(exc)
    equal = equal_in_group(u, v, n, limits.aut_guard)
    print(f"equal: {'yes' if equal else 'no'}")
    print(f"perm: {format_perm(perm_image(u, n))} vs {format_perm(perm_image(v, n))}")
    pu, pv = abelianization_image(u), abelianization_image(v)
    print(f"psi: {format_gf2(pu)} vs {format_gf2(pv)}")
    return 0 if equal else 1


def cmd_order(n: int, limits: Limits, expr: str) -> int:
    try:
        word = parse_expression(expr, n)
    except ParseError as exc:
        return _parse_fail(exc)
    cap = limits.order_cap if limits.order_cap is not None else 4 * n
    got = order_of(word, n, cap, limits.aut_guard)
    if got is None:
        print(f"exceeds cap {cap}")
        return 2
    print(got)
    return 0


def cmd_enumerate(n: int, limits: Limits, flavor: str, subgroup: str | None) -> int:
    try:
        subgens = tuple(parse_expression(part, n)
                        for part in (subgroup.split(",") if subgroup else ())
                        if part.strip())
    except ParseError as exc:
        return _parse_fail(exc)
    pres = build_presentation(n, flavor)
    try:
        result = enumerate_cosets(pres, subgens, limits.max_cosets, limits.max_time)
    except ValueError as exc:
        return _usage(str(exc))
    s = result.stats
    overflow = result.status == "overflow"
    print("OVERFLOW" if overflow else f"index {result.index}")
    print(f"stats: defined={s.defined} max_alive={s.max_alive} "
          f"collapses={s.collapses} seconds={s.seconds:.2f}")
    return 2 if overflow else 0


def cmd_dump(n: int, flavor: str) -> int:
    pres = build_presentation(n, flavor)
    print(format_presentation(pres))
    for name in NAME_HEADS:
        try:
            print(f"{name} = {format_word(named_word(name, n))}")
        except ParseError:
            pass
    return 0


# Each limit flag with its type; a subcommand takes only the flags it
# reads, and a flag left out keeps its Limits default.
LIMIT_FLAGS = {
    "max_cosets": ("--max-cosets", positive_count),
    "max_time": ("--max-time", positive_seconds),
    "order_cap": ("--order-cap", positive_count),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="spheremcg",
                     description="verification toolkit for sphere braid quotients")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name, summary, limits=(), need_n=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--n", type=int, required=need_n,
                       help="number of punctures")
        for limit in limits:
            flag, kind = LIMIT_FLAGS[limit]
            p.add_argument(flag, type=kind, default=argparse.SUPPRESS)
        return p

    verify = command("verify", "run a verification suite", LIMIT_FLAGS, need_n=False)
    verify.add_argument("--suite", choices=SUITE_TOKENS, default="all")
    verify.add_argument("--machine", action="store_true",
                        help="emit the JSON report on stdout")
    verify.add_argument("--out", default=None,
                        help="also write the JSON report to this path")

    ev = command("eval", "decide equality of two expressions")
    ev.add_argument("left")
    ev.add_argument("right")

    order = command("order", "order of an expression", ("order_cap",))
    order.add_argument("expr")

    enum = command("enumerate", "coset enumeration", ("max_cosets", "max_time"))
    enum.add_argument("--subgroup", default=None,
                      help="comma-separated generator expressions")

    dump = command("dump", "print the presentation and named words")
    for p in (enum, dump):
        p.add_argument("--flavor", choices=FLAVORS, default="extended")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    n = args.n
    if n is not None and n < 3:
        return _usage(f"need n >= 3, got {n}")
    if n is not None and n > T_LETTER:
        # s<k> with k = T_LETTER would read as the reflection letter
        return _usage(f"need n <= {T_LETTER}, got {n}")
    limits = Limits(**{k: v for k, v in vars(args).items() if k in LIMIT_FLAGS})
    if args.command == "verify":
        return cmd_verify(n, limits, args.suite, args.machine, args.out)
    try:
        if args.command == "eval":
            return cmd_eval(n, limits, args.left, args.right)
        if args.command == "order":
            return cmd_order(n, limits, args.expr)
    except ResourceLimitError as exc:  # verify reports a trip as an overflow row
        print(f"inconclusive: {exc}")
        return 2
    if args.command == "enumerate":
        return cmd_enumerate(n, limits, args.flavor, args.subgroup)
    if args.command == "dump":
        return cmd_dump(n, args.flavor)
    return _usage(f"unknown command {args.command}")
