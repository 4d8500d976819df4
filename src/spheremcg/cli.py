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
from .harness import (
    Limits,
    Report,
    full_report,
    verify_lemma_y,
    verify_lemma_z,
    verify_main_even,
    verify_n4,
    verify_odd,
    verify_presentation,
    verify_prop22,
    verify_section3,
    verify_sigma2,
)
from .homs import abelianization_image, format_gf2, format_perm, perm_image
from .presentation import (
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
    flavor: str
    limits: Limits
    output: str
    seed: int


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


# suite token -> (runner, n requirement); None n-requirement means the
# suite ignores --n entirely
_N_SUITES = {
    "presentation": (verify_presentation, lambda n: n >= 3),
    "prop22": (verify_prop22, lambda n: n >= 4),
    "section3": (verify_section3, lambda n: n >= 4),
    "lemma-y": (verify_lemma_y, lambda n: n >= 6 and n % 2 == 0),
    "lemma-z": (verify_lemma_z, lambda n: n >= 6 and n % 2 == 0),
    "main": (verify_main_even, lambda n: n >= 6 and n % 2 == 0),
    "odd": (verify_odd, lambda n: n >= 5 and n % 2 == 1),
}
_FREE_SUITES = {"n4": verify_n4, "sigma2": verify_sigma2}
SUITE_TOKENS = tuple(_N_SUITES) + tuple(_FREE_SUITES) + ("all",)


def cmd_verify(config: Config, suite: str, out: str | None = None) -> int:
    if suite == "all":
        if config.n is None:
            return _usage("--n is required for --suite all")
        if config.n < 3:
            return _usage(f"need n >= 3, got {config.n}")
        report = full_report([config.n], config.limits)
    elif suite in _FREE_SUITES:
        report = Report(tuple(sorted(_FREE_SUITES[suite](config.limits, {}),
                                     key=lambda c: c.id)))
    else:
        runner, fits = _N_SUITES[suite]
        if config.n is None:
            return _usage(f"--n is required for --suite {suite}")
        if not fits(config.n):
            return _usage(f"suite {suite} does not apply at n={config.n}")
        report = Report(tuple(sorted(runner(config.n, config.limits),
                                     key=lambda c: c.id)))
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


def cmd_enumerate(config: Config, subgroup: str | None) -> int:
    n = config.n
    try:
        subgens = tuple(parse_expression(part, n)
                        for part in (subgroup.split(",") if subgroup else ())
                        if part.strip())
    except ParseError as exc:
        return _parse_fail(exc)
    pres = build_presentation(n, config.flavor)
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


def cmd_dump(config: Config) -> int:
    pres = build_presentation(config.n, config.flavor)
    print(format_presentation(pres))
    for name in ("a0", "a1", "a2", "a", "b", "y", "z", "w", "c", "phi"):
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
        p.add_argument("--flavor", choices=("oriented", "extended"),
                       default="extended")
        p.add_argument("--max-cosets", type=positive_count, default=10**6)
        p.add_argument("--max-time", type=positive_seconds, default=60.0)
        p.add_argument("--order-cap", type=positive_count, default=None)
        p.add_argument("--seed", type=int, default=0,
                       help="reserved for sampled checks")

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
    return parser


def _config(args) -> Config:
    limits = Limits(max_cosets=args.max_cosets, max_time=args.max_time,
                    order_cap=args.order_cap)
    output = "machine" if getattr(args, "machine", False) else "human"
    return Config(n=args.n, flavor=args.flavor, limits=limits,
                  output=output, seed=args.seed)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    config = _config(args)
    if config.n is not None and config.n < 3 and args.command != "verify":
        return _usage(f"need n >= 3, got {config.n}")
    if args.command == "verify":
        return cmd_verify(config, args.suite, args.out)
    if args.command == "eval":
        return cmd_eval(config, args.left, args.right)
    if args.command == "order":
        return cmd_order(config, args.expr)
    if args.command == "enumerate":
        return cmd_enumerate(config, args.subgroup)
    if args.command == "dump":
        return cmd_dump(config)
    return _usage(f"unknown command {args.command}")
