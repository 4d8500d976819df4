"""Command-line front end: verification suites, ad-hoc equality and
order queries, coset enumeration, and presentation dumps.

Exit codes: 0 pass/equal, 1 fail/not equal, 2 overflow, cap exceeded or
a tripped letter guard, 64 usage error, 65 expression parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import IO

from .action import ResourceLimitError, default_order_cap, equal_with_witness, order_of
from .coset import enumerate_cosets
from .harness import SUITES, Limits, full_report
from .homs import abelianization_image, format_gf2, format_perm, perm_image
from .presentation import (
    FLAVORS,
    build_presentation,
    format_presentation,
    named_word,
    names_at,
    parse_expression,
    parse_expressions,
)
from .words import ParseError, ascii_int, format_word, require_punctures

USAGE_EXIT = 64
PARSE_EXIT = 65


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags, which collides with the overflow
    code; route usage errors to 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


# Number types for argparse, so a bad number is a usage error (64) found
# before any work starts.  Numbers are written in ASCII digits, the rule
# of the expression parser too; int() and float() alone would also read
# other Unicode digits and underscores.  They are public because
# argparse names the type function when a value does not parse at all.

def integer(text: str) -> int:
    value = ascii_int(text, signed=True)
    if value is None:
        raise argparse.ArgumentTypeError(f"not an integer in ASCII digits: {text!r}")
    return value


def positive_count(text: str) -> int:
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_seconds(text: str) -> float:
    """A time limit; nan would never expire and inf is no limit."""
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"not a number in ASCII digits: {text!r}")
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _reserve(path: str) -> tuple[IO[str], str, int]:
    """A temporary file beside path, open for writing, its name, and the
    mode open(path, "w") would give path: the report is written there
    and renamed over path, so path changes whole or not at all."""
    umask = os.umask(0)  # setting the umask is the only way to read it
    os.umask(umask)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".report-")
    return os.fdopen(fd, "w"), tmp, mode


SUITE_TOKENS = tuple(SUITES) + ("all",)


def cmd_verify(n: int | None, limits: Limits, suite: str, machine: bool = False,
               out: str | None = None) -> int:
    if out is not None and not os.path.basename(out):
        raise ValueError(f"cannot write --out: no file name in {out!r}")
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ValueError(f"cannot write --out: no directory for {out}")
    if out is not None and os.path.isdir(out):
        raise ValueError(f"cannot write --out: {out} is a directory")
    try:  # reserved before any suite runs, so a bad path costs no work
        reserved = _reserve(out) if out is not None else None
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from None
    try:
        report = full_report(suite, n, limits)
        if reserved:
            fh, tmp, mode = reserved
            try:
                with fh:
                    fh.write(report.to_json() + "\n")
                    os.fchmod(fh.fileno(), mode)  # mkstemp made it 0600
                os.replace(tmp, out)
            except OSError as exc:
                raise ValueError(f"cannot write --out: {exc}") from None
    except BaseException:
        if reserved:
            reserved[0].close()
            try:
                os.unlink(reserved[1])
            except OSError:
                pass
        raise
    sys.stdout.write((report.to_json() if machine else report.human()) + "\n")
    return report.exit_code


def cmd_eval(n: int, limits: Limits, left: str, right: str) -> int:
    u = parse_expression(left, n)
    v = parse_expression(right, n)
    equal = equal_with_witness(u, v, n, limits.aut_guard)[0]
    print(f"equal: {'yes' if equal else 'no'}")
    print(f"perm: {format_perm(perm_image(u, n))} vs {format_perm(perm_image(v, n))}")
    pu, pv = abelianization_image(u), abelianization_image(v)
    print(f"psi: {format_gf2(pu)} vs {format_gf2(pv)}")
    return 0 if equal else 1


def cmd_order(n: int, limits: Limits, expr: str, cap: int | None) -> int:
    word = parse_expression(expr, n)
    cap = cap or default_order_cap(n)
    got = order_of(word, n, cap, limits.aut_guard)
    if got is None:
        print(f"exceeds cap {cap}")
        return 2
    print(got)
    return 0


def cmd_enumerate(n: int, limits: Limits, flavor: str, subgroup: str | None) -> int:
    subgens = parse_expressions([part for part in (subgroup or "").split(",") if part.strip()], n)
    pres = build_presentation(n, flavor)
    result = enumerate_cosets(pres, subgens, limits.max_cosets, limits.max_time)
    overflow = result.status == "overflow"
    print(f"OVERFLOW: {result.reason}" if overflow else f"index {result.index}")
    print(f"stats: {result.stats.counts()} seconds={result.stats.seconds:.2f}")
    return 2 if overflow else 0


def cmd_dump(n: int, flavor: str) -> int:
    pres = build_presentation(n, flavor)
    print(format_presentation(pres))
    alphabet = pres.alphabet()
    for name in names_at(n):
        word = named_word(name, n)
        if alphabet.issuperset(word):
            print(f"{name} = {format_word(word)}")
    return 0


# Each limit flag with its type, read by verify and enumerate and refused
# by the other subcommands; a flag left out keeps its Limits default.
LIMIT_FLAGS = {
    "max_cosets": ("--max-cosets", positive_count),
    "max_time": ("--max-time", positive_seconds),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="spheremcg",
                     description="verification toolkit for sphere braid quotients")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name, summary, need_n=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--n", type=integer, required=need_n,
                       help="number of punctures")
        return p

    verify = command("verify", "run a verification suite", need_n=False)
    verify.add_argument("--suite", choices=SUITE_TOKENS, default="all")
    verify.add_argument("--machine", action="store_true",
                        help="emit the JSON report on stdout")
    verify.add_argument("--out", default=None,
                        help="also write the JSON report to this path")

    ev = command("eval", "decide equality of two expressions")
    ev.add_argument("left")
    ev.add_argument("right")

    order = command("order", "order of an expression")
    order.add_argument("--order-cap", type=positive_count, default=None)
    order.add_argument("expr")

    enum = command("enumerate", "coset enumeration")
    enum.add_argument("--subgroup", default=None,
                      help="comma-separated generator expressions")

    dump = command("dump", "print the presentation and named words")
    for p in (verify, enum):
        for flag, kind in LIMIT_FLAGS.values():
            p.add_argument(flag, type=kind, default=argparse.SUPPRESS)
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
    limits = Limits(**{k: v for k, v in vars(args).items() if k in LIMIT_FLAGS})
    try:
        if n is not None:
            require_punctures(n)
        if args.command == "verify":
            return cmd_verify(n, limits, args.suite, args.machine, args.out)
        if args.command == "eval":
            return cmd_eval(n, limits, args.left, args.right)
        if args.command == "order":
            return cmd_order(n, limits, args.expr, args.order_cap)
        if args.command == "enumerate":
            return cmd_enumerate(n, limits, args.flavor, args.subgroup)
        return cmd_dump(n, args.flavor)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return PARSE_EXIT
    except ValueError as exc:  # a refused input: n, suite range, subgroup letter or --out
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except ResourceLimitError as exc:  # verify reports a trip inside a check as a row
        print(f"inconclusive: {exc}")
        return 2
