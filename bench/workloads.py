"""The benchmark's workloads: seeded inputs, the calls into spheremcg, and
the correctness gate on every answer.

Every operation carries the value it must produce, known independently of
the program: a relator conjugate is trivial by the group's definition, an
extra half-twist changes the mod-2 twist count, conjugation preserves the
orders proved in the paper, and the index certificates are the paper's
theorems.  A mismatch raises WrongVerdict and aborts the run.  An operation
that hits a limit (enumeration overflow, order cap, automorphism guard)
counts as failed instead.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

from spheremcg import action, cli, coset, presentation
from spheremcg.words import T_LETTER

Word = tuple[int, ...]


class WrongVerdict(Exception):
    """An answer differs from its independently known value."""


@dataclass(frozen=True)
class Op:
    kind: str      # class label used for per-class statistics
    n: int
    args: tuple    # exactly what the program receives
    expected: object


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]      # one round, repeated while the run lasts
    action_ns: tuple[int, ...]  # n whose generator automorphisms the round uses
    probe: Op | None = None  # run once after the timed rounds, not timed with them

    def digest(self) -> str:
        text = repr([(op.kind, op.n, op.args, op.expected) for op in self.ops]
                    + [self.probe and (self.probe.n, self.probe.args)])
        return hashlib.sha256(text.encode()).hexdigest()


# -- independent knowledge ------------------------------------------------

def relators(n: int) -> list[Word]:
    """The defining relators of the extended group, written out here from
    the presentation so that no relator is taken from the program."""
    t = T_LETTER
    rels: list[Word] = [(t, t)]
    rels += [(t, i, t, i) for i in range(1, n)]
    rels += [(i, j, -i, -j) for i in range(1, n) for j in range(i + 2, n)]
    rels += [(i, i + 1, i, -(i + 1), -i, -(i + 1)) for i in range(1, n - 1)]
    rels.append(tuple(range(1, n)) + tuple(range(n - 1, 0, -1)))
    rels.append(tuple(range(1, n)) * n)
    return rels


def invert(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def random_word(rng: random.Random, n: int, length: int) -> Word:
    """Freely reduced word over s1..s(n-1), their inverses and t."""
    letters = [T_LETTER] + [i for i in range(1, n)] + [-i for i in range(1, n)]
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(letters)
        if out and (x == -out[-1] or x == out[-1] == T_LETTER):
            continue
        out.append(x)
    return tuple(out)


def a_word(n: int) -> Word:
    """a = s(n-3) t s1..s(n-1) s(n-3)^-1."""
    return (n - 3, T_LETTER) + tuple(range(1, n)) + (-(n - 3),)


def b_word(n: int) -> Word:
    """b = t s(n-1)^-1 s1..s(n-3) s(n-2)^2."""
    return (T_LETTER, -(n - 1)) + tuple(range(1, n - 2)) + (n - 2, n - 2)


def certificates(n: int) -> tuple[str, ...]:
    """Index-1 certificate ids in an even-n `verify --suite all` report."""
    return (f"n{n}.main.index", "n4.index3gen", "sigma2.generation")


# -- calls into the program -----------------------------------------------

LIMIT = "limit"  # an operation stopped by one of the program's limits


def call(op: Op):
    """Run one operation; module attributes are looked up per call so the
    traced run's wrappers are the ones called."""
    if op.kind.startswith("verify"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.args))
        return code, buf.getvalue()
    if op.kind.startswith("eq-"):
        try:
            return action.equal_with_witness(op.args[0], op.args[1], op.n)[0]
        except action.ResourceLimitError:
            return LIMIT
    if op.kind.startswith("order"):
        try:
            got = action.order_of(op.args[0], op.n)
        except action.ResourceLimitError:
            return LIMIT
        return LIMIT if got is None else got
    pres = presentation.build_presentation(op.n, "extended")
    return coset.enumerate_cosets(pres, op.args)


def judge(op: Op, answer) -> bool:
    """True if the answer is right, False if a limit stopped the operation;
    raises WrongVerdict if the answer is wrong."""
    if op.kind.startswith("verify"):
        return _judge_report(op, *answer)
    if op.kind.startswith(("eq-", "order")):
        if answer == LIMIT:
            return False
        if answer != op.expected:
            raise WrongVerdict(f"{op.kind} at n={op.n}: got {answer!r}, "
                               f"expected {op.expected!r} for {op.args!r}")
        return True
    if answer.status == "overflow":
        return False
    if answer.index != op.expected:
        raise WrongVerdict(f"{op.kind} at n={op.n}: index {answer.index}, "
                           f"expected {op.expected}")
    return True


def _judge_report(op: Op, code: int, text: str) -> bool:
    checks = {c["id"]: c for c in json.loads(text)["checks"]}
    failed = sorted(cid for cid, c in checks.items() if c["status"] == "fail")
    if failed:
        raise WrongVerdict(f"{' '.join(op.args)}: checks failed: {', '.join(failed)}")
    for cid in op.expected:
        c = checks.get(cid)
        if c is None:
            raise WrongVerdict(f"{' '.join(op.args)}: certificate {cid} missing")
        if c["status"] != "overflow" and (c["status"] != "pass" or c["witness"] != 1):
            raise WrongVerdict(f"{cid}: status {c['status']}, witness {c['witness']!r}")
    if code == 2 or any(c["status"] == "overflow" for c in checks.values()):
        return False
    if code != 0:
        raise WrongVerdict(f"{' '.join(op.args)}: exit code {code}")
    return True


# -- workloads -------------------------------------------------------------

def _verify_op(n: int, suite: str, expected: tuple[str, ...] = ()) -> Op:
    label = f"verify.n{n}" if suite == "all" else f"verify.{suite}"
    return Op(label, n, ("verify", "--n", str(n), "--suite", suite, "--machine"), expected)


# even-certify and oracle-deep are fixed certification tasks: the seed
# changes none of their inputs.  Their order is fixed too: shuffling the
# n of even-certify moved its peak resident memory between 96 and 124 MB.

def even_certify(rng: random.Random, tiny: bool) -> Workload:
    ns = (8,) if tiny else (8, 10, 12)
    ops = tuple(_verify_op(n, "all", certificates(n)) for n in ns)
    probe_n = 8 if tiny else 14
    probe = Op("frontier", probe_n, (a_word(probe_n), b_word(probe_n)), 1)
    # `verify --suite all` also runs the n=4 orders, so n=4 is warmed too
    return Workload("even-certify", ops, (4,) + ns, probe)


ORACLE_SUITES = ("presentation", "prop22", "section3", "lemma-y", "lemma-z")


def oracle_deep(rng: random.Random, tiny: bool) -> Workload:
    n = 8 if tiny else 30
    return Workload("oracle-deep", tuple(_verify_op(n, s) for s in ORACLE_SUITES), (n,))


# Share of each query kind in a round.  eq-equal is cheap (the inserted
# conjugate cancels to a short word); the others cost more per call.
QUERY_KINDS = (("eq-equal", 4), ("eq-unequal", 3), ("order-known", 3), ("enum-small", 1))
QUERY_NS = tuple(range(5, 13))
EQUAL_LEN = 10     # base word of eq-equal
UNEQUAL_LEN = 2    # base word of eq-unequal; see README.md for why it is short
CONJ_LEN = 3       # conjugator g in eq-equal and order-known
ENUM_CASES = tuple(("odd", n) for n in (9, 11, 13, 15)) + tuple(("twist", n) for n in QUERY_NS)


def _query(kind: str, k: int, rng: random.Random) -> Op:
    """The k-th query of a kind in a round: k fixes the stratum (puncture
    count and variant), rng draws the words."""
    n, variant = QUERY_NS[k % len(QUERY_NS)], k // len(QUERY_NS)
    if kind == "eq-equal":
        u = random_word(rng, n, EQUAL_LEN)
        g = random_word(rng, n, CONJ_LEN)
        r = rng.choice(relators(n))
        if rng.random() < 0.5:
            r = invert(r)
        cut = rng.randint(0, len(u))
        return Op(kind, n, (u, u[:cut] + g + r + invert(g) + u[cut:]), True)
    if kind == "eq-unequal":
        u = random_word(rng, n, UNEQUAL_LEN)
        return Op(kind, n, (u, u + (rng.randint(1, n - 1),)), False)
    if kind == "order-known":
        g = random_word(rng, n, CONJ_LEN)
        base, order = (
            (tuple(range(1, n)), n),                      # a0
            (tuple(range(1, n - 1)), n - 1),              # a1
            ((T_LETTER,) + tuple(range(1, n)), n if n % 2 == 0 else 2 * n),  # t a0
        )[variant % 3]
        return Op(kind, n, (g + base + invert(g),), order)
    family, m = ENUM_CASES[k % len(ENUM_CASES)]
    if family == "odd":
        subgens = ((T_LETTER, 1), (T_LETTER,) + tuple(range(1, m)))
        return Op("enum-small.odd", m, subgens, 1)
    return Op("enum-small.twist", m, tuple((i,) for i in range(1, m)), 2)


def query_mix(rng: random.Random, tiny: bool) -> Workload:
    """A closed loop with one client.  Kinds and puncture counts are
    stratified (fixed counts per round), the words are random, and the
    order of the round is shuffled."""
    total = 22 if tiny else 1210
    weight = sum(w for _, w in QUERY_KINDS)
    ops = [_query(kind, k, rng)
           for kind, w in QUERY_KINDS for k in range(total * w // weight)]
    rng.shuffle(ops)
    return Workload("query-mix", tuple(ops), QUERY_NS)


WORKLOADS = {"even-certify": even_certify, "oracle-deep": oracle_deep,
             "query-mix": query_mix}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](random.Random(seed), tiny)
