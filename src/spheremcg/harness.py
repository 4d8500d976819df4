"""Verification suites: every displayed identity, order, and generation
claim replayed as a machine-checked assertion.

Each check returns an exact discrete verdict (group equality through the
free-group action, an integer order, an integer coset index, a matrix or
GF2 identity).  An equality check passes only if the oracle says "equal",
and the oracle says so only for a difference that the puncture
permutation and the mod-2 abelianization both kill, so no pass can
contradict either quotient.

Check ids are stable strings (suite-scoped, e.g. "n6.lemY.x2") meant for
diffing reports across versions; statements carry the mathematical claim.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .action import (CONVENTION, ResourceLimitError, _gen_auts, equal_with_witness,
                     order_of)
from .coset import enumerate_cosets
from .homs import (
    MAT_ID,
    _pgl2_gens,
    abelianization_image,
    format_gf2,
    format_mat2,
    gf2_rank,
    mat_inv,
    mat_mul,
    mat_neg,
    pgl2_image,
    proj_eq,
    span_gf2,
    validate_hom,
)
from .presentation import build_presentation, named_word
from .words import EPSILON, T_LETTER, Word, concat, format_word, invert, power

VERSION = "0.1.0"

STATUSES = ("pass", "fail", "overflow")


@dataclass(frozen=True)
class CheckResult:
    id: str
    statement: str
    status: str
    witness: str | int | None
    millis: int
    # an overflow here still lets the report pass (best-effort index checks)
    tolerated: bool = False


@dataclass(frozen=True)
class Limits:
    max_cosets: int = 10**6
    max_time: float = 60.0
    aut_guard: int = 10**6
    order_cap: int | None = None


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        if any(c.status == "overflow" and not c.tolerated for c in self.checks):
            return "overflow"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "overflow": 2}[self.overall]

    def to_json(self) -> str:
        payload = {
            "version": VERSION,
            "checks": [
                {"id": c.id, "statement": c.statement, "status": c.status,
                 "witness": c.witness, "millis": c.millis}
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2)

    def human(self) -> str:
        width = max((len(c.id) for c in self.checks), default=2)
        lines = [
            f"{c.status.upper():8} {c.id:{width}}  {c.statement}"
            + (f"  [{c.witness}]" if c.witness not in (None, "") else "")
            for c in self.checks
        ]
        counts = {s: sum(1 for c in self.checks if c.status == s) for s in STATUSES}
        summary = "  ".join(f"{s}={counts[s]}" for s in STATUSES if counts[s])
        lines.append(f"overall: {self.overall}  ({summary})")
        return "\n".join(lines)


class _Recorder:
    """Runs one suite's checks under the run's limits; every check,
    index checks included, computes its own verdict."""

    def __init__(self, limits: Limits | None):
        self.limits = limits or Limits()
        self.checks: list[CheckResult] = []

    def run(self, check_id: str, statement: str, body, tolerated: bool = False) -> None:
        t0 = time.perf_counter()
        try:
            status, witness = body()
        except ResourceLimitError:
            status, witness = "overflow", "automorphism length guard"
        except Exception as exc:  # a crashed check is a failed check
            status, witness = "fail", f"error: {exc!r}"
        millis = int((time.perf_counter() - t0) * 1000)
        self.checks.append(CheckResult(check_id, statement, status, witness, millis,
                                       tolerated))

    def eq(self, check_id: str, statement: str, lhs: Word, rhs: Word, n: int) -> None:
        def body():
            ok, conj = equal_with_witness(lhs, rhs, n, self.limits.aut_guard)
            return ("pass", format_word(conj) or "exact") if ok else ("fail", None)

        self.run(check_id, statement, body)

    def order(self, check_id: str, statement: str, word: Word, n: int,
              expected: int) -> None:
        cap = self.limits.order_cap

        def body():
            got = order_of(word, n, cap, self.limits.aut_guard)
            return ("pass", got) if got == expected else ("fail", got)

        self.run(check_id, statement, body)

    def index(self, check_id: str, statement: str, n: int, subgens: tuple[Word, ...],
              expected: int) -> None:
        def body():
            result = enumerate_cosets(build_presentation(n, "extended"), subgens,
                                      self.limits.max_cosets, self.limits.max_time)
            if result.status == "overflow":
                s = result.stats
                return "overflow", (f"defined={s.defined} max_alive={s.max_alive} "
                                    f"collapses={s.collapses}")
            return ("pass" if result.index == expected else "fail"), result.index

        # enumeration overflow is acceptable only for the best-effort range
        self.run(check_id, statement, body, tolerated=n > 6)


def verify_presentation(n: int, limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """All relators act trivially; invariant assignments kill all relators.

    The relator rows read the conjugators of the one relator validation
    in _gen_auts, so each relator is evaluated once per n."""
    _require("presentation", n)
    rec = _Recorder(limits)
    for flavor in ("oriented", "extended"):
        pres = build_presentation(n, flavor)
        for label in pres.labels:
            def relator_body(label=label):
                return "pass", format_word(_gen_auts(n).witnesses[label]) or "exact"

            rec.run(f"n{n}.pres.{flavor}.{label}",
                    f"relator {label} is trivial (n={n}, {flavor})",
                    relator_body)

        def conv_body():
            _gen_auts(n)  # raises unless every relator acts trivially
            return "pass", CONVENTION

        rec.run(f"n{n}.pres.{flavor}.convention",
                f"selected generator convention satisfies all relators (n={n}, {flavor})",
                conv_body)
        for kind in ("perm", "psi"):
            def hom_body(pres=pres, kind=kind):
                results = validate_hom(pres, kind)
                bad = [label for label, ok in results if not ok]
                return ("pass", f"{len(results)} relators") if not bad else ("fail", ", ".join(bad))

            rec.run(f"n{n}.pres.hom.{flavor}.{kind}",
                    f"{kind} assignment kills every relator (n={n}, {flavor})",
                    hom_body)
    return tuple(rec.checks)


def verify_prop22(n: int, limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """Orders of the rotations, the boundary inverse form, and the
    half-twist and rotation conjugation rules."""
    _require("prop22", n)
    rec = _Recorder(limits)
    for j in range(3):
        word = named_word(f"a{j}", n)
        rec.order(f"n{n}.prop22.order.a{j}", f"order(a{j}) = {n - j} at n={n}",
                  word, n, n - j)
    lhs = invert(tuple(range(1, n - 1)) + (n - 1, n - 1))
    rec.eq(f"n{n}.prop22.inverse_form",
           f"(s1..s{n - 2} s{n - 1}^2)^-1 = s{n - 2}..s1 (n={n})",
           lhs, tuple(range(n - 2, 0, -1)), n)
    phi = named_word("phi", n)
    for i in range(1, n - 1):
        rec.eq(f"n{n}.prop22.phi.i{i}",
               f"phi s{i} phi^-1 = s{n - 1 - i} (n={n})",
               concat(phi, (i,), invert(phi)), (n - 1 - i,), n)
    for j in range(3):
        rot = named_word(f"a{j}", n)
        for i in range(1, n - 1 - j):
            rec.eq(f"n{n}.prop22.shift.a{j}.i{i}",
                   f"a{j} s{i} a{j}^-1 = s{i + 1} (n={n})",
                   concat(rot, (i,), invert(rot)), (i + 1,), n)
    return tuple(rec.checks)


def verify_section3(n: int, limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """Reflection interactions with the rotations and the resulting orders."""
    _require("section3", n)
    rec = _Recorder(limits)
    t = (T_LETTER,)
    a0 = named_word("a0", n)
    a2 = named_word("a2", n)
    rec.eq(f"n{n}.sec3.reflect_a0", f"t a0 t = a0 (n={n})",
           concat(t, a0, t), a0, n)
    for k in range(n // 2 + 1):
        word = concat(t, tuple(range(1, 2 * k, 2)))
        rec.eq(f"n{n}.sec3.invol.k{k}",
               f"(t s1 s3 .. s{2 * k - 1})^2 = 1 (n={n}, k={k})" if k
               else f"t^2 = 1 (n={n})",
               concat(word, word), EPSILON, n)
    ts = concat(t, (-(n - 1),))
    rec.eq(f"n{n}.sec3.commute_a2", f"t s{n - 1}^-1 commutes with a2 (n={n})",
           concat(ts, a2), concat(a2, ts), n)
    rec.order(f"n{n}.sec3.order.ta0",
              f"order(t a0) = {n if n % 2 == 0 else 2 * n} (n={n})",
              concat(t, a0), n, n if n % 2 == 0 else 2 * n)
    rec.order(f"n{n}.sec3.order.tsa2",
              f"order(t s{n - 1}^-1 a2) = {n - 2 if n % 2 == 0 else 2 * (n - 2)} (n={n})",
              concat(ts, a2), n, n - 2 if n % 2 == 0 else 2 * (n - 2))
    return tuple(rec.checks)


def _gamma_in_ab(j: int, n: int, x4_ab: Word, a: Word) -> Word:
    """The odd-index triple product with subscript j as a word in a, b,
    conjugating the chain output by the even rotation power that shifts
    subscripts from n-5 to j."""
    m = ((j - n + 5) // 2) % (n // 2)
    return concat(power(a, 2 * m), x4_ab, power(a, -2 * m))


def _chain(a: Word, b: Word) -> tuple[Word, ...]:
    """The five-step chain x0 .. x4 from b^-2 a b, as words in a and b."""
    x0 = concat(invert(b), invert(b), a, b)
    x1 = concat(x0, a, invert(x0))
    x2 = concat(x1, invert(a))
    x3 = concat(x2, invert(b))
    x4 = concat(x3, a)
    return x0, x1, x2, x3, x4


def verify_lemma_y(n: int, limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """The five-step chain from b^-2 a b down to a triple product, the
    even-power shift closing the odd-index cycle, and the product
    assembling s1 s3 .. s(n-1) from subgroup words."""
    _require("lemma-y", n)
    rec = _Recorder(limits)
    a = named_word("a", n)
    a0 = named_word("a0", n)
    x0, x1, x2, x3, x4 = _chain(a, named_word("b", n))
    x0_s = (-(n - 2), -(n - 3), n - 5, n - 4, n - 2)
    sigma_forms = {
        "x0": (x0, x0_s),
        "x1": (x1, concat(x0_s, (n - 3, n - 2, n - 1, n - 3, n - 4,
                                 -(n - 2), -(n - 1), T_LETTER), a0)),
        "x2": (x2, (n - 5, -(n - 2), -(n - 3), n - 2, n - 2, n - 3, n - 4, -(n - 1))),
        "x3": (x3, concat((n - 5, n - 3, n - 3, n - 4, -(n - 1)),
                          invert(a0), (T_LETTER,))),
        "x4": (x4, (n - 5, n - 3, -(n - 1))),
    }
    for name, (ab_side, sigma_side) in sigma_forms.items():
        rec.eq(f"n{n}.lemY.{name}",
               f"{name} chain line matches its twist form (n={n})",
               ab_side, sigma_side, n)
    a2w = concat(a, a)
    for j in range(1, n, 2):
        nxt = (j + 2) % n
        rec.eq(f"n{n}.lemY.gshift.g{j}",
               f"a^2 (s{j} s{(j + 2) % n} s{(j + 4) % n}^-1) a^-2 shifts the subscript by 2 (n={n})",
               concat(a2w, named_word(f"g{j}", n), invert(a2w)),
               named_word(f"g{nxt}", n), n)
    y_ab = concat(*(_gamma_in_ab(j, n, x4, a) for j in range(1, n, 2)))
    rec.eq(f"n{n}.lemY.product",
           f"product of the odd-index triples equals s1 s3 .. s{n - 1} (n={n})",
           y_ab, named_word("y", n), n)
    return tuple(rec.checks)


def verify_lemma_z(n: int, limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """The ab normal forms, the shift of the adjacent triple products,
    their telescoping product, and the power landing on z."""
    _require("lemma-z", n)
    rec = _Recorder(limits)
    a = named_word("a", n)
    b = named_word("b", n)
    a0 = named_word("a0", n)
    ab = concat(a, b)
    rot2 = power(concat(a0, (-(n - 1),)), 2)
    rec.eq(f"n{n}.lemZ.ab_form",
           f"ab = (a0 s{n - 1}^-1)^2 s{n - 5} s{n - 4} s{n - 2} (n={n})",
           ab, concat(rot2, (n - 5, n - 4, n - 2)), n)
    for k in range(1, n - 6):
        rec.eq(f"n{n}.lemZ.dshift.k{k}",
               f"(a0 s{n - 1}^-1)^2 moves the triple s{k} s{k + 1} s{k + 3} up by 2 (n={n})",
               concat(rot2, named_word(f"d{k}", n)),
               concat(named_word(f"d{k + 2}", n), rot2), n)
    rec.eq(f"n{n}.lemZ.ab_cycled",
           f"ab = s{n - 3} s{n - 2} s1 (a0 s{n - 1}^-1)^2 (n={n})",
           ab, concat((n - 3, n - 2, 1), rot2), n)
    dprod = concat(*(named_word(f"d{k}", n) for k in range(1, n - 4, 2)))
    rec.eq(f"n{n}.lemZ.dproduct",
           f"triple products telescope onto a0 s{n - 1}^-1 s{n - 2}^-1 s{n - 3}^-1 s1^-1 z (n={n})",
           dprod,
           concat(a0, (-(n - 1), -(n - 2), -(n - 3), -1), named_word("z", n)), n)
    rec.eq(f"n{n}.lemZ.power",
           f"(ab)^{n // 2 - 1} = s1 s3 .. s{n - 5} s{n - 2} (n={n})",
           power(ab, n // 2 - 1), named_word("z", n), n)
    rec.order(f"n{n}.lemZ.order.a1", f"order(a1) = {n - 1} (n={n})",
              named_word("a1", n), n, n - 1)
    return tuple(rec.checks)


def verify_main_even(n: int, limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """The closing identities of the even-n generation proof and the
    enumeration certificate itself."""
    _require("main", n)
    rec = _Recorder(limits)
    a = named_word("a", n)
    b = named_word("b", n)
    a0 = named_word("a0", n)
    x4_ab = _chain(a, b)[4]
    y_ab = concat(*(_gamma_in_ab(j, n, x4_ab, a) for j in range(1, n, 2)))
    z_ab = power(concat(a, b), n // 2 - 1)
    g_ab = _gamma_in_ab((n - 3) % n, n, x4_ab, a)
    w_ab = concat(invert(z_ab), y_ab, invert(g_ab))
    rec.eq(f"n{n}.main.w",
           f"z^-1 y gamma^-1 assembled from subgroup words = s{n - 2}^-1 s1 (n={n})",
           w_ab, named_word("w", n), n)
    ainvb = concat(invert(a), b)
    rec.eq(f"n{n}.main.ainvb",
           f"a^-1 b = s{n - 3} s{n - 4} s{n - 2}^-1 s{n - 1}^-1 s{n - 2} (n={n})",
           ainvb, (n - 3, n - 4, -(n - 2), -(n - 1), n - 2), n)
    rec.eq(f"n{n}.main.c",
           f"a^-1 b w b^-1 a = s{n - 1}^-1 s1 (n={n})",
           concat(ainvb, named_word("w", n), invert(ainvb)),
           named_word("c", n), n)
    rec.eq(f"n{n}.main.bridge",
           f"a (t a0)^-1 = s{n - 3} s{n - 2} (n={n})",
           concat(a, invert(concat((T_LETTER,), a0))), (n - 3, n - 2), n)
    rec.index(f"n{n}.main.index", f"subgroup <a, b> has index 1 (n={n})",
              n, (a, b), 1)
    return tuple(rec.checks)


def verify_odd(n: int, limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """Odd-puncture generation: the reflection appears as a power, and
    the two-element certificate closes at index 1."""
    _require("odd", n)
    rec = _Recorder(limits)
    t = (T_LETTER,)
    a0 = named_word("a0", n)
    ta0 = concat(t, a0)
    ts1 = concat(t, (1,))
    rec.eq(f"n{n}.odd.reflect_power", f"(t a0)^{n} = t (n={n})",
           power(ta0, n), t, n)
    rec.order(f"n{n}.odd.order.ts1", f"order(t s1) = 2 (n={n})", ts1, n, 2)
    rec.order(f"n{n}.odd.order.ta0", f"order(t a0) = {2 * n} (n={n})", ta0, n, 2 * n)
    rec.index(f"n{n}.odd.index", f"subgroup <t s1, t a0> has index 1 (n={n})",
              n, (ts1, ta0), 1)
    return tuple(rec.checks)


_PGL_X = (0, 1, 1, 0)
_PGL_Y = (-1, 0, 0, 1)
# A generator word mapping onto each of x and y projectively.
_PGL_WITNESSES = (("x", _PGL_X, (1, 2, 1, T_LETTER)), ("y", _PGL_Y, (T_LETTER,)))


def verify_n4(limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """The four-puncture projective model: relator validation, the
    commutator identity, surjectivity witnesses, torsion orders, and the
    three-element generation certificate."""
    rec = _Recorder(limits)

    def relators_body():
        _pgl2_gens()  # raises unless every relator maps to the identity
        return "pass", f"{len(build_presentation(4, 'extended').relators)} relators"

    rec.run("n4.pgl2.relators", "2x2 projective assignment kills every relator (n=4)",
            relators_body)

    def commutator_body():
        comm = mat_mul(mat_mul(_PGL_X, _PGL_Y),
                       mat_mul(mat_inv(_PGL_X), mat_inv(_PGL_Y)))
        return ("pass" if comm == mat_neg(MAT_ID) else "fail"), format_mat2(comm)

    rec.run("n4.pgl2.commutator", "[x, y] = -Id as an exact matrix identity",
            commutator_body)
    for name, target, word in _PGL_WITNESSES:
        def witness_body(target=target, word=word):
            ok = proj_eq(pgl2_image(word), target)
            return ("pass" if ok else "fail"), format_word(word)

        rec.run(f"n4.pgl2.witness.{name}",
                f"some generator word maps onto {name} projectively",
                witness_body)
    rec.order("n4.order.t", "order(t) = 2 (n=4)", (T_LETTER,), 4, 2)
    rec.order("n4.order.ts1", "order(t s1) = 2 (n=4)", (T_LETTER, 1), 4, 2)
    rec.order("n4.order.a0", "order(a0) = 4 (n=4)", named_word("a0", 4), 4, 4)
    rec.index("n4.index3gen", "subgroup <t, t s1, a0> has index 1 (n=4)",
              4, ((T_LETTER,), (T_LETTER, 1), named_word("a0", 4)), 1)
    return tuple(rec.checks)


def verify_sigma2(limits: Limits | None = None) -> tuple[CheckResult, ...]:
    """The mod-2 data feeding the genus-two lifting argument: images of
    the two generators, their span, and the n=6 certificate they sit on."""
    rec = _Recorder(limits)
    a = named_word("a", 6)
    b = named_word("b", 6)
    for name, word, want in (("a", a, (1, 1)), ("b", b, (0, 1))):
        def psi_body(word=word, want=want):
            got = abelianization_image(word)
            return ("pass" if got == want else "fail"), format_gf2(got)

        rec.run(f"sigma2.psi.{name}",
                f"abelianization sends {name} to {format_gf2(want)}", psi_body)

    def span_body():
        images = [abelianization_image(a), abelianization_image(b)]
        return ("pass" if span_gf2(images) else "fail"), f"rank {gf2_rank(images)}"

    rec.run("sigma2.span", "the two images span (Z/2)^2", span_body)
    rec.index("sigma2.generation", "subgroup <a, b> has index 1 (n=6)",
              6, (a, b), 1)

    def conclusion_body():
        wanted = ("sigma2.psi.a", "sigma2.psi.b", "sigma2.span", "sigma2.generation")
        held = all(c.status == "pass" for c in rec.checks if c.id in wanted)
        if held:
            return "pass", "central-Z/2-extension argument applicable"
        return "fail", "prerequisites not established"

    rec.run("sigma2.conclusion",
            "index-2 obstruction: both generators die under every map to Z/2",
            conclusion_body)
    return tuple(rec.checks)


def _even(n: int) -> bool:
    return n >= 6 and n % 2 == 0


# suite token -> (runner, applies): applies(n) says whether the suite runs
# at n, and is None for the suites that take no n.  Listed in the order
# full_report runs them, which moves peak memory through heap layout.  The
# values stay plain tuples because bench/tracer.py rebinds the runners
# inside tuple values of module-level dicts.
SUITES = {
    "presentation": (verify_presentation, lambda n: n >= 3),
    "prop22": (verify_prop22, lambda n: n >= 4),
    "section3": (verify_section3, lambda n: n >= 4),
    "lemma-y": (verify_lemma_y, _even),
    "lemma-z": (verify_lemma_z, _even),
    "main": (verify_main_even, _even),
    "odd": (verify_odd, lambda n: n >= 5 and n % 2 == 1),
    "n4": (verify_n4, None),
    "sigma2": (verify_sigma2, None),
}


def _require(suite: str, n: int) -> None:
    if not SUITES[suite][1](n):
        raise ValueError(f"suite {suite} does not apply at n={n}")


def full_report(n_list, limits: Limits | None = None) -> Report:
    """Run every suite applicable to each n, plus the n-independent
    suites, and aggregate sorted by check id."""
    checks: list[CheckResult] = []
    for n in sorted(set(n_list)):
        runners = [run for run, applies in SUITES.values()
                   if applies is not None and applies(n)]
        if not runners:
            raise ValueError(f"no suite applies at n={n}")
        for run in runners:
            checks.extend(run(n, limits))
    for run, applies in SUITES.values():
        if applies is None:
            checks.extend(run(limits))
    ids = [c.id for c in checks]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate check ids in report")
    return Report(tuple(sorted(checks, key=lambda c: c.id)))
