"""Acceptance gate: one test per criterion, each printing a single
ACCEPTANCE line with its verdict.

Every criterion passes.  Criterion 4 replays the even-n word-identity
chain and pins one documented exception, the check `n6.main.c`: the
paper's displayed target for the conjugated pair c is false at n=6 (see
`N6_CHAIN_ERRATUM` below), so the harness reports that check as a fail
and criterion 4 asserts exactly that verdict.  The companion test pins
the actual value of c at n=6.
"""

import random
import time

from spheremcg.action import (
    compose,
    equal_in_group,
    order_of,
    validate_action,
    word_to_aut,
)
from spheremcg.coset import enumerate_cosets
from spheremcg.harness import verify_lemma_y, verify_lemma_z, verify_main_even, verify_n4
from spheremcg.homs import (
    abelianization_image,
    perm_image,
    span_gf2,
    validate_hom,
)
from spheremcg.presentation import build_presentation, named_word
from spheremcg.words import (
    T_LETTER,
    concat,
    conjugate,
    invert,
    power,
    reduce,
)

T = T_LETTER
SEED = 20260816


def _criterion(num, name, failures, t0):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({time.perf_counter() - t0:.1f}s)")
    assert not failures, f"criterion {num} ({name}): {failures}"


def test_criterion_1_presentation_soundness():
    t0 = time.perf_counter()
    failures = []
    for n in range(3, 11):
        for flavor in ("oriented", "extended"):
            if not validate_action(n, flavor).ok:
                failures.append(f"n={n} {flavor} relators")
            pres = build_presentation(n, flavor)
            for kind in ("perm", "psi"):
                if not all(ok for _, ok in validate_hom(pres, kind)):
                    failures.append(f"n={n} {flavor} {kind}")
    _criterion(1, "presentation soundness", failures, t0)


def test_criterion_2_rotation_orders_and_conjugation():
    t0 = time.perf_counter()
    failures = []
    for n in range(4, 11):
        for j in range(3):
            if order_of(named_word(f"a{j}", n), n) != n - j:
                failures.append(f"n={n} order a{j}")
        lhs = invert(tuple(range(1, n - 1)) + (n - 1, n - 1))
        if not equal_in_group(lhs, tuple(range(n - 2, 0, -1)), n):
            failures.append(f"n={n} inverse form")
        phi = named_word("phi", n)
        for i in range(1, n - 1):
            if not equal_in_group(concat(phi, (i,), invert(phi)),
                                  (n - 1 - i,), n):
                failures.append(f"n={n} phi i={i}")
    _criterion(2, "rotation orders and half-twist reversal", failures, t0)


def test_criterion_3_reflection_interactions():
    t0 = time.perf_counter()
    failures = []
    for n in range(4, 11):
        a0 = named_word("a0", n)
        a2 = named_word("a2", n)
        if not equal_in_group(concat((T,), a0, (T,)), a0, n):
            failures.append(f"n={n} reflect a0")
        for k in range(n // 2 + 1):
            word = concat((T,), tuple(range(1, 2 * k, 2)))
            if not equal_in_group(concat(word, word), (), n):
                failures.append(f"n={n} involution k={k}")
        ts = (T, -(n - 1))
        if not equal_in_group(concat(ts, a2), concat(a2, ts), n):
            failures.append(f"n={n} commute")
        if order_of(concat((T,), a0), n) != (n if n % 2 == 0 else 2 * n):
            failures.append(f"n={n} order t a0")
        want = n - 2 if n % 2 == 0 else 2 * (n - 2)
        if order_of(concat(ts, a2), n) != want:
            failures.append(f"n={n} order t s{n - 1}^-1 a2")
    _criterion(3, "reflection interactions", failures, t0)


# The paper's target for c, a^-1 b w b^-1 a = s(n-1)^-1 s1, is false at n=6.
# Put X = a^-1 b = s(n-3) s(n-4) s(n-2)^-1 s(n-1)^-1 s(n-2) (the check
# `main.ainvb`).  Then X s(n-2)^-1 X^-1 = s(n-1)^-1 at every even n, while
# X s1 X^-1 = s(n-3) s(n-4) s1 s(n-4)^-1 s(n-3)^-1, which is s1 only when s1
# commutes with s(n-4), i.e. n >= 7.  At n=6, c = s5^-1 (s3 s2 s1 s2^-1 s3^-1);
# the permutation quotient separates it from the target (pinned below).
# The harness keeps reporting this check as an oracle "not equal" fail.
N6_CHAIN_ERRATUM = "n6.main.c"


def _chain_c_value(n):
    """The true value of a^-1 b w b^-1 a at even n >= 6."""
    return (-(n - 1), n - 3, n - 4, 1, -(n - 4), -(n - 3))


def test_criterion_4_even_lemma_chains():
    t0 = time.perf_counter()
    failures = []
    for n in (6, 8, 10):
        checks = [*verify_lemma_y(n), *verify_lemma_z(n),
                  *(c for c in verify_main_even(n) if not c.id.endswith(".index"))]
        for c in checks:
            if c.id == N6_CHAIN_ERRATUM:
                if (c.status, c.witness) != ("fail", None):
                    failures.append(f"{c.id} {c.status} [{c.witness}]")
            elif c.status != "pass":
                failures.append(c.id)
        if n == 6 and N6_CHAIN_ERRATUM not in {c.id for c in checks}:
            failures.append(f"{N6_CHAIN_ERRATUM} missing")
        a = named_word("a", n)
        ainvb = concat(invert(a), named_word("b", n))
        c_word = concat(ainvb, named_word("w", n), invert(ainvb))
        if not equal_in_group(c_word, _chain_c_value(n), n):
            failures.append(f"n={n} value of c")
        g1 = named_word("g1", n)
        for k in range(1, n // 2 + 1):
            target = named_word(f"g{(2 * k + 1) % n}", n)
            shifted = concat(power(a, 2 * k), g1, power(a, -2 * k))
            if not equal_in_group(shifted, target, n):
                failures.append(f"n={n} powered shift k={k}")
    _criterion(4, "even-puncture lemma chains", failures, t0)


def test_chain_target_discrepancy_value_pinned():
    """The n=6 erratum, quantified: the conjugated pair c lands two
    twists short of the stated target.  For n >= 8 the target is correct
    (covered by criterion 4); at n=6 the actual value is
    s5^-1 (s3 s2 s1 s2^-1 s3^-1), and the puncture permutations differ:
    (1 4)(5 6) for c against (1 2)(5 6) for the target."""
    ainvb = concat(invert(named_word("a", 6)), named_word("b", 6))
    c_actual = concat(ainvb, named_word("w", 6), invert(ainvb))
    assert not equal_in_group(c_actual, named_word("c", 6), 6)
    assert perm_image(c_actual, 6) == (4, 2, 3, 1, 6, 5)
    assert perm_image(named_word("c", 6), 6) == (2, 1, 3, 4, 6, 5)
    assert equal_in_group(c_actual, (-5, 3, 2, 1, -2, -3), 6)


def test_criterion_5_generation_certificates(order_of_smallest_group):
    t0 = time.perf_counter()
    failures = []
    pres6 = build_presentation(6, "extended")
    ab = (named_word("a", 6), named_word("b", 6))
    result = enumerate_cosets(pres6, ab, max_cosets=10**5)
    if result.status == "overflow":
        result = enumerate_cosets(pres6, ab, max_cosets=10**6)
    if result.status != "finished" or result.index != 1:
        failures.append("n=6 two-generator certificate")
    for n in (5, 7):
        subgens = ((T, 1), (T,) + named_word("a0", n))
        if enumerate_cosets(build_presentation(n, "extended"), subgens).index != 1:
            failures.append(f"n={n} certificate")
    twists = tuple((i,) for i in range(1, 6))
    if enumerate_cosets(pres6, twists).index != 2:
        failures.append("n=6 twist subgroup index")
    small = enumerate_cosets(build_presentation(3, "extended"))
    if small.index != 12 or small.index != order_of_smallest_group:
        failures.append("n=3 total order vs Cayley closure")
    for n in (8, 10):
        best = enumerate_cosets(
            build_presentation(n, "extended"),
            (named_word("a", n), named_word("b", n)),
        )
        if best.status == "finished" and best.index != 1:
            failures.append(f"n={n} certificate index {best.index}")
        if best.status == "overflow":
            print(f"note: n={n} certificate overflowed (best-effort, tolerated)")
    _criterion(5, "generation certificates", failures, t0)


def test_criterion_6_four_puncture_suite():
    t0 = time.perf_counter()
    failures = [c.id for c in verify_n4() if c.status != "pass"]
    _criterion(6, "four-puncture projective suite", failures, t0)


def test_criterion_7_genus_two_data():
    t0 = time.perf_counter()
    failures = []
    psi_a = abelianization_image(named_word("a", 6))
    psi_b = abelianization_image(named_word("b", 6))
    if psi_a != (1, 1):
        failures.append(f"psi(a) = {psi_a}")
    if psi_b != (0, 1):
        failures.append(f"psi(b) = {psi_b}")
    if not span_gf2([psi_a, psi_b]):
        failures.append("images do not span")
    _criterion(7, "genus-two lifting data", failures, t0)


def _random_word(rng, max_len=12):
    letters = [1, 2, 3, 4, 5, -1, -2, -3, -4, -5, T]
    return reduce(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def test_criterion_8_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    relators = build_presentation(6, "extended").relators
    failures = []
    pairs = []
    for _ in range(100):
        u = _random_word(rng)
        padding = conjugate(rng.choice(relators), _random_word(rng, 4))
        pairs.append((u, concat(u, padding), True))
    for _ in range(100):
        pairs.append((_random_word(rng), _random_word(rng), None))
    for i, (u, v, planted) in enumerate(pairs):
        forward = equal_in_group(u, v, 6)
        if planted and not forward:
            failures.append(f"pair {i}: planted equality missed")
        if forward and (perm_image(u, 6) != perm_image(v, 6)
                        or abelianization_image(u) != abelianization_image(v)):
            failures.append(f"pair {i}: equality contradicts invariants")
        if forward != equal_in_group(v, u, 6):
            failures.append(f"pair {i}: asymmetric")
        if not equal_in_group(u, u, 6):
            failures.append(f"pair {i}: not reflexive")
    for i in range(100):
        u, v = _random_word(rng, 8), _random_word(rng, 8)
        if word_to_aut(concat(u, v), 6) != compose(word_to_aut(u, 6),
                                                   word_to_aut(v, 6)):
            failures.append(f"hom pair {i}")
    _criterion(8, "sampled soundness properties", failures, t0)
