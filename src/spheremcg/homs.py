"""Cheap invariant homomorphisms: puncture permutations, mod-2 letter
counts, and the projective 2x2 integer representation at four punctures.

The first two decide "not equal" without touching the free group, and
at n=4 the third is an independent exact model of the quotient by the
hyperelliptic involution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .presentation import Presentation, build_presentation
from .words import T_LETTER

Perm = tuple[int, ...]
GF2Vec = tuple[int, int]
Mat2 = tuple[int, int, int, int]

MAT_ID: Mat2 = (1, 0, 0, 1)


def perm_identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_image(word: Iterable[int], n: int) -> Perm:
    """Induced permutation of the n punctures; the reflection fixes all.

    Each twist sk composes the permutation with the transposition (k k+1)
    on the right, which swaps its entries k-1 and k in place.
    """
    result = list(perm_identity(n))
    for letter in word:
        k = abs(letter)
        if k == T_LETTER:
            continue
        if not 1 <= k <= n - 1:
            raise ValueError(f"letter {letter} outside the alphabet for n={n}")
        result[k - 1], result[k] = result[k], result[k - 1]
    return tuple(result)


def format_perm(p: Perm) -> str:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start + 1:
            seen[start] = True
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i + 1)
            i = p[i] - 1
        cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) if cycles else "id"


def format_gf2(v: GF2Vec) -> str:
    return f"({v[0]},{v[1]})"


def format_mat2(m: Mat2) -> str:
    return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]"


def abelianization_image(word: Iterable[int]) -> GF2Vec:
    """(twist exponent, reflection count) mod 2; every relator vanishes."""
    s = t = 0
    for letter in word:
        if abs(letter) == T_LETTER:
            t += 1
        else:
            s += 1 if letter > 0 else -1
    return s % 2, t % 2


def gf2_rank(vectors: Iterable[GF2Vec]) -> int:
    """Rank of the span inside (Z/2)^2."""
    span = {(0, 0)}
    for v in vectors:
        v = (v[0] % 2, v[1] % 2)
        span |= {(v[0] ^ s[0], v[1] ^ s[1]) for s in span}
    return len(span).bit_length() - 1


def span_gf2(vectors: Iterable[GF2Vec]) -> bool:
    """True iff the vectors span all of (Z/2)^2."""
    return gf2_rank(vectors) == 2


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def mat_neg(m: Mat2) -> Mat2:
    return (-m[0], -m[1], -m[2], -m[3])


def mat_inv(m: Mat2) -> Mat2:
    det = m[0] * m[3] - m[1] * m[2]
    if det == 1:
        return (m[3], -m[1], -m[2], m[0])
    if det == -1:
        return (-m[3], m[1], m[2], -m[0])
    raise ValueError(f"matrix {m} has determinant {det}, not a unit")


def proj_eq(a: Mat2, b: Mat2) -> bool:
    return a == b or a == mat_neg(b)


_S_PARABOLIC: Mat2 = (1, 1, 0, 1)
_S_PARABOLIC_LOWER: Mat2 = (1, 0, -1, 1)


@lru_cache(maxsize=None)
def _pgl2_gens() -> dict[int, Mat2]:
    """Generator matrices at n=4, the reflection being diag(1, -1),
    refused unless every extended relator maps to the identity
    projectively."""
    gens = {1: _S_PARABOLIC, 2: _S_PARABOLIC_LOWER, 3: _S_PARABOLIC,
            T_LETTER: (1, 0, 0, -1)}
    full = {**gens, **{-k: mat_inv(v) for k, v in gens.items()}}
    pres = build_presentation(4, "extended")
    for label, rel in zip(pres.labels, pres.relators):
        if not proj_eq(_fold(rel, full), MAT_ID):
            raise RuntimeError(f"relator {label} does not map to the identity at n=4")
    return full


def _fold(word: Iterable[int], gens: dict[int, Mat2]) -> Mat2:
    m = MAT_ID
    for letter in word:
        m = mat_mul(m, gens[letter])
    return m


def pgl2_image(word: Iterable[int]) -> Mat2:
    """Image of an n=4 word in the projective 2x2 model."""
    gens = _pgl2_gens()
    try:
        return _fold(word, gens)
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]} outside the alphabet for n=4") from None


def validate_hom(pres: Presentation, kind: str) -> tuple[tuple[str, bool], ...]:
    """Check each relator dies under the chosen invariant.

    kind is perm or psi.
    """
    results = []
    for label, rel in zip(pres.labels, pres.relators):
        if kind == "perm":
            ok = perm_image(rel, pres.n) == perm_identity(pres.n)
        elif kind == "psi":
            ok = abelianization_image(rel) == (0, 0)
        else:
            raise ValueError(f"unknown invariant kind {kind!r}")
        results.append((label, ok))
    return tuple(results)

