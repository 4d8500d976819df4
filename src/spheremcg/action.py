"""Action of the extended twist group on a free fundamental group.

Puncture loops x1 .. xn generate the fundamental group of the punctured
sphere subject to x1...xn = 1, so we work in the free group on
x1 .. x(n-1) and eliminate xn.  Mapping classes act on this free group
up to conjugation (the basepoint is free to move), giving a faithful
representation into outer automorphisms.  Equality, orders and relator
validation below all reduce to one primitive: deciding whether an
automorphism is inner, which is decidable in a free group by inspecting
the conjugacy class of one basis image.

A word is evaluated letter by letter into a normalized form: stored
images together with a carried conjugator c, the automorphism being
x -> c stored(x) c^-1.  Each letter recomputes only the images its
generator moves.  After a letter that moves x1, the peeled conjugator of
the stored image of x1 is taken out of every stored image and appended
to c, so inner parts never pile up in the images.  The free group of
rank n-1 >= 2 has trivial centre, so an inner automorphism has exactly
one conjugator: c followed by the conjugator of the stored part is the
very word the unnormalized automorphism would give as witness.  Orders
are taken on the stored part alone, which differs from the word's
automorphism by an inner one; inner automorphisms form a normal
subgroup, so the same powers of both are inner.

Handedness of the half-twists and the basepoint position for the
reflection are not forced by the algebra.  The convention is fixed:
standard half-twists and the prefix reflection
xi -> x1..x(i-1) xi^-1 (x1..x(i-1))^-1.  It is not assumed correct: the
generators are checked against every extended relator once per n before
any answer is given, and the harness reports that check, with the
conjugator found for each relator, as the convention and relator rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .presentation import build_presentation
from .words import EPSILON, T_LETTER, Word, concat, cyclic_reduce, invert, reduce

DEFAULT_LENGTH_GUARD = 10**6


class ResourceLimitError(RuntimeError):
    """Raised when automorphism images outgrow the configured guard."""


@dataclass(frozen=True)
class FreeAut:
    """Endomorphism of the free group on x1 .. x(n-1), given by images.

    images[i] is the reduced image word of basis letter i+1.  All
    constructors here only ever build automorphisms.
    """

    n: int
    images: tuple[Word, ...]


def _mul(u: Word, v: Word) -> Word:
    """Reduced product of two reduced words."""
    k, last, m = 0, len(u) - 1, min(len(u), len(v))
    while k < m and u[last - k] == -v[k]:
        k += 1
    return u[:len(u) - k] + v[k:]


def _apply(images: Sequence[Word], word: Iterable[int]) -> Word:
    """Reduced image of word under the endomorphism with these images."""
    out: list[int] = []
    for letter in word:
        img = images[letter - 1] if letter > 0 else invert(images[-letter - 1])
        k, m = 0, min(len(out), len(img))
        while k < m and out[-1 - k] == -img[k]:
            k += 1
        if k:
            del out[-k:]
        out.extend(img[k:])
    return tuple(out)


def compose(f: FreeAut, g: FreeAut, guard: int = DEFAULT_LENGTH_GUARD) -> FreeAut:
    """f after g: the result sends x to f(g(x))."""
    images = tuple(_apply(f.images, img) for img in g.images)
    if sum(len(img) for img in images) > guard:
        raise ResourceLimitError(f"automorphism images exceed {guard} letters")
    return FreeAut(f.n, images)


def _sigma_pair(i: int, n: int) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """Images of the i-th half-twist and its inverse on x1 .. x(n-1).

    For i < n-1 the twist swaps adjacent loops, conjugating one by the
    other.  The last twist wraps through the eliminated loop xn.
    """
    fwd: list[Word] = [(j,) for j in range(1, n)]
    inv: list[Word] = [(j,) for j in range(1, n)]
    if i < n - 1:
        fwd[i - 1] = (i, i + 1, -i)
        fwd[i] = (i,)
        inv[i - 1] = (i + 1,)
        inv[i] = (-(i + 1), i, i + 1)
    else:
        # xn = (x1...x(n-1))^-1 substituted into the adjacent-swap images
        fwd[n - 2] = tuple(range(-(n - 2), 0)) + (-(n - 1),)
        inv[n - 2] = tuple(-j for j in range(n - 1, 0, -1))
    return tuple(fwd), tuple(inv)


# The generator convention fixed here, as the convention rows report it.
CONVENTION = "sigma=standard reflection=prefix"


@dataclass(frozen=True)
class _Gens:
    """Half-twist automorphisms by letter, and the basis indices each
    generator moves; t moves every index and is applied by
    _prefix_reflect, the one statement of the reflection.  witnesses
    holds, by relator label, the conjugator each extended relator acts
    by, as the relator validation found it."""

    auts: dict[int, FreeAut]
    moved: dict[int, tuple[int, ...]]
    witnesses: dict[str, Word]


def _prefix_reflect(images: list[Word]) -> list[Word]:
    """f after the prefix reflection xi -> ci xi^-1 ci^-1, ci = x1..x(i-1).

    The new image of xi is Pi f(xi)^-1 Pi^-1 = Pi P(i+1)^-1 with
    Pi = f(x1)..f(x(i-1)), and Pi grows by one image per step.
    """
    out = []
    p = p_inv = EPSILON
    for img in images:
        next_inv = _mul(invert(img), p_inv)
        out.append(_mul(p, next_inv))
        p, p_inv = _mul(p, img), next_inv
    return out


def _evaluate(word: Iterable[int], gens: _Gens, n: int,
              guard: int) -> tuple[list[Word], Word]:
    """Normalized automorphism of the word, letters applied right to left:
    stored images and a conjugator c, the automorphism being
    x -> c stored(x) c^-1.  The guard bounds the letters held, stored
    images plus c, after every letter; the stored letters are counted as
    they change and recounted only where every image is rewritten."""
    images: list[Word] = [(i,) for i in range(1, n)]
    stored = n - 1
    conj: list[int] = []
    for letter in word:
        try:
            moved = gens.moved[letter]
        except KeyError:
            raise ValueError(f"letter {letter} outside the alphabet for n={n}") from None
        if abs(letter) == T_LETTER:
            images = _prefix_reflect(images)
            stored = sum(map(len, images))
        else:
            g = gens.auts[letter].images
            new = [_apply(images, g[i]) for i in moved]
            for i, img in zip(moved, new):
                stored += len(img) - len(images[i])
                images[i] = img
        if moved[0] == 0:  # x1 moved: peel its image's conjugator into c
            _, w0 = cyclic_reduce(images[0])
            if w0:
                w0_inv = invert(w0)
                images = [_mul(_mul(w0_inv, img), w0) for img in images]
                stored = sum(map(len, images))
                for x in w0:
                    if conj and conj[-1] == -x:
                        conj.pop()
                    else:
                        conj.append(x)
        if stored + len(conj) > guard:
            raise ResourceLimitError(f"automorphism images exceed {guard} letters")
    return images, tuple(conj)


def _inner_witness(word: Iterable[int], gens: _Gens, n: int,
                   guard: int = DEFAULT_LENGTH_GUARD) -> Word | None:
    """The conjugator w with the word acting as x -> w x w^-1, or None."""
    images, conj = _evaluate(word, gens, n, guard)
    w = is_inner(FreeAut(n, tuple(images)))
    return None if w is None else _mul(conj, w)


@lru_cache(maxsize=None)
def _gen_auts(n: int) -> _Gens:
    """The generator automorphisms at n, refused unless every extended
    relator acts as an inner automorphism.  The oriented relators are
    among them, so this one check, with the conjugators it keeps, is what
    every convention row and every per-relator row reports."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    auts: dict[int, FreeAut] = {}
    for i in range(1, n):
        fwd, inv = _sigma_pair(i, n)
        auts[i] = FreeAut(n, fwd)
        auts[-i] = FreeAut(n, inv)
    moved = {letter: tuple(i for i, img in enumerate(aut.images) if img != (i + 1,))
             for letter, aut in auts.items()}
    moved[T_LETTER] = moved[-T_LETTER] = tuple(range(n - 1))
    gens = _Gens(auts, moved, {})
    pres = build_presentation(n, "extended")
    for label, rel in zip(pres.labels, pres.relators):
        witness = _inner_witness(rel, gens, n)
        if witness is None:
            raise RuntimeError(f"relator {label} does not act trivially at n={n}")
        gens.witnesses[label] = witness
    return gens


def word_to_aut(word: Iterable[int], n: int,
                guard: int = DEFAULT_LENGTH_GUARD) -> FreeAut:
    """Automorphism of the word, letters applied right to left."""
    images, conj = _evaluate(word, _gen_auts(n), n, guard)
    if conj:
        conj_inv = invert(conj)
        images = [_mul(_mul(conj, img), conj_inv) for img in images]
    return FreeAut(n, tuple(images))


def is_inner(f: FreeAut) -> Word | None:
    """The word w with f = (x -> w x w^-1), or None.

    Any such w conjugates x1 to f(x1) = w0 x1 w0^-1, where w0 is the
    peeled conjugator of f(x1), so w = w0 x1^s for some s.  Then
    w0^-1 f(x2) w0 = x1^s x2 x1^-s, whose leading run of x1^(+-1) gives
    s.  The one candidate is checked against every image.
    """
    core, w0 = cyclic_reduce(f.images[0])
    if core != (1,):
        return None
    h = _mul(_mul(invert(w0), f.images[1]), w0)
    s = 0
    if h and abs(h[0]) == 1:
        while s < len(h) and h[s] == h[0]:
            s += 1
    w = w0 + h[:s]
    w_inv = invert(w)
    if all(img == _mul(_mul(w, (i,)), w_inv) for i, img in enumerate(f.images, 1)):
        return w
    return None


def equal_with_witness(u: Iterable[int], v: Iterable[int], n: int,
                       guard: int = DEFAULT_LENGTH_GUARD) -> tuple[bool, Word | None]:
    """Decide u = v in the extended group; on success also return the
    basepoint conjugator carried by u v^-1."""
    diff = concat(reduce(u), invert(reduce(v)))
    if diff == EPSILON:
        return True, EPSILON
    witness = _inner_witness(diff, _gen_auts(n), n, guard)
    return witness is not None, witness


def equal_in_group(u: Iterable[int], v: Iterable[int], n: int,
                   guard: int = DEFAULT_LENGTH_GUARD) -> bool:
    return equal_with_witness(u, v, n, guard)[0]


def order_of(u: Iterable[int], n: int, cap: int | None = None,
             guard: int = DEFAULT_LENGTH_GUARD) -> int | None:
    """Order of u in the extended group, or None if it exceeds the cap.

    Candidate exponents are filtered through the puncture permutation
    and the mod-2 letter counts before touching the free group, so only
    multiples of both invariant orders get the full inner test.  The
    powers are those of the stored part of the normalized automorphism,
    which has the same inner powers as u's own.
    """
    from .homs import abelianization_image, perm_image, perm_order

    word = reduce(u)
    if cap is None:
        cap = 4 * n
    if word == EPSILON:
        return 1
    step = perm_order(perm_image(word, n))
    if any(abelianization_image(word)):
        step = step if step % 2 == 0 else 2 * step
    f = g = FreeAut(n, tuple(_evaluate(word, _gen_auts(n), n, guard)[0]))
    for k in range(1, cap + 1):
        if k > 1:
            g = compose(g, f, guard)
        if k % step == 0 and is_inner(g) is not None:
            return k
    return None

