"""Action of the extended twist group on a free fundamental group.

Puncture loops x1 .. xn generate the fundamental group of the punctured
sphere subject to x1...xn = 1, so we work in the free group on
x1 .. x(n-1) and eliminate xn.  Mapping classes act on this free group
up to conjugation (the basepoint is free to move), giving a faithful
representation into outer automorphisms.  Equality (once two finite
quotients agree), orders and relator validation below all reduce to one
primitive: deciding whether an automorphism is inner, which is decidable
in a free group by inspecting the conjugacy class of one basis image.

An automorphism is held in one normalized form, FreeAut: stored images
and a carried conjugator c, the automorphism being x -> c stored(x) c^-1.
word_to_aut, the one evaluation entry, first moves the word's
reflections to its right end.  t si t = si^-1 and t^2 = 1 hold as
automorphisms exactly, not only up to an inner one, so each twist letter
preceded by an odd number of t^+-1 flips its sign, the result is freely
reduced, and one t is left at the end if the count is odd.  The prefix
reflection, which rewrites every image into long prefix conjugates,
then runs at most once, as the last step, instead of swelling the
images every later letter works on.  That exactness is checked, not
assumed: the relator validation refuses the generators unless t^2 and
every (t si)^2 act with the empty conjugator, and it evaluates each
relator literally, letter by letter, never through the rewrite; the far
relators among s1..s(n-2) on a sparse form that holds only the images
they move.  The word is then read letter by letter, recomputing only
the images each letter's generator moves: a half-twist si with i < n-1
rewrites xi and x(i+1) directly from the old images, through
_half_twist, the one statement of those formulas, and s(n-1), which
fixes the others, sends x(n-1) to the inverse of one product of
images, (x(n-1) x1..x(n-2))^-1, or (x1..x(n-1))^-1 for its inverse.
After a letter that moves x1 (an s1, or the final t), and after each
compose, the peeled conjugator of the stored image of x1 is taken out
of every stored image and appended to c, so inner parts never pile up
in the images.  The free group of rank
n-1 >= 2 has trivial centre, so an inner automorphism has exactly one
conjugator: is_inner finds that of the stored part and prefixes c, and
the rewrite, which changes what is held on the way, changes no witness.

A single-word identity u = v is decided by is_inner on u v^-1.
Identities whose sides share a long factor, or power one, go through the
product path instead: each side is a product of factors, each a word or
a power of a factor, and a Factors cache, owned by the caller for one
run, evaluates each distinct factor once and composes powers by
squaring, those of a reflection word through its square, as below.
u v^-1 is never composed.  Instead u = c_w v is decided as is_inner
decides inner automorphisms: v^-1 is applied, through the inverse
factors, to x1 and x2 alone; u of those two words pins the one
candidate w; and u(x) = w v(x) w^-1 is checked on every basis letter.
The conjugator is unique, so w is the witness u v^-1 would give.

Orders are found at the quotient step first, on the cyclic core of the
word: its end letters are peeled while they are inverse in the group, x
and x^-1 or two reflections, since t^-1 = t.  Conjugate elements have
the same order and the same quotient order m, the order of the image
under the puncture permutation and the mod-2 abelianization, so the core
answers for the word exactly.  A finite order is m itself: if f has
order d, m divides d, so f^m lies in the quotient's kernel.  There it
fixes every puncture and, as the second mod-2 coordinate counts t, the
orientation character, lies in the pure orientation-preserving group
PMod(S_{0,n}).  That group has no torsion for n >= 3 (PMod(S_{0,3}) is
trivial, and the Birman exact sequence has free kernels; Farb-Margalit,
A Primer on Mapping Class Groups, ch. 4), so f^m = 1.  Only the m-th
power gets the inner test, and a word with m above the cap none.  The
answer m rests on the action being faithful; an infinite order, F^m not
inner with m at most the cap, rests only on the validated homomorphism
and that torsion-freeness.  F^m is raised by squaring through compose,
exactly, as a power on the product path is.  A reflection word w, one
with an odd number of t, has even m, and F^m = (F^2)^(m/2) is raised
from F^2, that of w w, whose reflections all cancel in the rewrite: no
order, and no even power on the product path, runs the prefix
reflection.  The core and the square hold other automorphisms than the
whole word would, so the guard may trip at other inputs; a trip is
still inconclusive.

The guard bounds the letters held, stored images plus conjugator, after
every letter and every compose.  On the product path it also bounds the
work of applying an automorphism to a word: a word whose letters'
images sum past the guard is refused before any letter is cancelled,
since nearly all of such a sum may cancel one letter at a time into a
short result.  A guard trip (ResourceLimitError) is inconclusive, never
a verdict.  Two evaluation orders of the same identity hold different
automorphisms on the way, so they may trip at different inputs:
flattening u v^-1 into one word can cancel a long power that the
product path evaluates on its own, and the other way round.

Handedness of the half-twists and the basepoint position for the
reflection are not forced by the algebra.  The convention is fixed:
standard half-twists and the prefix reflection
xi -> x1..x(i-1) xi^-1 (x1..x(i-1))^-1.  It is not assumed correct: the
generators are checked against every extended relator once per n before
any word is evaluated, and the harness reports that check, with the
nonempty conjugators it finds, as the convention and relator family rows.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .homs import (GF2Vec, Perm, abelianization_image, perm_cycles, perm_identity,
                   perm_image)
from .presentation import DEFAULT_LENGTH_GUARD, ResourceLimitError, build_presentation
from .words import EPSILON, T_LETTER, Word, cyclic_core, invert, reduce, require_punctures


class FreeAut(NamedTuple):
    """Automorphism of the free group on x1 .. x(n-1), normalized:
    x(i+1) -> conj images[i] conj^-1, each stored image reduced.  Every
    one the package builds comes from _evaluate or compose, which peel
    the conjugator of the stored image of x1 into conj."""

    n: int
    images: tuple[Word, ...]
    conj: Word = EPSILON


def _mul(u: Word, v: Word) -> Word:
    """Reduced product of two reduced words."""
    if not u or not v or u[-1] != -v[0]:
        return u + v
    k, last, m = 1, len(u) - 1, min(len(u), len(v))
    while k < m and u[last - k] == -v[k]:
        k += 1
    return u[:len(u) - k] + v[k:]


def _signed(images: Sequence[Word]) -> list[Word]:
    """The images by signed letter: entry i is the image of xi and entry
    -i, counted from the end, its inverse."""
    return [EPSILON, *images, *map(invert, reversed(images))]


def _apply(table: Sequence[Word] | dict[int, Word], word: Iterable[int]) -> Word:
    """Reduced image of word under the endomorphism whose image of each
    signed letter is table[letter], as _signed lays it out."""
    out: list[int] = []
    for letter in word:
        img = table[letter]
        if out and img and out[-1] == -img[0]:
            k, m = 1, min(len(out), len(img))
            while k < m and out[-1 - k] == -img[k]:
                k += 1
            del out[-k:]
            out.extend(img[k:])
        else:
            out.extend(img)
    return tuple(out)


# The generator convention fixed here, as the convention row reports it.
CONVENTION = "sigma=standard reflection=prefix"


def _common_prefix(u: Word, v: Word) -> int:
    """Length of the longest common prefix of u and v, by halving the
    range the first difference can lie in: each step compares one slice
    of each word in C, never one letter at a time in Python."""
    lo, hi = 0, min(len(u), len(v))  # u[:lo] == v[:lo], and the prefix is at most hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _prefix_reflect(images: Sequence[Word], run: list | None = None) -> list[Word]:
    """f after the prefix reflection xi -> ci xi^-1 ci^-1, ci = x1..x(i-1).

    The new image of xi is Pi f(xi)^-1 Pi^-1 = Pi P(i+1)^-1 with
    Pi = f(x1)..f(x(i-1)), and Pi grows by one image per step.  Each
    cancellation is read off words the loop holds: Pi f(xi) cancels the
    common prefix of Pi^-1 and f(xi), and Pi P(i+1)^-1 the common suffix
    of Pi and P(i+1), which is the common prefix of their inverses.

    An empty run is filled with the loop, one entry (f(xi), Pi, Pi^-1,
    new image) per image; a filled one is resumed.  The loop is
    deterministic, so it then starts at the first image that differs
    from the recorded one, in the state recorded there, and once past
    the last such image it takes the recorded new images from the first
    position where its state (Pi, Pi^-1) is the recorded one.
    """
    out = [EPSILON] * len(images)
    p = p_inv = EPSILON
    start, last, record = 0, len(images), run is not None and not run
    if run:
        out = [entry[3] for entry in run]
        diff = [k for k, (img, entry) in enumerate(zip(images, run))
                if img is not entry[0] and img != entry[0]]
        if not diff:
            return out
        start, last = diff[0], diff[-1]
        _, p, p_inv, _ = run[start]
    for pos in range(start, len(images)):
        if pos > last and run[pos][1:3] == (p, p_inv):
            break
        img = images[pos]
        k = _common_prefix(p_inv, img)
        next_inv = invert(img[k:]) + p_inv[k:]
        j = _common_prefix(p_inv, next_inv)
        out[pos] = p[:len(p) - j] + next_inv[j:]
        if record:
            run.append((img, p, p_inv, out[pos]))
        p, p_inv = p[:len(p) - k] + img[k:], next_inv
    return out


def _peel(images: list[Word], conj: Word) -> tuple[list[Word], Word]:
    """x -> conj images(x) conj^-1 rewritten with the image of x1
    cyclically reduced: the images conjugated by w0^-1, w0 the peeled
    conjugator of the image of x1, and the carried conjugator conj w0.
    The one step that merges a peeled conjugator into a carried one; the
    images object itself comes back when w0 is empty."""
    _, w0 = cyclic_core(images[0])
    if not w0:
        return images, conj
    w0_inv = invert(w0)
    return [_mul(_mul(w0_inv, img), w0) for img in images], _mul(conj, w0)


def _half_twist(a: Word, b: Word, positive: bool) -> tuple[Word, Word]:
    """The images of xi and x(i+1), i < n-1, after si (positive) or
    si^-1, from their images a and b before it: (a b a^-1, a) or
    (b, b^-1 a b)."""
    if positive:
        return _mul(_mul(a, b), invert(a)), a
    return b, _mul(_mul(invert(b), a), b)


def _evaluate(word: Iterable[int], n: int, guard: int, start: FreeAut | None = None,
              run: list | None = None) -> FreeAut:
    """Normalized automorphism of the word, letters applied right to left,
    or of start after it when start is given, each t through
    _prefix_reflect with the run.  The carried conjugator is a word,
    merged with each peel by _peel.  The stored letters the guard reads
    are counted as they change and recounted only where every image is
    rewritten: after a t, and after a peel that changed the images.

    A half-twist si^+-1 with i < n-1 rewrites the images of xi and
    x(i+1) directly, through _half_twist.  s(n-1)^+-1 fixes
    x1 .. x(n-2) and, through xn = (x1..x(n-1))^-1, sends x(n-1) to the
    inverse of one product of images: (x(n-1) x1..x(n-2))^-1 for s(n-1)
    and (x1..x(n-1))^-1 for its inverse.
    """
    if start:
        images, conj, stored = list(start.images), start.conj, sum(map(len, start.images))
    else:
        images, conj, stored = [(i,) for i in range(1, n)], EPSILON, n - 1
    for letter in word:
        i = abs(letter)
        if i == T_LETTER:
            images = _prefix_reflect(images, run)
            stored = sum(map(len, images))
        elif 1 <= i < n - 1:
            a, b = images[i - 1], images[i]
            new_a, new_b = _half_twist(a, b, letter > 0)
            stored += len(new_a) + len(new_b) - len(a) - len(b)
            images[i - 1], images[i] = new_a, new_b
        elif i == n - 1:
            order = (n - 1, *range(1, n - 1)) if letter > 0 else range(1, n)
            img = invert(_apply((EPSILON, *images), order))
            stored += len(img) - len(images[-1])
            images[-1] = img
        else:
            raise ValueError(f"letter {letter} outside the alphabet for n={n}")
        if i == 1 or i == T_LETTER:  # x1 moved: peel its image's conjugator into conj
            peeled, conj = _peel(images, conj)
            if peeled is not images:
                images, stored = peeled, sum(map(len, peeled))
        if stored + len(conj) > guard:
            raise ResourceLimitError(f"automorphism images exceed {guard} letters")
    return FreeAut(n, tuple(images), conj)


def _sparse_identity(word: Word, n: int) -> bool:
    """Whether the word lies over s1 .. s(n-2) and acts as the identity:
    read letter by letter through _half_twist, as _evaluate reads it, on
    a sparse form that holds only the images the word moves and peels
    nothing, the word passes when every held image is its own letter."""
    if max(map(abs, word), default=0) >= n - 1:
        return False
    moved: dict[int, Word] = {}
    for letter in word:
        i = abs(letter)
        moved[i], moved[i + 1] = _half_twist(moved.get(i, (i,)), moved.get(i + 1, (i + 1,)),
                                             letter > 0)
    return all(img == (i,) for i, img in moved.items())


@lru_cache(maxsize=None)
def _gen_auts(n: int) -> dict[str, Word]:
    """The nonempty conjugators the extended relators act by, by label,
    as the validation of the generator automorphisms at n finds them;
    every other relator acts by the empty one.  Refused unless every
    extended relator acts as an inner automorphism, and the reflection
    relators t^2 and (t si)^2 as the identity itself, which is what lets
    word_to_aut move each t to the right end of a word.  This one check,
    with the conjugators it keeps, is what the presentation rows report.

    Each relator is evaluated literally, letter by letter, never through
    the rewrite the check justifies.  One without t or s(n-1) that
    _sparse_identity accepts acts as the identity; every other relator
    is decided by is_inner on _evaluate, t by t, so the sparse form
    changes no witness and no refusal.  The relators that start with t
    are read on from the state after it, evaluated once, and each later
    t resumes one recorded _prefix_reflect run over that state, which
    gives the images a run from the start would.  A passing check runs
    once per n, under the default guard; a refusal is raised to each row
    that asks, like a guard trip, and build_presentation refuses, as a
    tripped guard, an n whose relators alone would hold more than it."""
    witnesses = {}
    pres = build_presentation(n, "extended")
    after_t = _evaluate((T_LETTER,), n, DEFAULT_LENGTH_GUARD)
    run: list = []
    _prefix_reflect(after_t.images, run)
    for label, rel in zip(pres.labels, pres.relators):
        if _sparse_identity(rel, n):
            continue
        start, word = (after_t, rel[1:]) if rel[0] == T_LETTER else (None, rel)
        witness = is_inner(_evaluate(word, n, DEFAULT_LENGTH_GUARD, start, run))
        if witness is None:
            raise RuntimeError(f"relator {label} does not act trivially at n={n}")
        if witness:
            if T_LETTER in rel:
                raise RuntimeError(f"relator {label} acts as a nontrivial inner "
                                   f"automorphism at n={n}")
            witnesses[label] = witness
    return witnesses


def _reflections_last(word: Iterable[int]) -> Word:
    """The reduced word with every t moved to its right end: each twist
    letter preceded by an odd number of t^+-1 flips its sign, and one t
    is appended if the count is odd.  t si = si^-1 t and t^2 = 1 hold
    exactly as automorphisms, as _gen_auts checks, so the result
    evaluates to the word's automorphism itself."""
    flipped, odd = [], False
    for letter in word:
        if abs(letter) == T_LETTER:
            odd = not odd
        else:
            flipped.append(-letter if odd else letter)
    return reduce(flipped) + (T_LETTER,) * odd


def word_to_aut(word: Iterable[int], n: int,
                guard: int = DEFAULT_LENGTH_GUARD) -> FreeAut:
    """Normalized automorphism of the word, letters applied right to left:
    the one evaluation entry.  The word is read with its reflections
    moved to the right end, so _prefix_reflect runs at most once."""
    _gen_auts(n)  # the validation the rewrite rests on
    return _evaluate(_reflections_last(word), n, guard)


def _candidate(h1: Word, h2: Word) -> Word | None:
    """The one w that can conjugate x1 to h1 and x2 to h2, or None.

    Any such w conjugates x1 to h1 = w0 x1 w0^-1, where w0 is the peeled
    conjugator of h1, so w = w0 x1^s for some s.  Then
    w0^-1 h2 w0 = x1^s x2 x1^-s, whose leading run of x1^(+-1) gives s.
    """
    core, w0 = cyclic_core(h1)
    if core != (1,):
        return None
    h = _mul(_mul(invert(w0), h2), w0)
    s = 0
    if h and abs(h[0]) == 1:
        while s < len(h) and h[s] == h[0]:
            s += 1
    return w0 + h[:s]


def _conjugates(w: Word, images: Iterable[Word], by: Iterable[Word]) -> bool:
    """Whether each image is w b w^-1 for the matching b."""
    if not w:
        return all(img == b for img, b in zip(images, by))
    w_inv = invert(w)
    return all(img == _mul(_mul(w, b), w_inv) for img, b in zip(images, by))


def is_inner(f: FreeAut) -> Word | None:
    """The word w with f = (x -> w x w^-1), or None: the one candidate
    that the stored images of x1 and x2 allow, checked against every
    stored image and prefixed by the carried conjugator."""
    w = _candidate(f.images[0], f.images[1])
    if w is None or not _conjugates(w, f.images, ((i,) for i in range(1, f.n))):
        return None
    return _mul(f.conj, w)


def equal_with_witness(u: Iterable[int], v: Iterable[int], n: int,
                       guard: int = DEFAULT_LENGTH_GUARD) -> tuple[bool, Word | None]:
    """Decide u = v in the extended group; on success also return the
    basepoint conjugator carried by u v^-1.

    The puncture permutation and the mod-2 abelianization are
    homomorphisms of the extended group, so a nontrivial image of u v^-1
    is an unconditional "not equal", given without evaluating the word.
    """
    require_punctures(n)
    u, v = reduce(u), reduce(v)
    if u == v:
        return True, EPSILON
    diff = u + invert(v)
    if perm_image(diff, n) != perm_identity(n) or any(abelianization_image(diff)):
        return False, None
    witness = is_inner(word_to_aut(diff, n, guard))
    return witness is not None, witness


class Power(NamedTuple):
    """The factor base^k; a negative k powers the inverse of the base."""

    base: "Factor"
    k: int


# A factor of a product: a word, or a power of a factor.
Factor = Word | Power


def compose(f: FreeAut, g: FreeAut, guard: int = DEFAULT_LENGTH_GUARD) -> FreeAut:
    """f after g, exactly: (c_a F')(c_b G') = c_(a F'(b)) (F' G'), with the
    conjugator of the image of x1 peeled into a F'(b) by _peel, as
    _evaluate peels it.  The guard bounds the letters held afterwards."""
    table = _signed(f.images)
    images, conj = _peel([_apply(table, img) for img in g.images],
                         _mul(f.conj, _apply(table, g.conj)))
    if sum(map(len, images)) + len(conj) > guard:
        raise ResourceLimitError(f"automorphism images exceed {guard} letters")
    return FreeAut(f.n, tuple(images), conj)


def _act(f: FreeAut, word: Word, guard: int) -> Word:
    """Image of a word under a normalized automorphism, within the guard.
    A word whose letters' images sum past the guard is refused before
    any letter is cancelled, so the work is bounded however much of it
    would cancel."""
    if sum(len(f.images[abs(x) - 1]) for x in word) > guard:
        raise ResourceLimitError(f"automorphism images exceed {guard} letters")
    table = {x: f.images[x - 1] if x > 0 else invert(f.images[-x - 1]) for x in set(word)}
    out = _mul(_mul(f.conj, _apply(table, word)), invert(f.conj))
    if len(out) > guard:
        raise ResourceLimitError(f"automorphism images exceed {guard} letters")
    return out


def _inner_over(f: FreeAut, g: FreeAut, pre: Sequence[Word], guard: int) -> Word | None:
    """The word w with f = c_w after g, or None; pre holds g^-1(x1) and
    g^-1(x2).

    f g^-1 sends x1, x2 to f(pre), which pins the one candidate w as in
    is_inner.  With f = c_u F' and g = c_v G', f = c_w g holds exactly
    when F'(x) = r G'(x) r^-1 on every basis letter, r = u^-1 w v.
    """
    w = _candidate(*(_act(f, y, guard) for y in pre))
    if w is None:
        return None
    r = _mul(_mul(invert(f.conj), w), g.conj)
    return w if _conjugates(r, f.images, g.images) else None


def _inverse(factor: Factor) -> Factor:
    return Power(factor.base, -factor.k) if isinstance(factor, Power) else invert(factor)


class Factors:
    """The factors of one run's product equalities at one n, each
    evaluated at most once: its quotient images when first compared, its
    normalized automorphism when first composed.  The caller owns it, so
    nothing outlives the run."""

    def __init__(self, n: int, guard: int = DEFAULT_LENGTH_GUARD):
        require_punctures(n)
        self.n, self.guard = n, guard
        self.quotients: dict[Factor, tuple[Perm, GF2Vec]] = {}
        self.auts: dict[Factor, FreeAut] = {}

    def quotient(self, factors: Sequence[Factor]) -> tuple[Perm, GF2Vec]:
        """The puncture permutation and mod-2 image of a product."""
        perm, (s, t) = perm_identity(self.n), (0, 0)
        for factor in factors:
            p, (ds, dt) = self._quotient(factor)
            perm, s, t = tuple(perm[i - 1] for i in p), s ^ ds, t ^ dt
        return perm, (s, t)

    def _quotient(self, factor: Factor) -> tuple[Perm, GF2Vec]:
        if factor not in self.quotients:
            if isinstance(factor, Power):
                base = factor.base if factor.k > 0 else _inverse(factor.base)
                self.quotients[factor] = self.quotient([base] * abs(factor.k))
            else:
                self.quotients[factor] = (perm_image(factor, self.n),
                                          abelianization_image(factor))
        return self.quotients[factor]

    def aut(self, factor: Factor) -> FreeAut:
        """The normalized automorphism of a factor; a power is composed by
        squaring from its base's."""
        if factor not in self.auts:
            if not isinstance(factor, Power):
                self.auts[factor] = word_to_aut(factor, self.n, self.guard)
            elif factor.k == 0:
                self.auts[factor] = self.aut(EPSILON)
            else:
                base = factor.base if factor.k > 0 else _inverse(factor.base)
                self.auts[factor] = _factor_power(base, abs(factor.k), self.aut, self.guard)
        return self.auts[factor]

    def product(self, factors: Sequence[Factor]) -> FreeAut:
        """The normalized automorphism of a product, factors left to right."""
        first, *rest = [self.aut(f) for f in factors or [EPSILON]]
        for f in rest:
            first = compose(first, f, self.guard)
        return first

    def preimages(self, factors: Sequence[Factor]) -> list[Word]:
        """The inverse of a product applied to x1 and x2 alone, through the
        inverse factors, first factor first."""
        pre: list[Word] = [(1,), (2,)]
        for factor in factors:
            inverse = self.aut(_inverse(factor))
            pre = [_act(inverse, y, self.guard) for y in pre]
        return pre


def equal_products(lhs: Sequence[Factor], rhs: Sequence[Factor],
                   factors: Factors) -> tuple[bool, Word | None]:
    """equal_with_witness for two products of factors, at the n of the
    factor cache: each side is composed from its factors' normalized
    automorphisms, and u = c_w v is decided by _inner_over."""
    if factors.quotient(lhs) != factors.quotient(rhs):
        return False, None
    witness = _inner_over(factors.product(lhs), factors.product(rhs),
                          factors.preimages(rhs), factors.guard)
    return witness is not None, witness


def default_order_cap(n: int) -> int:
    """The cap order_of uses when none is given."""
    return 4 * n


def _quotient_order(word: Word, n: int) -> int:
    """Order of the word's image under the puncture permutation and the
    mod-2 abelianization together: the lcm of the permutation's cycle
    lengths, doubled to even if the mod-2 image is nonzero."""
    m = lcm(*map(len, perm_cycles(perm_image(word, n))))
    return lcm(m, 2) if any(abelianization_image(word)) else m


def _factor_power(base: Factor, k: int, evaluate, guard: int) -> FreeAut:
    """base^k for k >= 1, composed by squaring from the automorphisms
    evaluate gives factors: for a reflection word w, one with an odd
    number of t, (w w)^(k div 2), times w for an odd k."""
    if k > 1 and not isinstance(base, Power) and abelianization_image(base)[1]:
        square = _factor_power(base + base, k // 2, evaluate, guard)
        return compose(square, evaluate(base), guard) if k % 2 else square
    f = power = evaluate(base)
    for bit in bin(k)[3:]:  # square-and-multiply over the bits after the leading one
        power = compose(power, power, guard)
        if bit == "1":
            power = compose(power, f, guard)
    return power


def order_of(u: Iterable[int], n: int, cap: int | None = None,
             guard: int = DEFAULT_LENGTH_GUARD) -> int | None:
    """Order of u in the extended group, or None if it exceeds the cap.

    Only the m-th power of the word's cyclic core, m its quotient order,
    gets the inner test, as the module docstring sets out: m rests on
    the action being faithful, and None with m at most the cap means an
    infinite order, resting only on the validated homomorphism and the
    torsion-freeness of PMod(S_{0,n}).
    """
    require_punctures(n)
    word, _ = cyclic_core(reduce(u))
    if cap is None:
        cap = default_order_cap(n)
    if word == EPSILON:
        return 1
    m = _quotient_order(word, n)
    if m > cap:
        return None
    fm = _factor_power(word, m, lambda w: word_to_aut(w, n, guard), guard)
    return m if is_inner(fm) is not None else None
