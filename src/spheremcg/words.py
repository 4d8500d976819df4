"""Free reduction and conjugacy utilities for words over a signed alphabet.

A word is a tuple of nonzero ints.  Letter k > 0 is a generator, -k its
inverse.  Half-twist generators are 1, 2, 3, ...; the orientation-reversing
generator gets its own letter far above any twist index so the two ranges
never collide.
"""

from __future__ import annotations

from operator import neg
from typing import Iterable

Word = tuple[int, ...]

EPSILON: Word = ()

# Letter reserved for the reflection generator.  Twist indices are bounded
# by the number of punctures, so 2**20 is unreachable by any s<k> token.
T_LETTER = 1 << 20


class ParseError(ValueError):
    """Raised when text does not parse as a word over the allowed alphabet."""


def reduce(word: Iterable[int]) -> Word:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("letter 0 is not allowed")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def concat(*parts: Iterable[int]) -> Word:
    """Reduced concatenation of any number of words."""
    merged: list[int] = []
    for part in parts:
        merged.extend(part)
    return reduce(merged)


def invert(word: Iterable[int]) -> Word:
    return tuple(map(neg, reversed(tuple(word))))


def power(word: Iterable[int], k: int) -> Word:
    base = tuple(word)
    if k < 0:
        base = invert(base)
        k = -k
    return reduce(base * k)


def conjugate(word: Iterable[int], by: Iterable[int]) -> Word:
    """w u w^-1 for u=word, w=by."""
    by = tuple(by)
    return concat(by, word, invert(by))


def cyclic_reduce(word: Iterable[int]) -> tuple[Word, Word]:
    """Split a word as (core, conjugator) with word = conjugator core conjugator^-1.

    The core is cyclically reduced.  The conjugator is the peeled prefix,
    possibly empty.
    """
    w = reduce(word)
    k = 0
    while len(w) - 2 * k >= 2 and w[k] == -w[-1 - k]:
        k += 1
    return w[k:len(w) - k], w[:k]


def solve_conjugacy(u: Iterable[int], v: Iterable[int]) -> Word | None:
    """Find w with u = w v w^-1 in the free group, or None.

    Conjugacy classes of a free group are cyclic rotations of cyclically
    reduced cores, so it suffices to rotate v's core onto u's.
    """
    u_core, p = cyclic_reduce(u)
    v_core, q = cyclic_reduce(v)
    if len(u_core) != len(v_core):
        return None
    if not u_core:
        return EPSILON
    for k in range(len(v_core)):
        if v_core[k:] + v_core[:k] == u_core:
            # u_core = r^-1 v_core r for r = v_core[:k], so
            # u = p u_core p^-1 = (p r^-1 q^-1) v (p r^-1 q^-1)^-1.
            return concat(p, invert(v_core[:k]), invert(q))
    return None


def substitute(word: Iterable[int], images: dict[int, Word]) -> Word:
    """Apply the homomorphism sending letter k to images[k].

    Images need only be given for positive letters; inverses are derived.
    Missing letters raise ValueError.
    """
    out: list[int] = []
    for letter in word:
        gen = abs(letter)
        if gen not in images:
            raise ValueError(f"no image for generator {gen}")
        image = images[gen]
        out.extend(image if letter > 0 else invert(image))
    return reduce(out)


def parse_word(text: str, n: int) -> Word:
    """Parse whitespace-separated tokens into a reduced word.

    Tokens: s<k> / S<k> for twist k and its inverse (1 <= k <= n-1),
    t / T for the reflection (an involution, so no separate inverse).
    """
    letters: list[int] = []
    for token in text.split():
        if token in ("t", "T"):
            letters.append(T_LETTER)
            continue
        if len(token) >= 2 and token[0] in ("s", "S") and token[1:].isdigit():
            idx = int(token[1:])
            if not 1 <= idx <= n - 1:
                raise ParseError(f"twist index {idx} out of range for n={n}")
            letters.append(idx if token[0] == "s" else -idx)
            continue
        raise ParseError(f"bad token {token!r}")
    return reduce(letters)


def format_word(word: Iterable[int]) -> str:
    """Inverse of parse_word on reduced words; empty word prints as ''."""
    parts = []
    for letter in word:
        if abs(letter) == T_LETTER:
            parts.append("t")
        elif letter > 0:
            parts.append(f"s{letter}")
        else:
            parts.append(f"S{-letter}")
    return " ".join(parts)
