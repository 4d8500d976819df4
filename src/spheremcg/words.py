"""Free reduction and conjugacy utilities for words over a signed alphabet.

A word is a tuple of nonzero ints.  Letter k > 0 is a generator, -k its
inverse.  Half-twist generators are 1, 2, 3, ...; the orientation-reversing
generator gets its own letter far above any twist index in use, so the two
ranges do not collide.
"""

from __future__ import annotations

from operator import neg
from typing import Iterable

Word = tuple[int, ...]

EPSILON: Word = ()

# Letter reserved for the reflection generator.  A twist index k < n
# would collide with it from n > 2**20 on, so such n are refused.
T_LETTER = 1 << 20


def require_punctures(n: int) -> None:
    """Refuse a puncture count outside 3 <= n <= T_LETTER."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > T_LETTER:
        raise ValueError(f"need n <= {T_LETTER}, got {n}")


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


def cyclic_core(w: Word) -> tuple[Word, Word]:
    """Split a freely reduced word as (core, conjugator) with
    w = conjugator core conjugator^-1 in the group.

    End letters are peeled while they are inverse in the group: x and -x,
    or two reflection letters of either sign, since t^-1 = t.  The
    conjugator is the peeled prefix, possibly empty.
    """
    k = 0
    while len(w) - 2 * k >= 2 and (w[k] == -w[-1 - k]
                                   or abs(w[k]) == abs(w[-1 - k]) == T_LETTER):
        k += 1
    return w[k:len(w) - k], w[:k]


def ascii_int(text: str, signed: bool = False) -> int | None:
    """The integer text writes in ASCII decimal digits, after one leading
    '-' if signed, or None: the one rule for the numbers of index and
    power tokens.  int() alone would also read other Unicode digits, a
    '+' and underscores, and str.isdigit() passes superscripts, which
    int() refuses, as it refuses more digits than the interpreter's
    limit on integer strings."""
    digits = text[1:] if signed and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def format_word(word: Iterable[int]) -> str:
    """The tokens parse_expression reads back as the word, if reduced;
    the empty word prints as ''."""
    parts = []
    for letter in word:
        if abs(letter) == T_LETTER:
            parts.append("t")
        elif letter > 0:
            parts.append(f"s{letter}")
        else:
            parts.append(f"S{-letter}")
    return " ".join(parts)
