"""Finite presentations of the sphere braid twist groups, and named elements.

Generators are the half-twists s1 .. s(n-1); the extended flavor adds the
reflection t.  Relator labels are stable identifiers used by the harness
and the coset enumerator contract.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from .words import (
    ParseError,
    T_LETTER,
    Word,
    ascii_int,
    concat,
    format_word,
    power,
    reduce,
    require_punctures,
)

FLAVORS = ("oriented", "extended")

# The one bound on letters: the default automorphism guard, the most
# letters the extended relators at one n may hold, and the longest word
# one expression may flatten to.
DEFAULT_LENGTH_GUARD = 10**6


class ResourceLimitError(RuntimeError):
    """Raised when automorphism images, or a presentation, outgrow a guard."""


class Presentation(NamedTuple):
    """A finite presentation, and words known to generate its group.

    spanning holds words that generate the presented group; the coset
    enumerator closes an index-1 run once each of them leads the
    subgroup coset back to itself.  The default () stands for every
    letter of the alphabet as a one-letter word.  build_presentation
    gives (t, s1, a0) for the extended flavor and (s1, a0) for the
    oriented one, with a0 = s1 s2 .. s(n-1): a0 si a0^-1 = s(i+1) for
    i <= n - 2, since a0 si is rewritten into s(i+1) a0 by relators
    alone, in three moves (Birman, Braids, Links, and Mapping Class
    Groups, 1974):
      1. si moves left past s(n-1), .., s(i+2), one comm relator each;
      2. si s(i+1) si becomes s(i+1) si s(i+1), by braid.i;
      3. s(i+1) moves left past s(i-1), .., s1, one comm relator each.
    So s1 and a0 give every si, and t the rest of the extended group.
    """

    n: int
    flavor: str
    generators: tuple[int, ...]
    relators: tuple[Word, ...]
    labels: tuple[str, ...]
    spanning: tuple[Word, ...] = ()

    def alphabet(self) -> frozenset[int]:
        return frozenset(self.generators) | frozenset(-g for g in self.generators)


def build_presentation(n: int, flavor: str) -> Presentation:
    """Presentation of the twist group of the n-punctured sphere.

    oriented: generators s1..s(n-1); commutations for distant indices, braid
    relations for adjacent ones, the boundary relator, and the full twist.
    extended: additionally t with t^2 = 1 and t si t = si^-1.

    The oracle validates the extended relators under the default guard,
    so an n whose extended relators would hold more letters than it is
    refused, for either flavor, before any relator is built.
    """
    require_punctures(n)
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    letters = extended_letters(n)
    if letters > DEFAULT_LENGTH_GUARD:
        raise ResourceLimitError(f"the extended relators at n={n} hold {letters} letters, "
                                 f"over the {DEFAULT_LENGTH_GUARD}-letter guard")

    relators: list[Word] = []
    labels: list[str] = []

    def add(label: str, word: Word) -> None:
        labels.append(label)
        relators.append(reduce(word))

    if flavor == "extended":
        add("t.invol", (T_LETTER, T_LETTER))
        for i in range(1, n):
            # (t si)^2 = 1 is equivalent to t si t = si^-1
            add(f"t.twist.{i}", (T_LETTER, i, T_LETTER, i))
    for i in range(1, n):
        for j in range(i + 2, n):
            add(f"comm.{i}.{j}", (i, j, -i, -j))
    for i in range(1, n - 1):
        add(f"braid.{i}", (i, i + 1, i, -(i + 1), -i, -(i + 1)))
    add("sphere", tuple(range(1, n)) + tuple(range(n - 1, 0, -1)))
    add("fulltwist", power(tuple(range(1, n)), n))

    gens = tuple(range(1, n))
    spanning = ((1,), tuple(range(1, n)))  # s1 and a0
    if flavor == "extended":
        gens += (T_LETTER,)
        spanning = ((T_LETTER,),) + spanning
    return Presentation(n, flavor, gens, tuple(relators), tuple(labels),
                        spanning=spanning)


def extended_letters(n: int) -> int:
    """Letters in the relators of build_presentation(n, "extended"),
    without building them: 2 for t^2, 4 per (t si)^2, 4 per commutator,
    6 per braid relator, 2(n - 1) for the sphere relator and n(n - 1) for
    the full twist."""
    return 3 * n * n + n - 4


def format_presentation(pres: Presentation) -> str:
    lines = [f"n={pres.n} flavor={pres.flavor}"]
    for label, rel in zip(pres.labels, pres.relators):
        lines.append(f"{label}: {format_word(rel)}")
    return "\n".join(lines)


def _gamma(n: int, k: int) -> Word:
    if k % 2 == 0 or not 1 <= k <= n - 1:
        raise ParseError(f"g index must be odd in 1..{n - 1}, got {k}")
    # Indices live on the odd cycle mod n; n even keeps them in 1..n-1.
    return reduce((k, (k + 2) % n, -((k + 4) % n)))


def _delta(n: int, k: int) -> Word:
    if not 1 <= k <= n - 5:
        raise ParseError(f"d index must lie in 1..{n - 5}, got {k}")
    return (k, k + 1, k + 3)


# Every named element, in the order dump prints them: the least n it
# needs (None for any n), whether n must be even, the number of letters
# of its word at n >= 3, counted without building it, and its word at n.
# a0, a1, a2 are the periodic rotations; a and b the two conjugated
# reflection-rotations; y, z, w, c the even-index products used in the
# generation argument; phi the half-twist word reversing the twist
# indices.  g<k> and d<k>, the shifted triple products, stand for g and
# d followed by an index k in ASCII digits; their words take k too, and
# dump skips them.
NAMES = {
    "a0": (None, False, lambda n: n - 1, lambda n: tuple(range(1, n))),
    "a1": (None, False, lambda n: n - 2, lambda n: tuple(range(1, n - 1))),
    "a2": (4, False, lambda n: n - 1, lambda n: tuple(range(1, n - 2)) + (n - 2, n - 2)),
    "a": (4, False, lambda n: n + 2,
          lambda n: reduce((n - 3, T_LETTER) + tuple(range(1, n)) + (-(n - 3),))),
    "b": (4, False, lambda n: n + 1,
          lambda n: reduce((T_LETTER, -(n - 1)) + named_word("a2", n))),
    "y": (4, True, lambda n: n // 2, lambda n: tuple(range(1, n, 2))),
    "z": (6, True, lambda n: n // 2 - 1, lambda n: tuple(range(1, n - 4, 2)) + (n - 2,)),
    "w": (6, True, lambda n: 2, lambda n: (-(n - 2), 1)),
    "c": (6, True, lambda n: 2, lambda n: (-(n - 1), 1)),
    "phi": (None, False, lambda n: (n - 1) * (n - 2) // 2,
            lambda n: tuple(chain.from_iterable(range(i, 0, -1) for i in range(1, n - 1)))),
    "g<k>": (6, True, lambda n: 3, _gamma),
    "d<k>": (6, False, lambda n: 3, _delta),
}


def _head(name: str) -> str | None:
    """The entry of NAMES that name reads as, g7 as g<k>, or None."""
    indexed = name[:1] + "<k>"
    if indexed in NAMES:
        return indexed if ascii_int(name[1:]) is not None else None
    return name if name in NAMES else None


def _defined_at(head: str, n: int) -> bool:
    least, even, _, _ = NAMES[head]
    return least is None or n >= least and not (even and n % 2)


def names_at(n: int) -> tuple[str, ...]:
    """The names defined at n, in table order; dump prints those whose
    word lies in its flavor's alphabet."""
    return tuple(name for name in NAMES if not name.endswith("<k>") and _defined_at(name, n))


def _entry(name: str, n: int) -> tuple:
    """The entry of NAMES a name reads as; a ParseError for any other
    name or outside the name's range."""
    head = _head(name)
    if head is None:
        raise ParseError(f"unknown element name {name!r}")
    least, even, _, _ = entry = NAMES[head]
    if not _defined_at(head, n):
        raise ParseError(f"{head} needs {'even ' if even else ''}n >= {least}, got n={n}")
    return entry


def named_letters(name: str, n: int) -> int:
    """The number of letters of named_word(name, n), counted from n
    without building the word."""
    return _entry(name, n)[2](n)


def named_word(name: str, n: int) -> Word:
    """The word, in the extended generators, that a name of NAMES stands
    for at n; a ParseError for any other name or outside the name's range."""
    build = _entry(name, n)[3]
    return build(n) if name in NAMES else build(n, int(name[1:]))


def parse_expressions(texts: Sequence[str], n: int) -> tuple[Word, ...]:
    """Parse products of tokens into reduced words, one per text.

    A token is a letter, s<k> / S<k> for twist k and its inverse
    (1 <= k <= n-1) or t / T for the reflection (an involution, so no
    separate inverse), or a name of NAMES.  Any token may carry a power
    suffix: a0^-1, s2^3, b^2.  Indices and powers are ASCII digits, a
    power after an optional '-', as ascii_int reads them.  The texts
    share one budget: once their tokens would together flatten past
    DEFAULT_LENGTH_GUARD letters, they are refused before any power is
    built.  A name's letters are counted from n, before its word is
    built.
    """
    parsed: list[list[tuple[Word, int]]] = []
    letters = 0
    for text in texts:
        factors: list[tuple[Word, int]] = []
        for token in text.split():
            base, caret, exp_text = token.partition("^")
            if not base:
                raise ParseError(f"bad token {token!r}")
            exp = ascii_int(exp_text, signed=True) if caret else 1
            if exp is None:
                raise ParseError(f"bad power suffix in {token!r}")
            idx = ascii_int(base[1:]) if base[:1] in ("s", "S") else None
            if base in ("t", "T"):
                word = (T_LETTER,)
            elif idx is not None:
                if not 1 <= idx <= n - 1:
                    raise ParseError(f"twist index {idx} out of range for n={n}")
                word = (idx if base[0] == "s" else -idx,)
            elif _head(base) is not None:
                word = None  # a name, built once its letters are counted
            else:
                raise ParseError(f"bad token {base!r}")
            letters += (len(word) if word else named_letters(base, n)) * abs(exp)
            if letters > DEFAULT_LENGTH_GUARD:
                raise ParseError(f"{','.join(texts)!r} flattens past "
                                 f"{DEFAULT_LENGTH_GUARD} letters")
            factors.append((word or named_word(base, n), exp))
        parsed.append(factors)
    return tuple(concat(*(power(word, exp) for word, exp in factors)) for factors in parsed)


def parse_expression(text: str, n: int) -> Word:
    """The word of one expression, as parse_expressions reads it."""
    return parse_expressions([text], n)[0]
