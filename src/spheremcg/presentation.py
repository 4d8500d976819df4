"""Finite presentations of the sphere braid twist groups, and named elements.

Generators are the half-twists s1 .. s(n-1); the extended flavor adds the
reflection t.  Relator labels are stable identifiers used by the harness
and the coset enumerator contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    EPSILON,
    ParseError,
    T_LETTER,
    Word,
    concat,
    format_word,
    parse_word,
    power,
    reduce,
)

FLAVORS = ("oriented", "extended")


@dataclass(frozen=True)
class Presentation:
    n: int
    flavor: str
    generators: tuple[int, ...]
    relators: tuple[Word, ...]
    labels: tuple[str, ...]

    def alphabet(self) -> frozenset[int]:
        return frozenset(self.generators) | frozenset(-g for g in self.generators)


def build_presentation(n: int, flavor: str = "oriented") -> Presentation:
    """Presentation of the twist group of the n-punctured sphere.

    oriented: generators s1..s(n-1); commutations for distant indices, braid
    relations for adjacent ones, the boundary relator, and the full twist.
    extended: additionally t with t^2 = 1 and t si t = si^-1.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 punctures, got {n}")
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")

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

    gens = tuple(range(1, n)) + ((T_LETTER,) if flavor == "extended" else ())
    return Presentation(n, flavor, gens, tuple(relators), tuple(labels))


def format_presentation(pres: Presentation) -> str:
    lines = [f"n={pres.n} flavor={pres.flavor}"]
    for label, rel in zip(pres.labels, pres.relators):
        lines.append(f"{label}: {format_word(rel)}")
    return "\n".join(lines)


def _gamma(k: int, n: int) -> Word:
    # Indices live on the odd cycle mod n; n even keeps them in 1..n-1.
    second = (k + 2) % n
    third = (k + 4) % n
    return reduce((k, second, -third))


def named_word(name: str, n: int) -> Word:
    """The distinguished elements, as words in the extended generators.

    a0, a1, a2 are the periodic rotations; a and b the two conjugated
    reflection-rotations; y, z, w, c the even-index products used in the
    generation argument; g<k> and d<k> the shifted triple products; phi
    the half-twist word reversing the twist indices.
    """
    if name == "a0":
        return tuple(range(1, n))
    if name == "a1":
        return tuple(range(1, n - 1))
    if name == "a2":
        if n < 4:
            raise ParseError(f"a2 needs n >= 4, got n={n}")
        return tuple(range(1, n - 2)) + (n - 2, n - 2)
    if name == "a":
        if n < 4:
            raise ParseError(f"a needs n >= 4, got n={n}")
        return reduce((n - 3, T_LETTER) + tuple(range(1, n)) + (-(n - 3),))
    if name == "b":
        if n < 4:
            raise ParseError(f"b needs n >= 4, got n={n}")
        return reduce((T_LETTER, -(n - 1)) + named_word("a2", n))
    if name == "y":
        if n < 4 or n % 2:
            raise ParseError(f"y needs even n >= 4, got n={n}")
        return tuple(range(1, n, 2))
    if name == "z":
        if n < 6 or n % 2:
            raise ParseError(f"z needs even n >= 6, got n={n}")
        return tuple(range(1, n - 4, 2)) + (n - 2,)
    if name == "w":
        if n < 6 or n % 2:
            raise ParseError(f"w needs even n >= 6, got n={n}")
        return (-(n - 2), 1)
    if name == "c":
        if n < 6 or n % 2:
            raise ParseError(f"c needs even n >= 6, got n={n}")
        return (-(n - 1), 1)
    if name == "phi":
        out: list[int] = []
        for i in range(1, n - 1):
            out.extend(range(i, 0, -1))
        return tuple(out)
    if name.startswith("g") and name[1:].lstrip("-").isdigit():
        k = int(name[1:])
        if n < 6 or n % 2:
            raise ParseError(f"g<k> needs even n >= 6, got n={n}")
        if k % 2 == 0 or not 1 <= k <= n - 1:
            raise ParseError(f"g index must be odd in 1..{n - 1}, got {k}")
        return _gamma(k, n)
    if name.startswith("d") and name[1:].lstrip("-").isdigit():
        k = int(name[1:])
        if n < 6:
            raise ParseError(f"d<k> needs n >= 6, got n={n}")
        if not 1 <= k <= n - 5:
            raise ParseError(f"d index must lie in 1..{n - 5}, got {k}")
        return (k, k + 1, k + 3)
    raise ParseError(f"unknown element name {name!r}")


# The fixed element names (g<k> and d<k> aside), in the order dump prints them.
NAME_HEADS = ("a0", "a1", "a2", "a", "b", "y", "z", "w", "c", "phi")


def parse_expression(text: str, n: int) -> Word:
    """Parse a product of word tokens and named elements into a reduced word.

    Any token may carry an integer power suffix: a0^-1, s2^3, b^2.
    """
    out: Word = EPSILON
    for token in text.split():
        base, caret, exp_text = token.partition("^")
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                raise ParseError(f"bad power suffix in {token!r}") from None
        else:
            exp = 1
        if base in NAME_HEADS or (base[:1] in ("g", "d") and base[1:].isdigit()):
            word = named_word(base, n)
        else:
            word = parse_word(base, n)
        out = concat(out, power(word, exp))
    return out

