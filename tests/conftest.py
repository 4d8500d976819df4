import pytest

from spheremcg.action import FreeAut, equal_with_witness
from spheremcg.words import EPSILON, T_LETTER, concat, invert


# Reference helpers the library itself has no use for; test modules
# import them with `from conftest import ...`.

def conjugate(word, by):
    """w u w^-1 for u=word, w=by."""
    by = tuple(by)
    return concat(by, word, invert(by))


def typed_inverse(word):
    """The inverse of a word as parse_expression reads it when typed: letters
    reversed and each twist negated, but t kept as +t, since t^-1 = t."""
    return tuple(x if x == T_LETTER else -x for x in reversed(word))


def plain(f):
    """The automorphism f with its carried conjugator folded into the
    images: the literal image of each basis letter, so that two forms of
    one automorphism compare equal."""
    return FreeAut(f.n, tuple(conjugate(img, f.conj) for img in f.images))


def generator_images(n):
    """The images of x1 .. x(n-1) under each signed generator letter,
    from the defining formulas alone.  si: xi -> xi x(i+1) xi^-1,
    x(i+1) -> xi, and si^-1: xi -> x(i+1), x(i+1) -> x(i+1)^-1 xi x(i+1);
    s(n-1) is the same swap of x(n-1) and xn = (x1..x(n-1))^-1; t and
    t^-1 are the prefix reflection xi -> ci xi^-1 ci^-1, ci = x1..x(i-1)."""
    basis = [(j,) for j in range(1, n)]
    table = {}
    for i in range(1, n - 1):
        fwd, inv = list(basis), list(basis)
        fwd[i - 1:i + 1] = (i, i + 1, -i), (i,)
        inv[i - 1:i + 1] = (i + 1,), (-(i + 1), i, i + 1)
        table[i], table[-i] = tuple(fwd), tuple(inv)
    last, xn = n - 1, invert(range(1, n))
    table[last] = (*basis[:-1], conjugate(xn, (last,)))
    table[-last] = (*basis[:-1], xn)
    table[T_LETTER] = table[-T_LETTER] = tuple(
        conjugate((-i,), range(1, i)) for i in range(1, n))
    return table


def reference_images(word, n):
    """The literal images of x1 .. x(n-1) under the word, letters applied
    right to left, composed one letter at a time by substituting the
    images so far into generator_images(n): no reflection rewrite, no
    peel and no product path."""
    gens = generator_images(n)
    images = tuple((j,) for j in range(1, n))
    for letter in word:
        signed = {j: img for j, img in enumerate(images, 1)}
        signed.update({-j: invert(img) for j, img in enumerate(images, 1)})
        images = tuple(concat(*(signed[x] for x in img)) for img in gens[letter])
    return images


def perm_compose(p, q):
    """p after q, for permutations given as tuples of images."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def cayley_order(n: int) -> int:
    """Brute-force group order through the action oracle: close the set
    of oracle-classes under right multiplication by generators.

    Independent of coset enumeration; only feasible for tiny n.
    """
    gens = [(i,) for i in range(1, n)] + [(T_LETTER,)]
    reps = [EPSILON]
    frontier = [EPSILON]
    while frontier:
        fresh = []
        for rep in frontier:
            for g in gens:
                w = concat(rep, g)
                if not any(equal_with_witness(w, known, n)[0] for known in reps):
                    reps.append(w)
                    fresh.append(w)
        frontier = fresh
    return len(reps)


@pytest.fixture(scope="session")
def order_of_smallest_group():
    return cayley_order(3)
