import pytest

from spheremcg.action import FreeAut, equal_in_group
from spheremcg.words import EPSILON, T_LETTER, concat, invert


# Reference helpers the library itself has no use for; test modules
# import them with `from conftest import ...`.

def conjugate(word, by):
    """w u w^-1 for u=word, w=by."""
    by = tuple(by)
    return concat(by, word, invert(by))


def plain(f):
    """The automorphism f with its carried conjugator folded into the
    images: the literal image of each basis letter, so that two forms of
    one automorphism compare equal."""
    return FreeAut(f.n, tuple(conjugate(img, f.conj) for img in f.images))


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
                if not any(equal_in_group(w, known, n) for known in reps):
                    reps.append(w)
                    fresh.append(w)
        frontier = fresh
    return len(reps)


@pytest.fixture(scope="session")
def order_of_smallest_group():
    return cayley_order(3)
