import contextlib
import hashlib
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremcg import coset
from spheremcg.action import equal_with_witness
from spheremcg.coset import enumerate_cosets
from spheremcg.homs import perm_image
from spheremcg.presentation import Presentation, build_presentation, named_word
from spheremcg.words import T_LETTER, concat, invert

T = T_LETTER


def toy(generators, relators, labels=None):
    labels = labels or tuple(f"r{i}" for i in range(len(relators)))
    return Presentation(n=3, flavor="oriented", generators=tuple(generators),
                        relators=tuple(relators), labels=tuple(labels))


CYCLIC_5 = toy((1,), [(1,) * 5])
SYM_3 = toy((1, 2), [(1, 1), (2, 2), (1, 2) * 3])
QUATERNION = toy((1, 2), [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, 2, -1)])


class TestSmallGroups:
    def test_cyclic(self):
        result = enumerate_cosets(CYCLIC_5)
        assert (result.status, result.reason) == ("finished", None)
        assert result.index == 5

    def test_symmetric(self):
        assert enumerate_cosets(SYM_3).index == 6

    def test_quaternion(self):
        assert enumerate_cosets(QUATERNION).index == 8

    def test_subgroup_of_symmetric(self):
        assert enumerate_cosets(SYM_3, ((1,),)).index == 3
        assert enumerate_cosets(SYM_3, ((1, 2),)).index == 2

    def test_whole_group_as_subgroup(self):
        assert enumerate_cosets(SYM_3, ((1,), (2,))).index == 1


class TestGenerationCertificates:
    def test_twist_subgroup_has_index_two(self):
        pres = build_presentation(6, "extended")
        subgens = tuple((i,) for i in range(1, 6))
        assert enumerate_cosets(pres, subgens).index == 2

    def test_even_two_generator_certificate(self):
        pres = build_presentation(6, "extended")
        subgens = (named_word("a", 6), named_word("b", 6))
        result = enumerate_cosets(pres, subgens)
        assert result.status == "finished"
        assert result.index == 1
        # the run closes once every spanning word fixes coset 0, instead
        # of collapsing every other coset into it one by one
        assert result.stats.collapses < result.stats.defined - 1
        table = result.table
        assert table.rows == ((0,) * len(table.letters),)
        assert table.verify(pres, subgens)

    @pytest.mark.parametrize("pres", (SYM_3, build_presentation(3, "extended")))
    def test_merge_into_base_coset_does_not_close_early(self, pres):
        # the unreduced word s1 s1^-1 s1 makes the scan merge a coset into
        # coset 0 while row 0 is still incomplete: the close must wait
        # until every spanning word (every column, for the toy group)
        # leads back to 0
        result = enumerate_cosets(pres, ((1, -1, 1),))
        assert result.index > 1
        assert result.table.rows == enumerate_cosets(pres, ((1,),)).table.rows

    @pytest.mark.parametrize("n", range(4, 9))
    def test_puncture_stabilizer_matches_permutation_quotient(self, n):
        # <s1..s(n-2), s(n-1)^2, t> is the preimage of the stabilizer of
        # puncture n: its cosets are the punctures, acted on as perm_image says
        pres = build_presentation(n, "extended")
        subgens = tuple((i,) for i in range(1, n - 1)) + ((n - 1, n - 1), (T,))
        assert all(perm_image(w, n)[n - 1] == n for w in subgens)
        result = enumerate_cosets(pres, subgens)
        assert result.status == "finished"
        assert result.index == n
        table = result.table
        # label coset H w by the puncture that perm_image(w) sends to n
        puncture = {0: n}
        for coset in range(table.index):  # standardized rows are in BFS order
            for letter, target in zip(table.letters, table.rows[coset]):
                moved = perm_image((letter,), n).index(puncture[coset]) + 1
                assert puncture.setdefault(target, moved) == moved
        assert sorted(puncture.values()) == list(range(1, n + 1))

    @pytest.mark.parametrize("n", (5, 7))
    def test_odd_two_generator_certificate(self, n):
        pres = build_presentation(n, "extended")
        subgens = ((T, 1), (T,) + named_word("a0", n))
        assert enumerate_cosets(pres, subgens).index == 1

    def test_three_torsion_generators_at_four_punctures(self):
        pres = build_presentation(4, "extended")
        subgens = ((T,), (T, 1), named_word("a0", 4))
        assert enumerate_cosets(pres, subgens).index == 1

    def test_trivial_subgroup_gives_group_order(self, order_of_smallest_group):
        pres = build_presentation(3, "extended")
        result = enumerate_cosets(pres)
        assert result.index == 12
        assert result.index == order_of_smallest_group


# finite groups with faithful permutation images of their generators:
# S4 as a Coxeter group on the transpositions (1 2), (2 3), (3 4), and A5
# as <a, b | a^2, b^3, (ab)^5> with a = (1 2)(3 4), b = (1 3 5)
SYM_4 = toy((1, 2, 3), [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2])
ALT_5 = toy((1, 2), [(1, 1), (2, 2, 2), (1, 2) * 5])
PERMUTATION_GROUPS = {
    "S4": (SYM_4, 24, {1: (1, 0, 2, 3), 2: (0, 2, 1, 3), 3: (0, 1, 3, 2)}),
    "A5": (ALT_5, 60, {1: (1, 0, 3, 2, 4), 2: (2, 1, 4, 3, 0)}),
}


def perm_of(word, images):
    """The permutation a word induces, letters acting left to right."""
    degree = len(next(iter(images.values())))
    perm = tuple(range(degree))
    for letter in word:
        image = images[abs(letter)]
        if letter < 0:
            image = tuple(image.index(i) for i in range(degree))
        perm = tuple(image[p] for p in perm)
    return perm


def closure_order(generators, degree):
    """Order of the permutation group the given permutations generate."""
    identity = tuple(range(degree))
    seen, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for p in frontier:
            for g in generators:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return len(seen)


@pytest.mark.parametrize("name", PERMUTATION_GROUPS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_index_matches_permutation_closure(name, data):
    pres, order, images = PERMUTATION_GROUPS[name]
    degree = len(images[1])
    identity = tuple(range(degree))
    assert all(perm_of(rel, images) == identity for rel in pres.relators)
    assert closure_order(list(images.values()), degree) == order
    letters = sorted(pres.alphabet())
    subgens = tuple(map(tuple, data.draw(st.lists(
        st.lists(st.sampled_from(letters), min_size=1, max_size=6), max_size=3))))
    result = enumerate_cosets(pres, subgens)
    assert result.status == "finished"
    subgroup = closure_order([perm_of(w, images) for w in subgens], degree)
    assert result.index == order // subgroup


# runs the spanning close must leave as they were: each as built, and
# with spanning () so the run waits until every column of coset 0 leads
# back to 0
UNCHANGED_CASES = (
    [("t s1, t a0", n, ((T, 1), (T,) + named_word("a0", n))) for n in range(3, 22, 2)]
    + [("ab", n, (named_word("a", n), named_word("b", n))) for n in range(6, 13, 2)]
    + [("t, t s1, a0", 4, ((T,), (T, 1), named_word("a0", 4)))]
    + [("s1..s(n-1)", n, tuple((i,) for i in range(1, n))) for n in range(5, 9)])


@pytest.mark.parametrize("n, subgens", [case[1:] for case in UNCHANGED_CASES],
                         ids=[f"{s}-n{n}" for s, n, _ in UNCHANGED_CASES])
def test_spanning_close_changes_no_answer(n, subgens):
    pres = build_presentation(n, "extended")
    early = enumerate_cosets(pres, subgens)
    late = enumerate_cosets(pres._replace(spanning=()), subgens)
    assert early.status == late.status == "finished"
    assert (early.index, early.table) == (late.index, late.table)
    assert early.stats.defined <= late.stats.defined


def test_two_spanning_words_do_not_close():
    # <t, s1> holds t and s1 but not a0, and has infinite index
    result = enumerate_cosets(build_presentation(5, "extended"), ((T,), (1,)),
                              max_cosets=5000)
    assert (result.status, result.index) == ("overflow", None)


class TestTableInvariants:
    def test_relators_close_at_every_coset(self):
        pres = build_presentation(3, "extended")
        table = enumerate_cosets(pres).table
        for coset in range(table.index):
            for rel in pres.relators:
                assert table.trace(coset, rel) == coset

    def test_subgroup_generators_fix_base_coset(self):
        table = enumerate_cosets(SYM_3, ((1,),)).table
        assert table.trace(0, (1,)) == 0

    def test_relator_order_does_not_change_standardized_table(self):
        pres = build_presentation(3, "extended")
        shuffled = Presentation(
            n=pres.n, flavor=pres.flavor, generators=pres.generators,
            relators=tuple(reversed(pres.relators)),
            labels=tuple(reversed(pres.labels)),
        )
        assert enumerate_cosets(pres).table.rows == \
            enumerate_cosets(shuffled).table.rows

    def test_determinism(self):
        first = enumerate_cosets(QUATERNION)
        second = enumerate_cosets(QUATERNION)
        assert first.table.rows == second.table.rows
        assert first.stats.defined == second.stats.defined

    def test_monotone_in_subgroup_generators(self):
        pres = build_presentation(3, "extended")
        chains = ((), ((1,),), ((1,), (2,)), ((1,), (2,), (T,)))
        indices = [enumerate_cosets(pres, s).index for s in chains]
        assert indices[0] == 12 and indices[-1] == 1
        assert all(a >= b for a, b in zip(indices, indices[1:]))

    # C2 = <x | x^2> and four tables that each break one condition
    # verify checks; the first, the regular action, passes
    @pytest.mark.parametrize("rows, subgens, valid", [
        (((1, 1), (0, 0)), (), True),
        (((1, 2), (0, 0)), (), False),  # an entry names no row
        (((1, 0), (0, 1)), (), False),  # the x and x^-1 columns are not inverse
        (((1, 2), (2, 0), (0, 1)), (), False),  # x^2 does not close: a 3-cycle
        (((1, 1), (0, 0)), ((1,),), False),  # x moves coset 0
    ], ids=["regular", "out-of-range", "not-inverse", "relator-open", "subgroup-moves"])
    def test_verify_refuses_a_broken_table(self, rows, subgens, valid):
        table = coset.CosetTable((1, -1), rows)
        assert table.verify(toy((1,), [(1, 1)]), subgens) is valid

    def test_enumeration_refuses_a_table_that_fails_verification(self, monkeypatch):
        standardized = coset._Enumerator.standardized

        def reversed_rows(self):
            table = standardized(self)
            return table._replace(rows=table.rows[::-1])

        monkeypatch.setattr(coset._Enumerator, "standardized", reversed_rows)
        with pytest.raises(RuntimeError, match="failed verification"):
            enumerate_cosets(CYCLIC_5)

    def test_stats_accounting(self):
        result = enumerate_cosets(CYCLIC_5)
        assert result.stats.defined >= result.index
        assert result.stats.max_alive >= result.index
        assert result.stats.seconds >= 0.0


class TestLimits:
    def test_coset_budget_overflow(self):
        result = enumerate_cosets(CYCLIC_5, max_cosets=3)
        assert (result.status, result.reason) == ("overflow", "coset limit 3")
        assert result.index is None
        assert result.table is None
        assert result.stats.defined <= 4

    @pytest.mark.parametrize("n, subgens", [(6, ((1,),)), (5, ())])
    def test_infinite_index_overflows(self, n, subgens):
        # <s1> at n = 6 and the trivial subgroup at n = 5 have infinite
        # index: no deduction or coincidence may close the table
        result = enumerate_cosets(build_presentation(n, "extended"), subgens,
                                  max_cosets=20000)
        assert (result.status, result.table) == ("overflow", None)

    def test_open_entry_after_a_clean_sweep_overflows_at_once(self):
        # y occurs in no relator of <x, y | x^2>, so the first clean sweep
        # leaves its column open: that shows the index infinite, and the
        # run stops there instead of defining cosets up to the limit
        result = enumerate_cosets(toy((1, 2), [(1, 1)]), max_cosets=10**5)
        assert (result.status, result.table) == ("overflow", None)
        assert result.reason == "infinite index (entry open after a clean sweep)"
        assert result.stats.defined == 2

    def test_time_budget_overflow(self):
        pres = build_presentation(6, "extended")
        result = enumerate_cosets(pres, (), max_cosets=10**9, max_time=0.05)
        assert (result.status, result.reason) == ("overflow", "time limit 0.05s")

    def test_alphabet_validation(self):
        pres = build_presentation(6, "oriented")
        with pytest.raises(ValueError, match=r"^subgroup word letter t outside the alphabet$"):
            enumerate_cosets(pres, ((T,),))


@pytest.mark.parametrize("flavor", ("oriented", "extended"))
@pytest.mark.parametrize("n", range(3, 13))
def test_every_generator_occurs_in_a_relator(n, flavor):
    # so every clean sweep over a presentation the package builds leaves
    # a complete table, and its runs never end on an open entry
    pres = build_presentation(n, flavor)
    assert {abs(letter) for rel in pres.relators for letter in rel} == set(pres.generators)


# the symmetric group S6 as a Coxeter group: 720 cosets of the trivial subgroup
SYM_6 = toy(range(1, 6), [(i, i) for i in range(1, 6)]
            + [(i, i + 1) * 3 for i in range(1, 5)]
            + [(i, j) * 2 for i in range(1, 6) for j in range(i + 2, 6)])
GROWTH_CASES = [(SYM_6, ()),
                (build_presentation(6, "extended"), (named_word("a", 6), named_word("b", 6)))]


def grown(pres, subgens, max_cosets=coset.DEFAULT_MAX_COSETS):
    """The enumerator after a run, however the run ended."""
    enum = coset._Enumerator(pres, tuple(subgens), max_cosets, 60.0)
    with contextlib.suppress(coset._IndexOne, coset._Overflow):
        enum.run()
    return enum


# S6 in full, then <a, b> at n = 6, which closes at index 1; with a
# limit of 100 cosets, which counts dead rows too, both overflow.  The digest pins the rows of the
# standardized S6 table.
GROWTH_RUNS = [(GROWTH_CASES[0], coset.DEFAULT_MAX_COSETS, 720, (1122, 726, 402), "6a246cf152c90f44"),
               (GROWTH_CASES[1], coset.DEFAULT_MAX_COSETS, 1, (592, 566, 286), None),
               (GROWTH_CASES[0], 100, None, (100, 88, 12), None),
               (GROWTH_CASES[1], 100, None, (100, 100, 0), None)]


@pytest.mark.parametrize("case, max_cosets, index, counts, digest", GROWTH_RUNS,
                         ids=("S6", "ab6-index-1", "S6-overflow", "ab6-overflow"))
def test_table_holds_one_row_per_defined_coset(case, max_cosets, index, counts, digest):
    # every definition appends one blank row and nothing else grows it,
    # so the table ends exactly as long as the cosets defined
    enum = grown(*case, max_cosets=max_cosets)
    assert len(enum.table) == len(enum.parent) * enum.width
    assert (len(enum.parent), enum.max_alive, enum.collapses) == counts
    result = enumerate_cosets(*case, max_cosets=max_cosets)
    assert (result.index, tuple(result.stats)[:3]) == (index, counts)
    if max_cosets == 100:
        assert (result.reason, result.table) == ("coset limit 100", None)
        assert len(enum.parent) <= max_cosets  # the limit bounds the rows held
    if digest:
        assert hashlib.sha256(repr(result.table.rows).encode()).hexdigest()[:16] == digest


def test_table_is_assigned_once_per_run(monkeypatch):
    # the table grows in place, so references taken before a definition
    # stay valid: the attribute is never rebound, and starts as one row
    assigned = []

    def spy(self, name, value):
        if name == "table":
            assigned.append(len(value))
        object.__setattr__(self, name, value)

    monkeypatch.setattr(coset._Enumerator, "__setattr__", spy)
    for p, s in GROWTH_CASES:
        assigned.clear()
        enumerate_cosets(p, s)
        assert assigned == [2 * len(p.generators)]


def test_standardized_refuses_a_dropped_coset():
    # the check holds under python -O, where an assert would be stripped
    enum = coset._Enumerator(SYM_3, ((1,),), max_cosets=1000, max_time=60.0)
    enum.run()
    assert enum.standardized().index == 3
    enum.collapses -= 1  # one more live coset than the table reaches
    with pytest.raises(RuntimeError):
        enum.standardized()


def relator_columns(pres):
    _, col, scan, records = coset._layout(pres.generators, pres.relators)
    return [tuple(col[letter] for letter in rel) for rel in pres.relators], scan, records


class TestScanOrder:
    """The sweeps scan the relators in the presentation's order with the
    braid relations, x y x Y X Y, moved to the end; the deduction pass
    keeps the presentation's order."""

    @pytest.mark.parametrize("n", (3, 4, 6, 9))
    def test_braid_relations_are_scanned_last(self, n):
        pres = build_presentation(n, "extended")
        rels, scan, _ = relator_columns(pres)
        braid = [rel for rel, label in zip(rels, pres.labels) if label.startswith("braid.")]
        rest = [rel for rel, label in zip(rels, pres.labels) if not label.startswith("braid.")]
        assert len(braid) == n - 2
        assert scan == tuple(rest + braid)

    @pytest.mark.parametrize("pres", (SYM_3, QUATERNION, SYM_4, ALT_5, SYM_6),
                             ids=("S3", "Q8", "S4", "A5", "S6"))
    def test_order_is_kept_without_a_braid_relation(self, pres):
        # (x y)^3 is a braid relation only up to x^2 = y^2 = 1: the shape is kept
        rels, scan, _ = relator_columns(pres)
        assert scan == tuple(rels)

    def test_braid_shape_moves_in_any_presentation(self):
        pres = toy((1, 2), [(-1, 2, -1, -2, 1, -2), (1, 1), (1, 2, 1, -2, -1, 2), (2, 2)])
        rels, scan, _ = relator_columns(pres)
        assert scan == (rels[1], rels[2], rels[3], rels[0])

    @pytest.mark.parametrize("n, long_relators", [(4, ["fulltwist"]),
                                                  (6, ["sphere", "fulltwist"]),
                                                  (9, ["sphere", "fulltwist"])],
                             ids=("4", "6", "9"))
    def test_deduction_records_keep_the_presentation_order(self, n, long_relators):
        # each column's records are every cyclic conjugate of at most six
        # letters of a relator or its inverse that begins with it, once,
        # grouped by the first relator that has it, in the presentation's
        # order; a relator of more than six letters has none
        pres = build_presentation(n, "extended")
        rels, _, records = relator_columns(pres)
        assert [label for label, rel in zip(pres.labels, rels) if len(rel) > 6] == long_relators
        conjugates = [{w[s:] + w[:s] for w in (rel, tuple(c ^ 1 for c in reversed(rel)))
                       for s in range(len(w))} if len(rel) <= 6 else set() for rel in rels]
        for c, bucket in enumerate(records):
            cycles = [(c, *r[1:4]) if r[0] == 3 else r[1] for r in bucket]
            assert all(len(w) <= 6 for w in cycles)
            assert len(set(cycles)) == len(cycles)
            assert set(cycles) == {w for ws in conjugates for w in ws if w[0] == c}
            first = [next(i for i, ws in enumerate(conjugates) if w in ws) for w in cycles]
            assert first == sorted(first)

    def test_sweeps_decide_a_relator_without_records(self):
        # x^7 is too long for the deduction pass, so the sweeps alone
        # close its seven cosets
        pres = toy((1,), [(1,) * 7])
        assert coset._layout(pres.generators, pres.relators)[3] == ((), ())
        result = enumerate_cosets(pres)
        assert (result.status, result.index) == ("finished", 7)
        assert result.table.verify(pres, ())


PINNED_SUBGROUPS = {
    "ab": lambda n: (named_word("a", n), named_word("b", n)),
    "t s1, t a0": lambda n: ((T, 1), (T,) + named_word("a0", n)),
    "t s3, s2^-1": lambda n: ((T, 3), (-2,)),
    "trivial": lambda n: (),
    "s1..s11": lambda n: tuple((i,) for i in range(1, n)),
}

# (index, defined, max_alive, collapses) of runs whose every step is
# fixed: a change that makes each step cheaper must not move them.  The
# index-1 certificates close at the first merge into coset 0 after which
# t, s1 and a0 each lead coset 0 back to itself; waiting for every column
# of coset 0 instead took 312, 861 and 3,557 collapses for <t s1, t a0>
# at n = 9, 15 and 31 (at ab n = 16 both wait for the same merge).  The
# counts are those of the scan order TestScanOrder pins, braid relations
# last.  <t s3, s2^-1> at n = 4
# merges away a coset while a sweep scans its relators, so the sweep
# leaves it there.
PINNED_STATS = [
    ("ab", 6, 1, 592, 566, 286),
    ("ab", 8, 1, 3119, 2831, 979),
    ("ab", 12, 1, 5330, 5214, 2400),
    ("ab", 16, 1, 12708, 12492, 5143),
    ("t s1, t a0", 9, 1, 313, 313, 68),
    ("t s1, t a0", 15, 1, 862, 862, 200),
    ("t s1, t a0", 31, 1, 3558, 3558, 904),
    ("t s3, s2^-1", 4, 4, 28, 28, 24),
    ("trivial", 3, 12, 23, 23, 11),
    ("s1..s11", 12, 2, 2, 2, 0),
]


@pytest.mark.parametrize("subgroup, n, index, defined, max_alive, collapses", PINNED_STATS,
                         ids=[f"{s}-n{n}" for s, n, *_ in PINNED_STATS])
def test_index_one_stats_are_pinned(subgroup, n, index, defined, max_alive, collapses):
    subgens = PINNED_SUBGROUPS[subgroup](n)
    result = enumerate_cosets(build_presentation(n, "extended"), subgens)
    assert result.index == index
    s = result.stats
    assert (s.defined, s.max_alive, s.collapses) == (defined, max_alive, collapses)


def test_overflow_stats_are_pinned():
    result = enumerate_cosets(build_presentation(5, "extended"), max_cosets=20000)
    s = result.stats
    assert (result.status, s.defined, s.max_alive, s.collapses) == \
        ("overflow", 20000, 13675, 6406)


def test_deduction_follows_a_target_merged_since_it_was_stacked(monkeypatch):
    # a coincidence can merge away the target t of a stacked entry
    # (k, c) -> t while k survives; the pass then traces from find(t).
    # <t s2 s1 s3 t, s2 s4> at n = 6 pops such entries.
    merged = []

    class Stack(list):
        def __init__(self, enum):
            super().__init__()
            self.enum = enum

        def pop(self):
            k, c = entry = super().pop()
            enum = self.enum
            t = enum.table[k * enum.width + c]
            if t != coset.UNDEF and enum.parent[t] != t:
                merged.append(entry)
            return entry

    init = coset._Enumerator.__init__

    def recording(self, *args):
        init(self, *args)
        self.stack = Stack(self)

    monkeypatch.setattr(coset._Enumerator, "__init__", recording)
    pres = build_presentation(6, "extended")
    subgens = ((T, 2, 1, 3, T), (2, 4))
    result = enumerate_cosets(pres, subgens)
    assert merged
    s = result.stats
    assert (result.index, s.defined, s.max_alive, s.collapses) == (12, 870, 852, 858)
    assert len(result.table.rows) == 12 and result.table.verify(pres, subgens)


# Finished coset tables with more than one row, by n: the subgroups
# <t s1, a0> (index 5 at n = 6, 9 at n = 10) and <t s1, a> (index 6 at
# n = 10).  Each is a permutation action of the group on the cosets, so
# one more finite quotient.
QUOTIENT_TABLES = {6: (("a0", 5),), 10: (("a0", 9), ("a", 6))}


@lru_cache(maxsize=None)
def quotient_tables(n):
    tables = []
    for name, index in QUOTIENT_TABLES[n]:
        pres = build_presentation(n, "extended")
        subgens = ((T, 1), named_word(name, n))
        result = enumerate_cosets(pres, subgens)
        assert result.index == index and result.table.verify(pres, subgens)
        tables.append(result.table)
    return tables


def _words(n, max_size):
    letters = [T] + [s * i for i in range(1, n) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_oracle_agrees_with_finished_coset_tables(data):
    # words the oracle calls equal act alike on every coset, so a pair a
    # table separates gets "not equal".  A relator conjugate makes an
    # equal pair; a square keeps the mod-2 image, so the pairs it makes
    # often pass both quotients and are separated by a table alone
    n = data.draw(st.sampled_from(sorted(QUOTIENT_TABLES)))
    u, g = data.draw(_words(n, 8)), data.draw(_words(n, 4))
    inserted = data.draw(st.booleans())
    if inserted:
        rel = data.draw(st.sampled_from(build_presentation(n, "extended").relators))
        v = concat(u, g, rel, invert(g))
    else:
        v = concat(u, g, g)
    equal = equal_with_witness(u, v, n)[0]
    alike = all(table.trace(k, u) == table.trace(k, v)
                for table in quotient_tables(n) for k in range(table.index))
    if equal:
        assert alike
    if inserted:
        assert equal
