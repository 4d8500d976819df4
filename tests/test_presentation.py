import pytest

from spheremcg.presentation import (
    DEFAULT_LENGTH_GUARD,
    FLAVORS,
    ResourceLimitError,
    build_presentation,
    extended_letters,
    format_presentation,
    named_letters,
    named_word,
    names_at,
    parse_expression,
)
from spheremcg.words import EPSILON, ParseError, T_LETTER, invert, power, reduce

T = T_LETTER


class TestBuildPresentation:
    def test_smallest_extended_count(self):
        pres = build_presentation(3, "extended")
        assert pres.generators == (1, 2, T)
        assert build_presentation(3, "oriented").generators == (1, 2)
        assert len(pres.relators) == 6

    def test_six_puncture_counts(self):
        assert len(build_presentation(6, "extended").relators) == 18
        assert len(build_presentation(6, "oriented").relators) == 12

    @pytest.mark.parametrize("n", range(3, 41))
    def test_extended_letter_count(self, n):
        pres = build_presentation(n, "extended")
        assert extended_letters(n) == sum(map(len, pres.relators))

    def test_oriented_has_no_reflection(self):
        pres = build_presentation(6, "oriented")
        assert all(T not in (abs(x) for x in rel) for rel in pres.relators)

    def test_full_twist_relator_present(self):
        pres = build_presentation(6, "extended")
        by_label = dict(zip(pres.labels, pres.relators))
        assert by_label["fulltwist"] == tuple(range(1, 6)) * 6
        assert by_label["sphere"] == (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)

    def test_braid_and_commutation_shapes(self):
        pres = build_presentation(5, "oriented")
        by_label = dict(zip(pres.labels, pres.relators))
        assert by_label["braid.1"] == (1, 2, 1, -2, -1, -2)
        assert by_label["comm.1.3"] == (1, 3, -1, -3)

    def test_reflection_relators(self):
        pres = build_presentation(4, "extended")
        by_label = dict(zip(pres.labels, pres.relators))
        assert by_label["t.invol"] == (T, T)
        assert by_label["t.twist.2"] == (T, 2, T, 2)

    def test_labels_align_with_relators(self):
        pres = build_presentation(7, "extended")
        assert len(pres.labels) == len(pres.relators)
        assert len(set(pres.labels)) == len(pres.labels)

    def test_extended_contains_oriented(self):
        small = build_presentation(8, "oriented")
        big = build_presentation(8, "extended")
        assert set(small.relators) <= set(big.relators)

    def test_relators_reduced_and_nonempty(self):
        for flavor in ("oriented", "extended"):
            for rel in build_presentation(9, flavor).relators:
                assert rel and reduce(rel) == rel

    def test_too_few_punctures(self):
        with pytest.raises(ValueError):
            build_presentation(2, "oriented")

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_letter_bound_is_checked_before_any_relator(self, monkeypatch, flavor):
        # 3n^2 + n - 4 letters first exceed the default guard at n = 578
        def refuse(word):
            raise AssertionError("a relator was built")
        monkeypatch.setattr("spheremcg.presentation.reduce", refuse)
        with pytest.raises(ResourceLimitError, match="n=578 hold 1002826 letters"):
            build_presentation(578, flavor)
        with pytest.raises(AssertionError, match="a relator was built"):
            build_presentation(577, flavor)

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            build_presentation(6, "signed")

    def test_dump_format(self):
        text = format_presentation(build_presentation(3, "extended"))
        lines = text.splitlines()
        assert lines[0] == "n=3 flavor=extended"
        assert any(line.startswith("t.invol: t t") for line in lines[1:])
        assert len(lines) == 7


class TestSpanningWords:
    """t, s1 and a0 = s1..s(n-1) generate the group: a0 si is rewritten
    into s(i+1) a0 by relators of the built presentation alone, so
    a0 si a0^-1 = s(i+1) and s1, a0 give every si."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", range(3, 41))
    def test_a0_conjugates_each_half_twist_to_the_next(self, n, flavor):
        pres = build_presentation(n, flavor)
        a0 = named_word("a0", n)
        reflection = ((T,),) if flavor == "extended" else ()
        assert pres.spanning == reflection + ((1,), a0)
        # a cyclic conjugate is as long as its relator, and every move
        # below swaps a four- or six-letter relator
        cycles = {rel[k:] + rel[:k] for r in pres.relators if len(r) <= 6
                  for rel in (r, invert(r)) for k in range(len(rel))}

        def move(word, at, u, v):
            assert word[at:at + len(u)] == u
            assert u + invert(v) in cycles
            return word[:at] + v + word[at + len(u):]

        for i in range(1, n - 1):
            word = a0 + (i,)
            # 1. si moves left past s(n-1), .., s(i+2)
            for j in range(n - 1, i + 1, -1):
                word = move(word, j - 1, (j, i), (i, j))
            # 2. braid.i
            word = move(word, i - 1, (i, i + 1, i), (i + 1, i, i + 1))
            # 3. s(i+1) moves left past s(i-1), .., s1
            for j in range(i - 1, 0, -1):
                word = move(word, j - 1, (j, i + 1), (i + 1, j))
            assert word == (i + 1,) + a0


class TestNamedWords:
    def test_rotations(self):
        assert named_word("a0", 6) == (1, 2, 3, 4, 5)
        assert named_word("a1", 6) == (1, 2, 3, 4)
        assert named_word("a2", 6) == (1, 2, 3, 4, 4)

    def test_twisted_rotation_conjugate(self):
        assert named_word("a", 6) == (3, T, 1, 2, 3, 4, 5, -3)

    def test_reflected_rotation(self):
        assert named_word("b", 6) == (T, -5, 1, 2, 3, 4, 4)

    def test_odd_index_products(self):
        assert named_word("y", 6) == (1, 3, 5)
        assert named_word("z", 6) == (1, 4)
        assert named_word("z", 8) == (1, 3, 6)

    def test_target_pairs(self):
        assert named_word("w", 6) == (-4, 1)
        assert named_word("c", 6) == (-5, 1)

    def test_triple_products_wrap(self):
        assert named_word("g1", 6) == (1, 3, -5)
        assert named_word("g3", 6) == (3, 5, -1)
        assert named_word("g5", 6) == (5, 1, -3)
        assert named_word("d1", 8) == (1, 2, 4)

    def test_half_twist_word(self):
        assert named_word("phi", 6) == (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)

    def test_validity_ranges(self):
        with pytest.raises(ParseError):
            named_word("g2", 6)
        with pytest.raises(ParseError):
            named_word("g1", 5)
        with pytest.raises(ParseError):
            named_word("d2", 6)
        with pytest.raises(ParseError):
            named_word("q", 6)
        with pytest.raises(ParseError):
            named_word("z", 4)

    @pytest.mark.parametrize("name, n, message", [
        ("a2", 3, "a2 needs n >= 4, got n=3"),
        ("a", 3, "a needs n >= 4, got n=3"),
        ("b", 0, "b needs n >= 4, got n=0"),
        ("y", 2, "y needs even n >= 4, got n=2"),
        ("y", 5, "y needs even n >= 4, got n=5"),
        ("z", 4, "z needs even n >= 6, got n=4"),
        ("z", 7, "z needs even n >= 6, got n=7"),
        ("w", 4, "w needs even n >= 6, got n=4"),
        ("w", 9, "w needs even n >= 6, got n=9"),
        ("c", 4, "c needs even n >= 6, got n=4"),
        ("c", 7, "c needs even n >= 6, got n=7"),
        ("g1", 7, "g<k> needs even n >= 6, got n=7"),
        ("g2", 4, "g<k> needs even n >= 6, got n=4"),  # n is checked first
        ("g2", 8, "g index must be odd in 1..7, got 2"),
        ("g9", 8, "g index must be odd in 1..7, got 9"),
        ("d1", 5, "d<k> needs n >= 6, got n=5"),
        ("d9", 3, "d<k> needs n >= 6, got n=3"),
        ("d2", 6, "d index must lie in 1..1, got 2"),
        ("d0", 7, "d index must lie in 1..2, got 0"),
        ("q", 6, "unknown element name 'q'"),
        ("g", 6, "unknown element name 'g'"),
        # the index is read as the parser reads it, unsigned ASCII digits
        ("g-1", 8, "unknown element name 'g-1'"),
        ("g<k>", 8, "unknown element name 'g<k>'"),
    ])
    def test_range_messages(self, name, n, message):
        with pytest.raises(ParseError) as excinfo:
            named_word(name, n)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name, n", [
        ("a2", 4), ("a", 4), ("b", 4), ("b", 5), ("y", 4), ("z", 6), ("w", 6),
        ("c", 6), ("g1", 6), ("d1", 6), ("d1", 7),
        ("a0", 0), ("a1", 0), ("phi", 0), ("a0", 3), ("a1", 3), ("phi", 3),
    ])
    def test_least_n_builds_a_word(self, name, n):
        assert isinstance(named_word(name, n), tuple)

    def test_letter_counts_match_the_words(self):
        for n in range(3, 41):
            indexed = [f"d{k}" for k in range(1, n - 4)]
            if n % 2 == 0 and n >= 6:
                indexed += [f"g{k}" for k in range(1, n, 2)]
            for name in [*names_at(n), *indexed]:
                assert named_letters(name, n) == len(named_word(name, n)), (name, n)


class TestParseExpression:
    def test_names_and_letters_mix(self):
        assert parse_expression("a2", 6) == parse_expression("a0 S5 s4", 6)

    def test_power_suffix(self):
        phi = named_word("phi", 6)
        assert parse_expression("phi^2", 6) == power(phi, 2)
        assert parse_expression("a0^-1", 6) == invert(named_word("a0", 6))

    def test_reduces(self):
        assert parse_expression("s1 S1", 6) == EPSILON
        assert parse_expression("a0 a0^-1", 6) == EPSILON

    def test_rejects(self):
        with pytest.raises(ParseError):
            parse_expression("a0^x", 6)
        with pytest.raises(ParseError):
            parse_expression("a0^--1", 6)
        with pytest.raises(ParseError):
            parse_expression("nope", 6)


    def test_power_letter_bound(self):
        # the bound is on the expression's flattened length, checked before building
        assert len(parse_expression(f"a0^{DEFAULT_LENGTH_GUARD // 5}", 6)) == DEFAULT_LENGTH_GUARD
        with pytest.raises(ParseError):
            parse_expression(f"a0^{DEFAULT_LENGTH_GUARD // 5 + 1}", 6)
        with pytest.raises(ParseError):
            parse_expression(f"s1^-{DEFAULT_LENGTH_GUARD + 1}", 6)
