import pytest

from spheremcg.presentation import (
    build_presentation,
    format_presentation,
    named_word,
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

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            build_presentation(6, "signed")

    def test_dump_format(self):
        text = format_presentation(build_presentation(3, "extended"))
        lines = text.splitlines()
        assert lines[0] == "n=3 flavor=extended"
        assert any(line.startswith("t.invol: t t") for line in lines[1:])
        assert len(lines) == 7


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

