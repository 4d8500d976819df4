import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import conjugate, typed_inverse
from spheremcg.presentation import parse_expression
from spheremcg.words import (
    EPSILON,
    ParseError,
    T_LETTER,
    ascii_int,
    concat,
    cyclic_core,
    format_word,
    invert,
    power,
    reduce,
    require_punctures,
)

LETTERS = st.sampled_from([1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
RAW = st.lists(LETTERS, max_size=24).map(tuple)
WORDS = RAW.map(reduce)


class TestPunctureRange:
    @pytest.mark.parametrize("n", (3, T_LETTER))
    def test_bounds_accepted(self, n):
        require_punctures(n)

    @pytest.mark.parametrize("n, message", ((2, "need n >= 3, got 2"),
                                            (T_LETTER + 1, f"need n <= {T_LETTER}, got")))
    def test_outside_refused(self, n, message):
        with pytest.raises(ValueError, match=message):
            require_punctures(n)


class TestReduce:
    def test_inverse_pair_cancels(self):
        assert reduce((1, -1)) == EPSILON

    def test_identity(self):
        assert reduce(()) == EPSILON

    def test_single_cancellation(self):
        assert reduce((1, 2, -2, 1)) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reduce((1, 0))

    @given(RAW)
    def test_idempotent_and_nonincreasing(self, raw):
        once = reduce(raw)
        assert reduce(once) == once
        assert len(once) <= len(raw)


class TestConcatInvert:
    def test_cancel(self):
        assert concat((1,), (-1,)) == EPSILON

    def test_invert(self):
        assert invert((1, 2)) == (-2, -1)

    def test_partial_cancel(self):
        assert concat((1, 2), (-2, 3)) == (1, 3)

    @given(WORDS, WORDS, WORDS)
    def test_associative(self, u, v, w):
        assert concat(concat(u, v), w) == concat(u, concat(v, w))

    @given(WORDS)
    def test_identity_and_inverses(self, u):
        assert concat(u, EPSILON) == u
        assert concat(EPSILON, u) == u
        assert concat(u, invert(u)) == EPSILON
        assert invert(invert(u)) == u

    @given(WORDS, WORDS)
    def test_invert_antihomomorphism(self, u, v):
        assert invert(concat(u, v)) == concat(invert(v), invert(u))

    @given(WORDS, st.integers(min_value=-4, max_value=4))
    def test_power_matches_repetition(self, u, k):
        expected = EPSILON
        step = u if k >= 0 else invert(u)
        for _ in range(abs(k)):
            expected = concat(expected, step)
        assert power(u, k) == expected


class TestCyclicReduce:
    def test_peels_conjugator(self):
        assert cyclic_core((1, 2, -1)) == ((2,), (1,))

    def test_already_reduced(self):
        assert cyclic_core((2,)) == ((2,), EPSILON)

    def test_two_layers(self):
        assert cyclic_core((1, 2, 3, -2, -1)) == ((3,), (1, 2))

    @given(RAW)
    def test_reassembly(self, raw):
        core, conj = cyclic_core(reduce(raw))
        assert conjugate(core, conj) == reduce(raw)
        assert not (len(core) >= 2 and core[0] == -core[-1])

    def test_reflection_pair(self):
        # t^-1 = t, so two reflection letters of either sign are a pair
        t = T_LETTER
        assert cyclic_core((t, 1, 2, t)) == ((1, 2), (t,))
        assert cyclic_core((t, 1, -t)) == ((1,), (t,))
        assert cyclic_core((-2, t, 1, t, 2)) == ((1,), (-2, t))
        assert cyclic_core((3, t, t, -3)) == (EPSILON, (3, t))

    def test_unpaired_ends_kept(self):
        t = T_LETTER
        assert cyclic_core((t,)) == ((t,), EPSILON)
        assert cyclic_core((1, t, 1)) == ((1, t, 1), EPSILON)
        assert cyclic_core((t, 1)) == ((t, 1), EPSILON)

    @given(st.lists(st.sampled_from([1, 2, 3, -1, -2, -3, T_LETTER]), max_size=24))
    def test_reassembly_with_reflections(self, raw):
        core, conj = cyclic_core(reduce(raw))
        assert conj + core + typed_inverse(conj) == reduce(raw)
        assert not (len(core) >= 2 and (core[0] == -core[-1]
                                        or core[0] == core[-1] == T_LETTER))


class TestTextFormat:
    def test_parse_examples(self):
        assert parse_expression("s1 S1", 6) == EPSILON
        assert parse_expression("s3 t S3", 6) == (3, T_LETTER, -3)
        assert parse_expression("T", 6) == (T_LETTER,)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expression("s0", 6)
        with pytest.raises(ParseError):
            parse_expression("s6", 6)
        with pytest.raises(ParseError):
            parse_expression("x1", 6)
        with pytest.raises(ParseError):
            parse_expression("s", 6)

    def test_numbers_are_ascii_digits(self):
        assert [ascii_int(t) for t in ("7", "007", "-7", "")] == [7, 7, None, None]
        assert [ascii_int(t, signed=True) for t in ("-7", "--7", "-", "+7")] == [
            -7, None, None, None]
        # a superscript passes str.isdigit, and int() reads the others
        assert [ascii_int(t, signed=True) for t in ("²", "١", "1_0", " 1")] == [None] * 4
        # past the interpreter's limit on digits, int() raises
        assert ascii_int("9" * 5000) is None
        with pytest.raises(ParseError, match="bad token"):
            parse_expression("s١", 6)

    def test_format_examples(self):
        assert format_word((1, -2, T_LETTER)) == "s1 S2 t"
        assert format_word(EPSILON) == ""

    @given(st.lists(st.sampled_from([1, 2, 3, -1, -2, -3, T_LETTER]),
                    max_size=12).map(reduce))
    def test_roundtrip(self, word):
        assert parse_expression(format_word(word), 4) == word
