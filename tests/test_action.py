import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugate
from spheremcg import action
from spheremcg.action import (
    CONVENTION,
    FreeAut,
    ResourceLimitError,
    compose,
    equal_in_group,
    equal_with_witness,
    is_inner,
    order_of,
    word_to_aut,
)
from spheremcg.presentation import build_presentation, named_word, parse_expression
from spheremcg.words import EPSILON, T_LETTER, concat, invert, power, reduce

T = T_LETTER


def identity_aut(n):
    return FreeAut(n, tuple((i,) for i in range(1, n)))


def prefix_reflection(n):
    """The reference images of t: xi -> (x1..x(i-1)) xi^-1 (x1..x(i-1))^-1."""
    return tuple(concat(range(1, i), (-i,), invert(range(1, i))) for i in range(1, n))


class TestGeneratorImages:
    def test_defining_twist_images(self):
        aut = word_to_aut((1,), 6)
        assert aut.images[0] == (1, 2, -1)
        assert aut.images[1] == (1,)
        assert aut.images[2] == (3,)

    def test_last_twist_wraps_through_boundary(self):
        aut = word_to_aut((5,), 6)
        assert aut.images[3] == (4,)
        assert aut.images[4] == (-4, -3, -2, -1, -5)
        inv = word_to_aut((-5,), 6)
        assert inv.images[4] == (-5, -4, -3, -2, -1)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_reflection_matches_prefix_formula(self, n):
        assert word_to_aut((T,), n).images == prefix_reflection(n)

    def test_reflection_involutes(self):
        aut = word_to_aut((T, T), 6)
        assert aut == identity_aut(6)

    def test_empty_and_cancelling_words(self):
        assert word_to_aut(EPSILON, 6) == identity_aut(6)
        assert word_to_aut((1, -1), 6) == identity_aut(6)

    def test_rejects_foreign_letter(self):
        with pytest.raises(ValueError):
            word_to_aut((7,), 6)


class TestValidateAction:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_all_relators_inner(self, n):
        for rel in build_presentation(n, "extended").relators:
            assert equal_in_group(rel, EPSILON, n)

    def test_convention_is_pinned(self):
        assert CONVENTION == "sigma=standard reflection=prefix"

    def test_oriented_flavor(self):
        for rel in build_presentation(5, "oriented").relators:
            assert equal_in_group(rel, EPSILON, 5)

    def test_broken_generator_table_is_refused(self, monkeypatch):
        # xi -> xi^-1 breaks t si t = si^-1 with the standard half-twists
        monkeypatch.setattr(action, "_prefix_reflect",
                            lambda images: [invert(img) for img in images])
        action._gen_auts.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="does not act trivially"):
                equal_in_group((T, 1, T), (-1,), 6)
        finally:
            action._gen_auts.cache_clear()


class TestIsInner:
    def test_identity(self):
        assert is_inner(identity_aut(6)) == EPSILON

    def test_relator_words(self):
        pres = build_presentation(6, "extended")
        for rel in pres.relators:
            assert is_inner(word_to_aut(rel, 6)) is not None

    def test_single_twist_is_not_inner(self):
        assert is_inner(word_to_aut((1,), 6)) is None

    def test_conjugation_word_witness(self):
        # x1 x2 x1^-1 conjugates the basis exactly like twisting does on
        # the subgroup it generates; a genuine inner word must come from
        # a relator, e.g. the sphere relator at n=3
        rel = dict(zip(build_presentation(3, "extended").labels,
                       build_presentation(3, "extended").relators))["sphere"]
        witness = is_inner(word_to_aut(rel, 3))
        assert witness is not None

    @pytest.mark.parametrize("w", [(1,) * 60 + (2,), (2,) + (1,) * 60, (-3, -1, 2) + (-1,) * 45])
    def test_long_conjugator_found_exactly(self, w):
        # w = w0 x1^s with s = 0, 60 and -45: the exponent is read off
        # w0^-1 f(x2) w0, however long the run of x1
        aut = FreeAut(6, tuple(conjugate((i,), w) for i in range(1, 6)))
        assert is_inner(aut) == w

    def test_fixed_first_basis_letter_not_inner(self):
        # f(x1) = x1 and f(x2) = x1^3 x2 x1^-3 single out w = x1^3, which
        # fails on x3: a partial conjugation, not an inner automorphism
        partial = FreeAut(6, ((1,), conjugate((2,), (1, 1, 1)), (3,), (4,), (5,)))
        assert is_inner(partial) is None
        assert is_inner(word_to_aut((2,), 6)) is None


class TestEquality:
    def test_reflection_fixes_first_rotation(self):
        a0 = named_word("a0", 6)
        assert equal_in_group(concat((T,), a0, (T,)), a0, 6)

    def test_chain_line(self):
        lhs = parse_expression("b^-2 a b", 6)
        assert equal_in_group(lhs, (-4, -3, 1, 2, 4), 6)

    def test_distinct_twists_differ(self):
        assert not equal_in_group((1,), (2,), 6)

    def test_witness_reassembles(self):
        ok, witness = equal_with_witness((1, 2, -1), (1, 2, -1), 6)
        assert ok and witness == EPSILON
        a0 = named_word("a0", 6)
        ok, witness = equal_with_witness(concat((T,), a0, (T,)), a0, 6)
        assert ok
        assert witness is not None
        ok, witness = equal_with_witness((1,), (2,), 6)
        assert not ok and witness is None

    def test_equivalence_relation_spot_checks(self):
        words = [named_word("a0", 6), conjugate(named_word("a0", 6), (1,)),
                 (1,), (2,), EPSILON]
        for u in words:
            assert equal_in_group(u, u, 6)
        for u in words:
            for v in words:
                assert equal_in_group(u, v, 6) == equal_in_group(v, u, 6)


class TestOrders:
    def test_reflected_rotation_even(self):
        assert order_of(concat((T,), named_word("a0", 6)), 6) == 6

    def test_reflected_rotation_odd(self):
        assert order_of(concat((T,), named_word("a0", 5)), 5) == 10

    def test_rotation_orders(self):
        assert order_of(named_word("a0", 6), 6) == 6
        assert order_of(named_word("a1", 6), 6) == 5
        assert order_of(named_word("a2", 6), 6) == 4

    def test_infinite_order_exceeds_cap(self):
        assert order_of((1,), 6) is None

    def test_explicit_cap(self):
        assert order_of(named_word("a0", 6), 6, cap=5) is None
        assert order_of(named_word("a0", 6), 6, cap=6) == 6

    def test_power_order_divisibility(self):
        ta0 = concat((T,), named_word("a0", 6))
        assert order_of(power(ta0, 2), 6) == 3
        assert order_of(power(ta0, 3), 6) == 2
        assert order_of((T,), 6) == 2


class TestHomomorphism:
    @given(st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4, T]),
                    max_size=8).map(reduce),
           st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4, T]),
                    max_size=8).map(reduce))
    @settings(max_examples=100, deadline=None)
    def test_word_to_aut_multiplicative(self, u, v):
        lhs = word_to_aut(concat(u, v), 5)
        rhs = compose(word_to_aut(u, 5), word_to_aut(v, 5))
        assert lhs == rhs

    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([T, 1, -1] * 3 + [s * k for k in range(2, n) for s in (1, -1)]),
                 max_size=24),
        st.sampled_from(build_presentation(n, "extended").relators))))
    @settings(max_examples=60, deadline=None)
    def test_normalized_evaluation_matches_compose_fold(self, case):
        # words rich in t and s1 make the carried conjugator long; u r
        # against u, for a relator r, is equal with a nontrivial witness
        n, u, rel = case

        def fold(word):
            f = identity_aut(n)
            for letter in word:
                f = compose(f, word_to_aut((letter,), n))
            return f

        assert word_to_aut(u, n) == fold(u)
        for lhs, rhs in ((u, EPSILON), (concat(u, rel), u)):
            diff = concat(reduce(lhs), invert(reduce(rhs)))
            ok, witness = equal_with_witness(lhs, rhs, n)
            assert witness == is_inner(fold(diff))
            assert ok == (witness is not None)
        assert equal_with_witness(concat(u, rel), u, n)[0]

    def test_rotation_transport(self):
        # conjugating by the square shifts twist indices by two, wrapping
        # odd indices around the puncture cycle
        a = named_word("a", 6)
        a2 = power(a, 2)
        for k, target in ((1, 3), (3, 5), (5, 1)):
            assert equal_in_group(concat(a2, (k,), invert(a2)), (target,), 6)


class TestResourceGuard:
    def test_growth_triggers_guard(self):
        with pytest.raises(ResourceLimitError):
            word_to_aut(power((1, 2), 50), 6, guard=50)

    def test_guard_not_triggered_on_short_words(self):
        word_to_aut(power((1, 2), 3), 6, guard=10**6)

    # The least guard each call passes under: the most letters it holds
    # after any one letter.  One less must trip.
    @pytest.mark.parametrize("call, least", [
        (lambda g: word_to_aut(power((1, 2), 50), 6, guard=g), 257),
        # a^10 = b^8 = 1 at n = 10, so both quotients vanish on the
        # difference and the word is evaluated
        (lambda g: equal_with_witness(
            concat(power(named_word("a", 10), 10), power(named_word("b", 10), -8)),
            EPSILON, 10, g), 143),
        (lambda g: equal_with_witness(
            power(concat((T,), named_word("a0", 13)), 13), (T,), 13, g), 150),
    ], ids=["twists", "a10b-8", "ta0^13"])
    def test_guard_trips_at_the_pinned_letter_count(self, call, least):
        call(least)
        with pytest.raises(ResourceLimitError):
            call(least - 1)
