import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import perm_compose
from spheremcg import homs
from spheremcg.homs import (
    MAT_ID,
    abelianization_image,
    format_gf2,
    format_mat2,
    format_perm,
    perm_cycles,
    gf2_rank,
    mat_inv,
    mat_mul,
    mat_neg,
    perm_image,
    pgl2_image,
    proj_eq,
    validate_hom,
)
from spheremcg.harness import verify_n4
from spheremcg.presentation import build_presentation, named_word, parse_expression
from spheremcg.words import T_LETTER, concat, reduce

T = T_LETTER


class TestPermImage:
    def test_single_twist(self):
        assert perm_image((1,), 6) == (2, 1, 3, 4, 5, 6)

    def test_reflection_fixes_punctures(self):
        assert perm_image((T,), 6) == (1, 2, 3, 4, 5, 6)

    def test_twisted_rotation_cycle(self):
        assert format_perm(perm_image(named_word("a", 6), 6)) == "(1 2 4 3 5 6)"

    def test_rotation_cycle(self):
        assert format_perm(perm_image(named_word("a0", 6), 6)) == "(1 2 3 4 5 6)"

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            perm_image((6,), 6)

    @given(st.lists(st.sampled_from([1, 2, 3, 4, 5, -1, -2, -3, -4, -5, T]),
                    max_size=10).map(reduce),
           st.lists(st.sampled_from([1, 2, 3, 4, 5, -1, -2, -3, -4, -5, T]),
                    max_size=10).map(reduce))
    def test_homomorphic(self, u, v):
        assert perm_image(concat(u, v), 6) == perm_compose(
            perm_image(u, 6), perm_image(v, 6)
        )

    @given(st.integers(3, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([T] + [s * k for k in range(1, n) for s in (1, -1)]),
                 max_size=30))))
    def test_matches_transposition_fold(self, case):
        n, word = case
        expected = tuple(range(1, n + 1))
        for letter in word:
            k = abs(letter)
            if k == T:
                continue
            swap = list(range(1, n + 1))
            swap[k - 1], swap[k] = k + 1, k
            expected = perm_compose(expected, tuple(swap))
        assert perm_image(word, n) == expected


class TestAbelianization:
    def test_generators(self):
        assert abelianization_image((1,)) == (1, 0)
        assert abelianization_image((T,)) == (0, 1)
        assert abelianization_image(()) == (0, 0)

    def test_named_elements(self):
        assert abelianization_image(named_word("a", 6)) == (1, 1)
        assert abelianization_image(named_word("b", 6)) == (0, 1)

    def test_signs_ignored_mod_two(self):
        assert abelianization_image((1, -1)) == (0, 0)
        assert abelianization_image((1, 1, 1)) == (1, 0)

    @given(st.lists(st.sampled_from([1, 2, -1, -2, T]), max_size=14).map(tuple),
           st.lists(st.sampled_from([1, 2, -1, -2, T]), max_size=14).map(tuple))
    def test_homomorphic(self, u, v):
        su, tu = abelianization_image(u)
        sv, tv = abelianization_image(v)
        assert abelianization_image(u + v) == ((su + sv) % 2, (tu + tv) % 2)


class TestSpan:
    def test_both_generators_span(self):
        assert gf2_rank([(1, 1), (0, 1)]) == 2

    def test_single_vector(self):
        assert gf2_rank([(1, 1)]) == 1

    def test_empty(self):
        assert gf2_rank([]) == 0

    def test_ranks(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([(1, 1), (1, 1)]) == 1
        assert gf2_rank([(1, 0), (0, 1), (1, 1)]) == 2


class TestPgl2:
    def test_defining_images(self):
        assert proj_eq(pgl2_image((1,)), (1, 1, 0, 1))
        assert proj_eq(pgl2_image((2,)), (1, 0, -1, 1))
        assert proj_eq(pgl2_image((3,)), pgl2_image((1,)))

    def test_reflection_image_is_det_minus_one_involution(self):
        m = pgl2_image((T,))
        assert m[0] * m[3] - m[1] * m[2] == -1
        assert proj_eq(mat_mul(m, m), MAT_ID)

    def test_full_twist_collapses(self):
        word = (1, 2, 3) * 4
        assert proj_eq(pgl2_image(word), MAT_ID)

    def test_commutator_is_minus_identity(self):
        x, y = (0, 1, 1, 0), (-1, 0, 0, 1)
        comm = mat_mul(mat_mul(x, y), mat_mul(mat_inv(x), mat_inv(y)))
        assert comm == mat_neg(MAT_ID)

    def test_inverse_of_a_non_unit_is_refused(self):
        with pytest.raises(ValueError, match="determinant 2, not a unit"):
            mat_inv((2, 0, 0, 1))

    def test_letter_outside_the_alphabet_is_refused(self):
        with pytest.raises(ValueError, match="letter 5 outside the alphabet for n=4"):
            pgl2_image((5,))

    def test_orientation_tracks_determinant(self):
        for word in ((T,), (T, 1), (T, 1, 2, -3)):
            m = pgl2_image(word)
            assert m[0] * m[3] - m[1] * m[2] == -1
        for word in ((), (1,), (1, 2, -1), (T, T, 2)):
            m = pgl2_image(word)
            assert m[0] * m[3] - m[1] * m[2] == 1

    def test_surjectivity_witnesses(self):
        # the words the n=4 suite reports as witnesses hit x and y
        rows = {c.id: c for c in verify_n4()}
        for name, target in (("x", (0, 1, 1, 0)), ("y", (-1, 0, 0, 1))):
            row = rows[f"n4.pgl2.witness.{name}"]
            assert row.status == "pass"
            assert proj_eq(pgl2_image(parse_expression(row.witness, 4)), target)
        assert not proj_eq(pgl2_image(parse_expression("t", 4)), (0, 1, 1, 0))

    def test_refused_model_fails_every_row_that_reads_it(self, monkeypatch):
        # s2 -> [[1,0],[1,1]] breaks the braid relation of s1 and s2;
        # the rows that do not read the model still pass
        monkeypatch.setattr(homs, "_S_PARABOLIC_LOWER", (1, 0, 1, 1))
        homs._pgl2_gens.cache_clear()
        try:
            rows = {c.id: c for c in verify_n4()}
        finally:
            homs._pgl2_gens.cache_clear()
        error = "error: RuntimeError('relator braid.1 does not map to the identity at n=4')"
        refused = ("n4.pgl2.relators", "n4.pgl2.witness.x", "n4.pgl2.witness.y")
        assert len(rows) == 8
        for check_id, row in rows.items():
            if check_id in refused:
                assert (row.status, row.witness) == ("fail", error), check_id
            else:
                assert row.status == "pass", check_id


class TestValidateHom:
    @pytest.mark.parametrize("kind", ("perm", "psi"))
    @pytest.mark.parametrize("flavor", ("oriented", "extended"))
    def test_invariant_assignments(self, kind, flavor):
        image = {"perm": lambda w: perm_image(w, 6), "psi": abelianization_image}[kind]
        assert validate_hom(build_presentation(6, flavor), image) == []

    def test_projective_assignment(self):
        for rel in build_presentation(4, "extended").relators:
            assert proj_eq(pgl2_image(rel), MAT_ID)

    def test_failures_are_listed_in_presentation_order(self):
        # the length mod 4 kills the relators of 4 letters and no other
        # at n=6: t.invol has 2, braid.k 6, sphere 10 and fulltwist 30
        pres = build_presentation(6, "extended")
        assert validate_hom(pres, lambda w: len(w) % 4) == [
            "t.invol", "braid.1", "braid.2", "braid.3", "braid.4", "sphere", "fulltwist"]


class TestFormatting:
    def test_gf2(self):
        assert format_gf2((1, 0)) == "(1,0)"

    def test_mat2(self):
        assert format_mat2((1, 1, 0, 1)) == "[[1,1],[0,1]]"

    def test_perm_identity(self):
        assert format_perm((1, 2, 3)) == "id"

    def test_perm_cycles_from_least_puncture(self):
        assert perm_cycles((3, 2, 5, 1, 4, 7, 6)) == [(1, 3, 5, 4), (6, 7)]
        assert format_perm((3, 2, 5, 1, 4, 7, 6)) == "(1 3 5 4)(6 7)"
        assert perm_cycles((1, 2, 3)) == []

    @given(st.permutations(range(1, 9)))
    def test_perm_cycles_follow_the_permutation(self, p):
        cycles = perm_cycles(tuple(p))
        moved = [x for c in cycles for x in c]
        assert sorted(moved) == [x for x in range(1, 9) if p[x - 1] != x]
        for c in cycles:
            assert c[0] == min(c)
            assert all(p[c[k] - 1] == c[(k + 1) % len(c)] for k in range(len(c)))
