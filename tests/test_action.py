import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import conjugate, generator_images, plain, reference_images, typed_inverse
from spheremcg import action, words
from spheremcg.action import (
    CONVENTION,
    Factors,
    FreeAut,
    Power,
    ResourceLimitError,
    compose,
    equal_products,
    equal_with_witness,
    is_inner,
    order_of,
    word_to_aut,
)
from spheremcg.presentation import build_presentation, named_word, parse_expression
from spheremcg.homs import abelianization_image
from spheremcg.words import EPSILON, T_LETTER, concat, cyclic_core, invert, power, reduce

T = T_LETTER


def _reflects(word):
    """Whether a word holds an odd number of t: a reflection word."""
    return abelianization_image(word)[1] == 1


def identity_aut(n):
    return FreeAut(n, tuple((i,) for i in range(1, n)))


class TestGeneratorImages:
    def test_defining_twist_images(self):
        aut = plain(word_to_aut((1,), 6))
        assert aut.images[0] == (1, 2, -1)
        assert aut.images[1] == (1,)
        assert aut.images[2] == (3,)

    def test_last_twist_wraps_through_boundary(self):
        aut = plain(word_to_aut((5,), 6))
        assert aut.images[3] == (4,)
        assert aut.images[4] == (-4, -3, -2, -1, -5)
        inv = plain(word_to_aut((-5,), 6))
        assert inv.images[4] == (-5, -4, -3, -2, -1)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_half_twists_match_adjacent_swap(self, n):
        # si: xi -> xi x(i+1) xi^-1, x(i+1) -> xi; si^-1: xi -> x(i+1),
        # x(i+1) -> x(i+1)^-1 xi x(i+1); every other loop is fixed
        for i in range(1, n - 1):
            fwd = [(j,) for j in range(1, n)]
            inv = list(fwd)
            fwd[i - 1:i + 1] = (i, i + 1, -i), (i,)
            inv[i - 1:i + 1] = (i + 1,), (-(i + 1), i, i + 1)
            assert plain(word_to_aut((i,), n)).images == tuple(fwd)
            assert plain(word_to_aut((-i,), n)).images == tuple(inv)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_reflection_matches_prefix_formula(self, n):
        assert plain(word_to_aut((T,), n)).images == generator_images(n)[T]

    def test_reflection_involutes(self):
        assert plain(word_to_aut((T, T), 6)) == identity_aut(6)

    def test_empty_and_cancelling_words(self):
        assert plain(word_to_aut(EPSILON, 6)) == identity_aut(6)
        assert plain(word_to_aut((1, -1), 6)) == identity_aut(6)

    def test_rejects_foreign_letter(self):
        with pytest.raises(ValueError):
            word_to_aut((7,), 6)


class TestValidateAction:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_all_relators_inner(self, n):
        for rel in build_presentation(n, "extended").relators:
            assert equal_with_witness(rel, EPSILON, n)[0]

    def test_convention_is_pinned(self):
        assert CONVENTION == "sigma=standard reflection=prefix"

    def test_oriented_flavor(self):
        for rel in build_presentation(5, "oriented").relators:
            assert equal_with_witness(rel, EPSILON, 5)[0]

    def test_broken_generator_table_is_refused(self, monkeypatch):
        # xi -> xi^-1 breaks t si t = si^-1 with the standard half-twists
        monkeypatch.setattr(action, "_prefix_reflect",
                            lambda images, run=None: [invert(img) for img in images])
        action._gen_auts.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="does not act trivially"):
                equal_with_witness((T, 1, T), (-1,), 6)[0]
        finally:
            action._gen_auts.cache_clear()

    def test_reflection_off_by_an_inner_automorphism_is_refused(self, monkeypatch):
        # t' = c_x1 t acts on every relator as an inner automorphism, so
        # only the demand that (t si)^2 act as the identity itself refuses
        # it; word_to_aut's rewrite would be wrong by an inner part
        reflect = action._prefix_reflect
        monkeypatch.setattr(action, "_prefix_reflect", lambda images, run=None: [
            conjugate(img, images[0]) for img in reflect(images, run)])
        action._gen_auts.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="t.twist.1 acts as a nontrivial inner"):
                action._gen_auts(6)
        finally:
            action._gen_auts.cache_clear()

    def test_reflection_mutants_are_refused_where_the_resume_skips(self, monkeypatch):
        # the two mutants above at n = 30, where each second t of the
        # validation resumes at the images its twist moved and takes most
        # of the others from the recorded run
        reflect = action._prefix_reflect
        mutants = {"does not act trivially":
                   lambda images, run=None: [invert(img) for img in images],
                   "t.twist.1 acts as a nontrivial inner": lambda images, run=None: [
                       conjugate(img, images[0]) for img in reflect(images, run)]}
        for match, mutant in mutants.items():
            monkeypatch.setattr(action, "_prefix_reflect", mutant)
            action._gen_auts.cache_clear()
            try:
                with pytest.raises(RuntimeError, match=match):
                    action._gen_auts(30)
            finally:
                action._gen_auts.cache_clear()

    @pytest.mark.parametrize("n", [*range(3, 41), 80])
    def test_resumed_reflection_relators_match_the_literal_evaluation(self, monkeypatch, n):
        # _gen_auts reads each relator after its leading t from one shared
        # state, and resumes the second t from one recorded run
        evaluate, resumed = action._evaluate, {}

        def spy(word, n, guard, start=None, run=None):
            f = evaluate(word, n, guard, start, run)
            if start is not None:
                resumed[word] = f
            return f

        monkeypatch.setattr(action, "_evaluate", spy)
        action._gen_auts.cache_clear()
        try:
            action._gen_auts(n)
        finally:
            action._gen_auts.cache_clear()
        pres = build_presentation(n, "extended")
        twists = {label: rel for label, rel in zip(pres.labels, pres.relators)
                  if label.startswith("t.")}
        # t.twist.1 moves x1, so it runs the peel; t.twist.(n-1) the s(n-1) branch
        assert {"t.invol", "t.twist.1", f"t.twist.{n - 1}"} <= twists.keys()
        assert len(twists) == n
        for label, rel in twists.items():
            assert resumed[rel[1:]] == evaluate(rel, n, action.DEFAULT_LENGTH_GUARD), label


def far_relators(n):
    """The extended relators over s1 .. s(n-2) alone, by label."""
    pres = build_presentation(n, "extended")
    return {label: rel for label, rel in zip(pres.labels, pres.relators)
            if max(map(abs, rel)) < n - 1}


class TestSparseForm:
    """_gen_auts reads each relator without t or s(n-1) on a sparse form
    first; whatever that form does not accept goes to _evaluate."""

    @pytest.mark.parametrize("n", range(3, 25))
    def test_accepted_relators_have_the_empty_witness(self, n):
        pres = build_presentation(n, "extended")
        accepted = [rel for rel in pres.relators if action._sparse_identity(rel, n)]
        # every commutator and braid relator among s1 .. s(n-2)
        assert len(accepted) == len(far_relators(n)) == (n - 3) * (n - 2) // 2
        for rel in accepted:
            assert is_inner(action._evaluate(rel, n, action.DEFAULT_LENGTH_GUARD)) == EPSILON

    def test_words_it_does_not_accept_go_to_the_dense_path(self, monkeypatch):
        # (1, 2, -1, -2) lies over s1 .. s4 at n = 6 and is not the
        # identity; comm.1.5 is, but s5 = s(n-1) keeps it off the form
        assert not action._sparse_identity((1, 2, -1, -2), 6)
        assert not action._sparse_identity((1, 5, -1, -5), 6)
        assert not action._sparse_identity((T, 1, T, 1), 6)
        pres = build_presentation(6, "extended")
        monkeypatch.setattr(action, "build_presentation", lambda n, flavor: pres._replace(
            relators=pres.relators + ((1, 2, -1, -2),), labels=pres.labels + ("bogus",)))
        evaluate, evaluated = action._evaluate, []
        monkeypatch.setattr(action, "_evaluate", lambda word, n, guard, *rest: (
            evaluated.append(word), evaluate(word, n, guard, *rest))[1])
        action._gen_auts.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="relator bogus does not act trivially"):
                action._gen_auts(6)
        finally:
            action._gen_auts.cache_clear()
        assert evaluated[-1] == (1, 2, -1, -2)
        assert not set(far_relators(6).values()) & set(evaluated)

    def test_swapped_half_twist_formulas_are_refused(self, monkeypatch):
        # si <-> si^-1 below s(n-1) is conjugation by t, which keeps every
        # relator among s1 .. s(n-2); the braid relator of s4 and s5 is
        # the first to refuse it
        half_twist = action._half_twist
        monkeypatch.setattr(action, "_half_twist",
                            lambda a, b, positive: half_twist(a, b, not positive))
        action._gen_auts.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="relator braid.4 does not act trivially"):
                action._gen_auts(6)
        finally:
            action._gen_auts.cache_clear()

    def test_sparse_form_reads_the_one_half_twist_step(self, monkeypatch):
        # with the two images of each step swapped, no far relator is the
        # identity; a sparse form with its own copy of the formulas would
        # still accept every one
        half_twist = action._half_twist
        monkeypatch.setattr(action, "_half_twist",
                            lambda a, b, positive: half_twist(a, b, positive)[::-1])
        action._gen_auts.cache_clear()
        try:
            assert not any(action._sparse_identity(rel, 6) for rel in far_relators(6).values())
            with pytest.raises(RuntimeError, match="does not act trivially"):
                action._gen_auts(6)
        finally:
            action._gen_auts.cache_clear()

    def test_only_nonempty_witnesses_are_kept(self):
        for n in (5, 8, 12, 30):
            assert action._gen_auts(n) == {"sphere": (1,)}


def reflect_reference(images):
    """reduce(Pi f(xi)^-1 Pi^-1) for each image, Pi = f(x1)..f(x(i-1))."""
    out, p = [], EPSILON
    for img in images:
        out.append(concat(p, invert(img), invert(p)))
        p = concat(p, img)
    return out


@st.composite
def _shared_images(draw):
    """Reduced words cut from a few random blocks and their inverses, so
    that neighbouring products share long prefixes and suffixes."""
    blocks = draw(st.lists(st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), min_size=1,
                                    max_size=40).map(reduce), min_size=1, max_size=3))
    pieces = blocks + [invert(b) for b in blocks] + [(1,), (2,), (-3,)]
    return draw(st.lists(st.lists(st.sampled_from(pieces), max_size=4).map(
        lambda parts: concat(*parts)), max_size=8))


class TestPrefixReflect:
    """_prefix_reflect finds each cancellation by comparing slices; it
    must give the plain reduced products exactly."""

    @given(_shared_images())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reduced_products(self, images):
        assert action._prefix_reflect(list(images)) == reflect_reference(images)

    @given(_shared_images(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_resumed_run_matches_the_reduced_products(self, images, data):
        # a filled run is resumed over images that differ from its own at
        # a few positions: by a half-twist of two neighbours, which keeps
        # their product and so the state after them, or by any other word
        run = []
        assert action._prefix_reflect(images, run) == reflect_reference(images)
        changed = list(images)
        for _ in range(data.draw(st.integers(0, 2)) if images else 0):
            pos = data.draw(st.integers(0, len(images) - 1))
            if pos + 1 < len(images) and data.draw(st.booleans()):
                changed[pos:pos + 2] = action._half_twist(*changed[pos:pos + 2],
                                                          data.draw(st.booleans()))
            else:
                changed[pos] = data.draw(st.sampled_from(images + [EPSILON, (2, 1)]))
        assert action._prefix_reflect(changed, run) == reflect_reference(changed)
        assert len(run) == len(images)

    def test_long_cancellations_of_the_second_reflection(self):
        # the images of t si at n = 80: each Pi f(xi) cancels about 80
        # letters, far past the first-letter test
        n, longest = 80, 0
        for i in range(1, n):
            images = list(action._evaluate((T, i), n, action.DEFAULT_LENGTH_GUARD).images)
            assert action._prefix_reflect(images) == reflect_reference(images)
            p = EPSILON
            for img in images:
                longest = max(longest, (len(p) + len(img) - len(concat(p, img))) // 2)
                p = concat(p, img)
        assert longest >= n - 2


class TestCommonPrefix:
    """_common_prefix halves a range by slice comparisons; it must give
    the length a letter-by-letter walk gives."""

    @given(*[st.lists(st.sampled_from([1, -1, 2, -2, T]), max_size=40)] * 3)
    @settings(max_examples=500, deadline=None)
    def test_matches_a_letter_by_letter_walk(self, prefix, u_tail, v_tail):
        # either tail may be empty, so either word may be empty or a
        # prefix of the other; otherwise the continuations differ
        assume(not u_tail or not v_tail or u_tail[0] != v_tail[0])
        u, v = tuple(prefix + u_tail), tuple(prefix + v_tail)
        k = 0
        while k < min(len(u), len(v)) and u[k] == v[k]:
            k += 1
        assert k == len(prefix)
        assert action._common_prefix(u, v) == action._common_prefix(v, u) == k


class TestReflectionsLast:
    """word_to_aut reads each word with its reflections moved to the
    right end; the automorphism is the literal one, exactly."""

    @given(st.integers(3, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(_letters(n), max_size=14))))
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_evaluation(self, case):
        n, word = case
        literal = action._evaluate(reduce(word), n, action.DEFAULT_LENGTH_GUARD)
        assert plain(word_to_aut(word, n)) == plain(literal)

    def test_rewrite(self):
        assert action._reflections_last((T, 1, -2, -T, 3, T)) == (-1, 2, 3, T)
        assert action._reflections_last((1, T, -1, T, 2)) == (1, 1, 2)
        assert action._reflections_last((1, -T, 1, -T, 2)) == (2,)
        assert action._reflections_last((T, T)) == EPSILON


class TestCarriedConjugator:
    """The automorphisms word_to_aut and compose return, with their
    carried conjugators folded back in, are the literal ones: each
    stored image conjugated by the carried conjugator equals the image
    reference_images composes one generator at a time, with no rewrite,
    no peel and no product path."""

    @given(st.integers(3, 9).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(_letters(n), max_size=10)] * 2)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_images(self, case):
        n, u, v = case
        expected = reference_images(concat(u, v), n)
        assert plain(word_to_aut(u + v, n)).images == expected
        assert plain(compose(word_to_aut(u, n), word_to_aut(v, n))).images == expected


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


class TestPeelReducesNothing:
    def test_peel_and_candidate_call_no_reduce(self, monkeypatch):
        # stored images and images of words are reduced already, so the
        # peel of _peel and _candidate runs no free reduction
        inside, seen = [], {"_peel": 0, "_candidate": 0, "reduce": 0}

        def spy(name, fn):
            def wrapped(*args):
                seen[name] += 1
                inside.append(name)
                try:
                    return fn(*args)
                finally:
                    inside.pop()
            return wrapped

        real_reduce = words.reduce

        def reduce_spy(word):
            seen["reduce"] += bool(inside)
            return real_reduce(word)

        for module in (words, action):
            monkeypatch.setattr(module, "reduce", reduce_spy)
        for name in ("_peel", "_candidate"):
            monkeypatch.setattr(action, name, spy(name, getattr(action, name)))
        n = 7
        a = named_word("a", n)
        assert equal_with_witness(concat((3, T, 1), (4, 2, -4), (-1, T, -3)),
                                  concat((3, T, 1, 4), (2,), (-4, -1, T, -3)), n)[0]
        assert order_of(concat((2, T), a, (T, -2)), n) == order_of(a, n)
        a0 = named_word("a0", n)
        assert equal_products([Power(a0, 3), (1,)], [(4,), Power(a0, 3)], Factors(n))[0]
        assert seen["_peel"] and seen["_candidate"]
        assert seen["reduce"] == 0


def _letters(n):
    return st.sampled_from([T, -T] + [s * k for k in range(1, n) for s in (1, -1)])


def _free_word(n, min_size=0, max_size=8):
    """A reduced word in the basis letters x1 .. x(n-1)."""
    letters = st.sampled_from([s * k for k in range(1, n) for s in (1, -1)])
    return st.lists(letters, min_size=min_size, max_size=max_size).map(reduce)


class TestInnerOver:
    """f = c_w g, decided from f(g^-1(x1)), f(g^-1(x2)) and every image."""

    @staticmethod
    def decide(f_images, g_word, n):
        # g normalized, with its carried conjugator, as the product path
        # holds it; f unnormalized
        g = Factors(n).aut(g_word)
        pre = plain(word_to_aut(invert(g_word), n)).images[:2]
        return action._inner_over(FreeAut(n, tuple(f_images)), g, pre,
                                  action.DEFAULT_LENGTH_GUARD)

    @given(st.integers(3, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(_letters(n), max_size=10).map(reduce),
        _free_word(n, min_size=1).filter(bool))))
    @settings(max_examples=80, deadline=None)
    def test_conjugated_automorphism_gives_exactly_w(self, case):
        n, g_word, w = case
        g = plain(word_to_aut(g_word, n))
        f_images = [conjugate(img, w) for img in g.images]
        assert self.decide(f_images, g_word, n) == w

    @given(st.integers(3, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(_letters(n), max_size=10).map(reduce),
        st.lists(_letters(n), min_size=1, max_size=6).map(reduce))))
    @settings(max_examples=80, deadline=None)
    def test_non_inner_factor_gives_none(self, case):
        n, g_word, h_word = case
        h = word_to_aut(h_word, n)
        assume(is_inner(h) is None)
        f = plain(compose(h, word_to_aut(g_word, n)))
        assert self.decide(f.images, g_word, n) is None

    def test_rank_two(self):
        # n = 3: the free group on x1, x2 alone, so x2 is both the second
        # pinning letter and the whole rest of the basis
        g_word = (1, T, -2)
        g = plain(word_to_aut(g_word, 3))
        for w in [(1,), (2,), (-1, -1, 2), (2, 1, -2, 1, 1)]:
            f_images = [conjugate(img, w) for img in g.images]
            assert self.decide(f_images, g_word, 3) == w
        for h_word in [(1,), (2,), (T,), (1, 1, 2)]:
            if is_inner(word_to_aut(h_word, 3)) is None:
                f = plain(compose(word_to_aut(h_word, 3), g))
                assert self.decide(f.images, g_word, 3) is None
        assert is_inner(word_to_aut((1,), 3)) is None


def _cut(data, word):
    """The word as a random product of factors, some written as powers."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), max_size=3)))
    factors = []
    for lo, hi in zip([0, *cuts], [*cuts, len(word)]):
        piece = word[lo:hi]
        form = data.draw(st.sampled_from(["word", "power", "inverse", "nested"]))
        factors.append({"word": piece, "power": Power(piece, 1),
                        "inverse": Power(invert(piece), -1),
                        "nested": Power(Power(invert(piece), 1), -1)}[form])
    return factors


def _answer(call):
    """The call's answer, or None where the guard tripped; any other
    error propagates."""
    try:
        return call()
    except ResourceLimitError:
        return None


class TestProducts:
    """The product path returns what the flat path returns on the
    flattened words, witness included."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_flat_path(self, data):
        n = data.draw(st.integers(3, 10))
        letters = _letters(n)
        u = reduce(data.draw(st.lists(letters, max_size=12)))
        kind = data.draw(st.sampled_from(["relator", "non-inner", "random"]))
        k = data.draw(st.integers(0, len(u)))
        if kind == "relator":
            # equal, and killed by both quotients, often with a witness
            rel = data.draw(st.sampled_from(build_presentation(n, "extended").relators))
            by = reduce(data.draw(st.lists(letters, max_size=6)))
            v = concat(u[:k], conjugate(rel, by), u[k:])
        elif kind == "non-inner":
            # s_i^2 or [s_i, t]: both quotients vanish, the action need not
            i = data.draw(st.integers(1, n - 1))
            extra = data.draw(st.sampled_from([(i, i), (i, T, -i, T)]))
            v = concat(u[:k], extra, u[k:])
        else:
            v = reduce(data.draw(st.lists(letters, max_size=12)))
        lhs, rhs = _cut(data, u), _cut(data, v)
        assert equal_products(lhs, rhs, Factors(n)) == equal_with_witness(u, v, n)
        assert equal_products(rhs, lhs, Factors(n)) == equal_with_witness(v, u, n)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_powers_match_flat_path(self, data):
        # a guard trip is inconclusive, and the two evaluation orders may
        # trip at different inputs: compare wherever both answer
        n = data.draw(st.integers(3, 10))
        letters = _letters(n)
        base = reduce(data.draw(st.lists(letters, min_size=1, max_size=6)))
        if _reflects(base) != data.draw(st.booleans()):
            # half the bases are reflection words, powered through their square
            base = concat(base, (T,))
        k = data.draw(st.integers(-7, 7))
        tail = reduce(data.draw(st.lists(letters, max_size=4)))
        v = reduce(data.draw(st.lists(letters, max_size=8)))
        if data.draw(st.booleans()):
            # a word equal to base^k tail whenever both quotients allow
            rel = data.draw(st.sampled_from(build_presentation(n, "extended").relators))
            v = concat(power(base, k), rel, tail)
        lhs, rhs = [Power(base, k), tail], _cut(data, v)
        answers = [_answer(lambda: equal_products(lhs, rhs, Factors(n))),
                   _answer(lambda: equal_with_witness(concat(power(base, k), tail), v, n))]
        if None not in answers:
            assert answers[0] == answers[1]

    def test_evaluation_orders_may_trip_apart(self):
        # (s4 s4 S3 s2 S3)^5 holds 485,002 letters at n = 5: u v^-1
        # cancels it, while the product path evaluates it
        base, rel, guard = (4, 4, -3, 2, -3), (T, 2, T, 2), 10**4
        assert equal_with_witness(power(base, 5), concat(rel, power(base, 5)), 5, guard)[0]
        with pytest.raises(ResourceLimitError):
            equal_products([Power(base, 5)], [rel, Power(base, 5)], Factors(5, guard))

    def test_cancelling_preimages_trip_at_once(self):
        # u = (s2 S1 S5 S1 s6 S1)^7 at n = 7 holds 778,364 letters and
        # v^-1 sends x1, x2 to words of 75,895 and 20,017 letters, whose
        # images under u sum to billions of letters that almost all
        # cancel: the guard refuses them before any letter is cancelled
        base, braid = (2, -1, -5, -1, 6, -1), (1, 2, 1, -2, -1, -2)
        with pytest.raises(ResourceLimitError):
            equal_products([Power(base, 7)], [concat(power(base, 7), braid)], Factors(7))

    def test_shared_factor_is_evaluated_once(self, monkeypatch):
        phi = named_word("phi", 8)
        calls = []
        evaluate = action._evaluate
        monkeypatch.setattr(action, "_evaluate",
                            lambda word, *rest: calls.append(word) or evaluate(word, *rest))
        factors = Factors(8)
        for i in range(1, 7):
            assert equal_products([phi, (i,)], [(7 - i,), phi], factors) == (True, EPSILON)
        assert calls.count(phi) == 1
        assert calls.count(invert(phi)) == 1

    def test_different_quotients_are_not_evaluated(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("word evaluated")

        monkeypatch.setattr(action, "_evaluate", refuse)
        assert equal_products([(1,)], [(2,)], Factors(6)) == (False, None)
        # (s1 s2)^2 moves the punctures by a 3-cycle, and s1^3 s2 and s3 s4
        # move them differently
        assert equal_products([Power((1, 2), 2)], [EPSILON], Factors(6)) == (False, None)
        assert equal_products([Power((1,), 3), (2,)], [(3, 4)], Factors(6)) == (False, None)


class TestEquality:
    def test_reflection_fixes_first_rotation(self):
        a0 = named_word("a0", 6)
        assert equal_with_witness(concat((T,), a0, (T,)), a0, 6)[0]

    def test_chain_line(self):
        lhs = parse_expression("b^-2 a b", 6)
        assert equal_with_witness(lhs, (-4, -3, 1, 2, 4), 6)[0]

    def test_distinct_twists_differ(self):
        assert not equal_with_witness((1,), (2,), 6)[0]

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
            assert equal_with_witness(u, u, 6)[0]
        for u in words:
            for v in words:
                assert equal_with_witness(u, v, 6)[0] == equal_with_witness(v, u, 6)[0]


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

    def test_identity_has_order_one(self):
        assert order_of((), 6) == 1
        assert order_of((1, -1), 6) == 1

    def test_explicit_cap(self):
        assert order_of(named_word("a0", 6), 6, cap=5) is None
        assert order_of(named_word("a0", 6), 6, cap=6) == 6

    def test_power_order_divisibility(self):
        ta0 = concat((T,), named_word("a0", 6))
        assert order_of(power(ta0, 2), 6) == 3
        assert order_of(power(ta0, 3), 6) == 2
        assert order_of((T,), 6) == 2

    @pytest.mark.parametrize("n, expr, order", [(6, "s1", None), (12, "s1 S2", None),
                                                (9, "t a0", 18), (10, "a0", 10)])
    def test_one_inner_test_per_order(self, monkeypatch, n, expr, order):
        # a finite order is the quotient order m, so only the m-th power
        # is tested: s1 at n = 6 has m = 2 and infinite order
        action._gen_auts(n)  # the validation tests relators of its own
        calls = []
        is_inner = action.is_inner
        monkeypatch.setattr(action, "is_inner", lambda f: calls.append(f) or is_inner(f))
        assert order_of(parse_expression(expr, n), n) == order
        assert len(calls) == 1

    @pytest.mark.parametrize("n, expr, m", [(10, "a", 10), (9, "t a0", 18), (6, "s1 s2 s3", 4)])
    def test_inner_test_reads_the_exact_power(self, monkeypatch, n, expr, m):
        # the one power tested is the m-th power of the cyclic core
        # itself, carried conjugator included: t a0 at n = 9 is raised
        # through its square, and s1 s2 s3 has infinite order
        action._gen_auts(n)  # the validation tests relators of its own
        core = cyclic_core(reduce(parse_expression(expr, n)))[0]
        assert action._quotient_order(core, n) == m
        tested = []
        is_inner = action.is_inner
        monkeypatch.setattr(action, "is_inner", lambda f: tested.append(f) or is_inner(f))
        order_of(parse_expression(expr, n), n)
        assert [plain(f) for f in tested] == [plain(word_to_aut(power(core, m), n))]

    def test_quotient_order_above_cap_is_not_evaluated(self, monkeypatch):
        # the puncture permutation is a 5-cycle times a 7-cycle, so the
        # order is a multiple of 35 and a cap of 30 decides it unevaluated
        def refuse(*args):
            raise AssertionError("word evaluated")

        monkeypatch.setattr(action, "_evaluate", refuse)
        assert order_of((1, 2, 3, 4, 6, 7, 8, 9, 10, 11), 12, cap=30) is None

    @given(st.integers(3, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([T, n - 1, 1 - n, n - 2, 2 - n, 1, -1]), max_size=8),
        st.sampled_from(["a0", "a1", "t a0", "t", "s1", "t s1", "a0 a1"]
                        + ["a2", f"t s{n - 1}^-1 a2"] * (n >= 4)),
        st.lists(st.sampled_from([T, n - 1, 1 - n, n - 2, 2 - n]), max_size=2),
        st.booleans())))
    @settings(max_examples=80, deadline=None)
    def test_matches_power_by_power_reference(self, case):
        # v p r v^-1: a conjugate of a periodic element p when r is
        # empty, and mostly of infinite order otherwise; half the words
        # are reflection words, whose powers go through their square
        n, v, p, r, odd = case
        if _reflects(concat(parse_expression(p, n), r)) != odd:
            r = [*r, T]
        word = concat(v, parse_expression(p, n), r, invert(v))
        guard = 20_000

        def reference(cap):
            # every power up to the cap, one compose per step; a word
            # whose cyclic core is empty, such as t t, has order 1 at
            # every cap, as order_of answers it
            if cyclic_core(reduce(word))[0] == EPSILON:
                return 1
            f = g = plain(word_to_aut(word, n, guard))
            for k in range(1, cap + 1):
                if k > 1:
                    g = compose(g, f, guard)
                if is_inner(g) is not None:
                    return k
            return None

        def both(cap):
            try:
                return reference(cap), order_of(word, n, cap, guard)
            except ResourceLimitError:
                return None

        got = both(4 * n)
        if got is None:
            return
        assert got[0] == got[1]
        if got[0] is not None:
            for cap in (got[0] - 1, got[0]):
                pair = both(cap)
                assert pair is None or pair[0] == pair[1]


def _known_order(name, n):
    """The order of each element the harness pins, from the paper: a is
    a conjugate of t a0, and b is t s(n-1)^-1 a2."""
    twisted = 1 if n % 2 == 0 else 2
    return {"a0": n, "a1": n - 1, "a2": n - 2, "t s1": 2,
            "t a0": twisted * n, "a": twisted * n, "b": twisted * (n - 2)}[name]


class TestOrdersOnTheCore:
    """order_of answers on the cyclic core of the word: its end letters
    are peeled while they are inverse in the group, t^-1 = t included."""

    @given(st.integers(5, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sampled_from(["a0", "a1", "a2", "t a0", "t s1", "a", "b"]),
        st.lists(st.sampled_from([T, 1, -1, 2, -2, n - 1, 1 - n]), max_size=4),
        st.lists(st.sampled_from([T, 1, -1, 2, -2, n - 1, 1 - n]), max_size=4),
        st.booleans())))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_has_the_order_of_its_core(self, case):
        n, name, head, tail, typed = case
        g = (*head, T, *tail)
        # g^-1 as invert writes it (t^-1 as -t), or as typed, with +t
        back = typed_inverse(g) if typed else invert(g)
        word = parse_expression(name, n)
        assert order_of(word, n) == _known_order(name, n)
        assert order_of(concat(g, word, back), n) == _known_order(name, n)

    def test_reflection_at_both_ends(self):
        # t ... T: parse_expression reads both as +t
        word = parse_expression("t s2 a0 S2 T", 6)
        assert word[0] == word[-1] == T
        assert order_of(word, 6) == 6

    def test_peel_leaves_nothing(self):
        g = (1, T, -3, 2)
        assert order_of(concat(g, (T, T), invert(g)), 6) == 1
        assert order_of(g + (T, T) + typed_inverse(g), 6) == 1

    def test_unpaired_ends_are_not_peeled(self):
        # peeling s1 .. s1 as if it were a pair would leave t and a0,
        # of orders 2 and 5
        assert order_of(parse_expression("s1 t s1", 5), 5) == 2
        assert order_of(parse_expression("s1 a0 s1", 5), 5) is None

    def test_core_is_what_is_evaluated(self, monkeypatch):
        action._gen_auts(7)  # the validation evaluates relators of its own
        seen = []
        evaluate = action._evaluate
        monkeypatch.setattr(action, "_evaluate",
                            lambda word, *args: seen.append(word) or evaluate(word, *args))
        a0 = named_word("a0", 7)
        assert order_of(concat((T, 3), a0, (-3, T)), 7) == 7
        assert seen == [a0]


class TestReflectionPowers:
    """A reflection word is powered through its square, whose reflections
    cancel in the rewrite: no order and no even power of one runs the
    prefix reflection.  Nor does an equality, since a difference that
    passes the mod-2 image holds an even number of t."""

    @pytest.fixture
    def reflections(self, monkeypatch):
        for n in range(5, 12):
            action._gen_auts(n)  # the validation reflects on its own
        calls = []
        reflect = action._prefix_reflect
        monkeypatch.setattr(action, "_prefix_reflect",
                            lambda *args: calls.append(args) or reflect(*args))
        return calls

    @pytest.mark.parametrize("n", [10, 11])
    def test_orders_run_no_prefix_reflection(self, reflections, n):
        for name in ("t a0", *["a", "b"] * (n % 2 == 0)):
            assert order_of(parse_expression(name, n), n) == _known_order(name, n)
        assert reflections == []

    def test_square_of_a_runs_no_prefix_reflection(self, reflections):
        a = named_word("a", 10)
        assert plain(Factors(10).aut(Power(a, 2))) == plain(word_to_aut(power(a, 2), 10))
        assert reflections == []

    @pytest.mark.parametrize("n, k", [(7, 5), (8, 3)])
    def test_factor_power_is_the_cached_power(self, n, k):
        # an odd power of a reflection word: the square's power times the
        # word, the same automorphism on the product path and in order_of
        w = parse_expression("t a0", n)
        direct = action._factor_power(w, k, lambda f: word_to_aut(f, n),
                                       action.DEFAULT_LENGTH_GUARD)
        assert Factors(n).aut(Power(w, k)) == direct
        assert plain(direct) == plain(word_to_aut(power(w, k), n))

    @pytest.mark.parametrize("n", range(5, 11))
    def test_equalities_run_no_prefix_reflection(self, reflections, n):
        for u, v in (("t a0 t", "a0"), ("t s1 t s1", ""),
                     (f"t s{n - 1}^-1 a2", f"a2 t s{n - 1}^-1")):
            assert equal_with_witness(parse_expression(u, n), parse_expression(v, n), n)[0]
        assert reflections == []


class TestPunctureRange:
    """n outside 3..T_LETTER is refused at the library boundary, before
    any quotient step could answer from a meaningless permutation."""

    @pytest.mark.parametrize("call", [
        lambda: order_of((1,), 2, cap=1),
        lambda: equal_with_witness((1,), (), 2),
        lambda: equal_with_witness((1,), (1,), 2),
    ])
    def test_too_few_punctures(self, call):
        with pytest.raises(ValueError, match="need n >= 3, got 2"):
            call()

    @pytest.mark.parametrize("call", [
        lambda n: order_of((1,), n),
        lambda n: equal_with_witness((1,), (), n),
        lambda n: equal_with_witness((1,), (1,), n),
        lambda n: build_presentation(n, "extended"),
    ])
    def test_beyond_the_reflection_letter(self, monkeypatch, call):
        def refuse(*args, **kwargs):
            raise AssertionError("work started at an out-of-range n")
        # a relator is reduced as it is added, so a build refused late
        # would still fail at its first relator, not run to 2^20 punctures
        monkeypatch.setattr(action, "_gen_auts", refuse)
        monkeypatch.setattr("spheremcg.presentation.power", refuse)
        monkeypatch.setattr("spheremcg.presentation.reduce", refuse)
        with pytest.raises(ValueError, match=f"need n <= {T_LETTER}"):
            call(T_LETTER + 1)


class TestHomomorphism:
    @given(st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4, T]),
                    max_size=8).map(reduce),
           st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4, T]),
                    max_size=8).map(reduce))
    @settings(max_examples=100, deadline=None)
    def test_word_to_aut_multiplicative(self, u, v):
        lhs = word_to_aut(concat(u, v), 5)
        rhs = compose(word_to_aut(u, 5), word_to_aut(v, 5))
        assert plain(lhs) == plain(rhs)

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

        assert plain(word_to_aut(u, n)) == plain(fold(u))
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
            assert equal_with_witness(concat(a2, (k,), invert(a2)), (target,), 6)[0]


class TestResourceGuard:
    def test_growth_triggers_guard(self):
        with pytest.raises(ResourceLimitError):
            word_to_aut(power((1, 2), 50), 6, guard=50)

    def test_guard_not_triggered_on_short_words(self):
        word_to_aut(power((1, 2), 3), 6, guard=10**6)

    def test_act_refuses_a_result_the_conjugator_makes_too_long(self):
        # x1 has a one-letter image, so the check before any cancelling
        # passes; conjugated by x2^10 it is 21 letters long
        f = FreeAut(5, identity_aut(5).images, (2,) * 10)
        assert len(action._act(f, (1,), 21)) == 21
        with pytest.raises(ResourceLimitError):
            action._act(f, (1,), 15)

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
            power(concat((T,), named_word("a0", 13)), 13), (T,), 13, g), 50),
        (lambda g: order_of(named_word("a0", 10), 10, guard=g), 24),
        # the guard reads the core a0, not the conjugate
        (lambda g: order_of(concat((T, 3, 2), named_word("a0", 10), (-2, -3, T)), 10,
                            guard=g), 24),
        # m = 18: the permutation's 9-cycle, doubled by the reflection,
        # so the powers are built from (t a0)^2, evaluated without t
        (lambda g: order_of(concat((T,), named_word("a0", 9)), 9, guard=g), 28),
    ], ids=["twists", "a10b-8", "ta0^13", "order-a0", "order-conjugate", "order-ta0"])
    def test_guard_trips_at_the_pinned_letter_count(self, call, least):
        call(least)
        with pytest.raises(ResourceLimitError):
            call(least - 1)

    # The same on the product path, with a fresh factor cache per call:
    # (t a0)^13 trips in a product of the squaring, phi in its evaluation.
    @pytest.mark.parametrize("call, least", [
        (lambda g: equal_products([Power(concat((T,), named_word("a0", 13)), 13)], [(T,)],
                                  Factors(13, g)), 150),
        (lambda g: equal_products([named_word("phi", 10), (3,)], [(6,), named_word("phi", 10)],
                                  Factors(10, g)), 81),
    ], ids=["ta0^13", "phi"])
    def test_product_guard_trips_at_the_pinned_letter_count(self, call, least):
        call(least)
        with pytest.raises(ResourceLimitError):
            call(least - 1)
