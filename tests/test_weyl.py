import io
import random
from functools import reduce
from itertools import combinations, permutations
from operator import mul

import pytest

from darkc import selftest
from darkc.cartan import CartanA
from darkc.dark import make_spec, validate
from darkc.weyl import (ExtAffPerm, all_reduced_words, bruhat_lower_interval,
                        from_reduced_word, from_word, identity, kr_translation_data, length,
                        reduced_word, reduce_to_weyl)
from oracles import (bruhat_leq, eq_mod_center, factor_sigma, left_descents, rot, simple,
                     translation)


def test_window_validation():
    with pytest.raises(ValueError):
        ExtAffPerm((1, 3))  # residues collide mod 2
    ExtAffPerm((0, 3))  # shifted but valid


@pytest.mark.parametrize("build", [lambda: from_word(1, ()), lambda: from_reduced_word(1, (0,)),
                                   lambda: ExtAffPerm((1,))], ids=["word", "reduced", "window"])
def test_rank_below_two_is_rejected_with_one_message(build):
    # words build their window without an ExtAffPerm, so they check m first
    with pytest.raises(ValueError, match=r"^window must have length m >= 2$"):
        build()


def test_simple_reflections_are_involutions():
    for m in (2, 3, 4):
        for i in range(m):
            s = simple(m, i)
            assert s * s == identity(m)
            assert length(s) == 1
    assert length(identity(3)) == 0


def test_length_matches_cayley_graph_distance():
    # independent oracle: distance from the identity in the Cayley graph
    for m in (2, 3):
        gens = [simple(m, i) for i in range(m)]
        dist = {identity(m): 0}
        frontier = [identity(m)]
        for d in range(1, 5):
            new = []
            for w in frontier:
                for g in gens:
                    v = g * w
                    if v not in dist:
                        dist[v] = d
                        new.append(v)
            frontier = new
        for w, d in dist.items():
            assert length(w) == d


def test_length_of_alternating_words_n1():
    s0, s1 = simple(2, 0), simple(2, 1)
    assert length(s0 * s1 * s0) == 3
    w = identity(2)
    for k in range(1, 5):
        w = w * s0 * s1
        assert length(w) == 2 * k


def test_length_example_n2():
    assert length(from_word(3, (1, 2, 1))) == 3


def test_length_is_sigma_invariant_and_subadditive():
    rng = random.Random(3)
    for m in (2, 3):
        for _ in range(20):
            a = from_word(m, [rng.randrange(m) for _ in range(rng.randint(0, 5))])
            b = from_word(m, [rng.randrange(m) for _ in range(rng.randint(0, 5))])
            assert length(rot(m) * a) == length(a)
            assert length(a * b) <= length(a) + length(b)
            for i in range(m):
                assert abs(length(simple(m, i) * a) - length(a)) == 1


def test_translation_group_law():
    rng = random.Random(5)
    for n in (1, 2, 3):
        c = CartanA(n)
        assert translation(c, (0,) * c.m) == identity(c.m)
        for _ in range(15):
            a = tuple(rng.randint(-2, 2) for _ in range(c.m))
            b = tuple(rng.randint(-2, 2) for _ in range(c.m))
            ab = tuple(x + y for x, y in zip(a, b))
            assert translation(c, a) * translation(c, b) == translation(c, ab)


def test_translation_conjugation_by_classical_elements():
    # w t_a w^{-1} = t_{w(a)} for w in W_0 acting by permuting coordinates
    c = CartanA(2)
    rng = random.Random(9)
    for perm in permutations(range(1, 4)):
        w = ExtAffPerm(perm)
        for _ in range(5):
            a = tuple(rng.randint(-2, 2) for _ in range(3))
            moved = [0, 0, 0]
            for j in range(3):
                moved[w.apply(j + 1) - 1] = a[j]
            assert w * translation(c, a) * w.inverse() == translation(c, tuple(moved))


def test_factor_sigma_basic():
    for m in (2, 3, 4):
        y, k = factor_sigma(rot(m))
        assert (y, k) == (identity(m), 1)
        for i in range(m):
            assert factor_sigma(simple(m, i)) == (simple(m, i), 0)


def test_factor_sigma_recomposition():
    rng = random.Random(21)
    for m in (2, 3):
        for _ in range(25):
            w = from_word(m, [rng.randrange(m) for _ in range(rng.randint(0, 4))])
            w = w * rot(m, rng.randrange(m)) * translation(
                CartanA(m - 1), tuple(rng.randint(-1, 1) for _ in range(m)))
            y, k = factor_sigma(w)
            assert y.shift == 0
            assert eq_mod_center(y * rot(m, k), w)


def test_kr_translation_data_anchors():
    y, k = kr_translation_data(CartanA(1), 1)
    assert (reduced_word(y), k) == ((1,), 1)
    y, k = kr_translation_data(CartanA(2), 1)
    assert k == 1 and length(y) == 2
    y, k = kr_translation_data(CartanA(2), 2)
    assert k == 2 and length(y) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kr_translation_data_general_shape(n):
    c = CartanA(n)
    for r in range(1, n + 1):
        y, k = kr_translation_data(c, r)
        assert k == r % c.m
        assert length(y) == r * (c.m - r)
    with pytest.raises(IndexError):
        kr_translation_data(c, n + 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_kr_translation_data_is_the_factored_translation(n):
    # the closed form against factor_sigma, which asserts its recomposition
    c = CartanA(n)
    for r in range(1, n + 1):
        a = (0,) * (c.m - r) + (1,) * r
        assert kr_translation_data(c, r) == factor_sigma(translation(c, a))


def _literal_simple(m, i):
    win = list(range(1, m + 1))
    if i == 0:
        win[0], win[m - 1] = 0, m + 1
    else:
        win[i - 1], win[i] = i + 1, i
    return ExtAffPerm(tuple(win))


def _length_descents(w):
    return [i for i in range(w.m) if length(simple(w.m, i) * w) < length(w)]


def _length_reduced_word(w):
    letters = []
    while length(w) > 0:
        i = _length_descents(w)[0]
        letters.append(i)
        w = simple(w.m, i) * w
    return tuple(letters)


def _length_reduced_words(w):
    if length(w) == 0:
        return {()}
    return {(i,) + tail for i in _length_descents(w)
            for tail in _length_reduced_words(simple(w.m, i) * w)}


def _subword_products(y):
    word = _length_reduced_word(y)
    return {from_word(y.m, [word[k] for k in ks])
            for size in range(len(word) + 1) for ks in combinations(range(len(word)), size)}


@pytest.mark.parametrize("m", range(2, 8))
def test_window_descents_match_the_length_definitions(m):
    rng = random.Random(100 + m)
    c = CartanA(m - 1)
    for _ in range(40):
        word = tuple(rng.randrange(m) for _ in range(rng.randint(0, 9)))
        w = from_word(m, word)
        assert w == reduce(mul, (_literal_simple(m, i) for i in word), identity(m))
        assert left_descents(w) == _length_descents(w)
        assert reduced_word(w) == _length_reduced_word(w)
        if length(w) <= 6:
            assert all_reduced_words(w) == _length_reduced_words(w)
        reduced = length(w) == len(word)
        assert (from_reduced_word(m, word) == w) if reduced else from_reduced_word(m, word) is None
        classical = tuple(i for i in word if i)
        spec = make_spec(m - 1, (1,), words=[(classical, ())])
        if length(from_word(m, classical)) == len(classical):
            validate(spec)
        else:
            with pytest.raises(ValueError, match="is not reduced"):
                validate(spec)
    for r in range(1, m):
        y = kr_translation_data(c, r)[0]
        assert bruhat_lower_interval(y) == _subword_products(y)
    for _ in range(5):
        y = reduce_to_weyl(from_word(m, [rng.randrange(m) for _ in range(rng.randint(0, 7))]))
        assert bruhat_lower_interval(y) == _subword_products(y)


def test_reduced_word_round_trip():
    rng = random.Random(23)
    for m in (2, 3, 4):
        assert reduced_word(identity(m)) == ()
        assert reduced_word(simple(m, 1)) == (1,)
        for _ in range(20):
            w = reduce_to_weyl(from_word(
                m, [rng.randrange(m) for _ in range(rng.randint(0, 5))]))
            word = reduced_word(w)
            assert len(word) == length(w)
            assert from_word(m, word) == w


def test_all_reduced_words_braid():
    w = from_word(3, (1, 2, 1))
    assert all_reduced_words(w) == frozenset({(1, 2, 1), (2, 1, 2)})
    assert all_reduced_words(identity(3)) == frozenset({()})
    with pytest.raises(ValueError):
        all_reduced_words(w, cap=2)


def test_bruhat_order_basics():
    s0, s1 = simple(2, 0), simple(2, 1)
    assert bruhat_leq(s0, s1 * s0)
    assert not bruhat_leq(s1 * s0, s0)
    rng = random.Random(29)
    for m in (2, 3):
        for _ in range(15):
            w = reduce_to_weyl(from_word(
                m, [rng.randrange(m) for _ in range(rng.randint(0, 4))]))
            assert bruhat_leq(identity(m), w)
            assert bruhat_leq(w, w)


def test_bruhat_antisymmetry_at_equal_length():
    seen = set()
    for word_len in range(4):
        for word in _words(3, word_len):
            w = from_word(3, word)
            if length(w) == word_len:
                seen.add(w)
    elems = sorted(seen, key=lambda w: (length(w), w.win))
    for a in elems:
        for b in elems:
            if length(a) == length(b) and a != b:
                assert not (bruhat_leq(a, b) and bruhat_leq(b, a))


def _words(m, k):
    if k == 0:
        yield ()
        return
    for tail in _words(m, k - 1):
        for i in range(m):
            yield (i,) + tail


def test_bruhat_transitivity_on_samples():
    rng = random.Random(31)
    for _ in range(60):
        a, b, c = (reduce_to_weyl(from_word(
            3, [rng.randrange(3) for _ in range(rng.randint(0, 3))]))
            for _ in range(3))
        if bruhat_leq(a, b) and bruhat_leq(b, c):
            assert bruhat_leq(a, c)


def test_bruhat_interval_independent_of_word_choice():
    # the interval below s_1 s_2 s_1 computed through either braid word
    w = from_word(3, (1, 2, 1))
    interval = bruhat_lower_interval(w)
    assert len(interval) == 6  # the whole of W_0 for m = 3
    by_subwords = set()
    for word in ((1, 2, 1), (2, 1, 2)):
        elems = {identity(3)}
        for i in word:
            elems |= {u * simple(3, i) for u in elems
                      if length(u * simple(3, i)) > length(u)}
        by_subwords.add(frozenset(elems))
    assert by_subwords == {interval}


def test_window_invariants_after_group_ops():
    rng = random.Random(37)
    for m in (2, 3):
        for _ in range(25):
            a = from_word(m, [rng.randrange(m) for _ in range(3)]) * rot(
                m, rng.randrange(m))
            b = translation(CartanA(m - 1),
                            tuple(rng.randint(-2, 2) for _ in range(m)))
            for w in (a * b, a.inverse(), b * a):
                assert len({v % m for v in w.win}) == m
                assert w.shift % m == 0


def test_a_selftest_run_validates_few_windows(monkeypatch):
    # validate reads whether a prefix is reduced off its window, and
    # reduce_to_weyl returns an element that needs no shift: one run_all
    # validated 20,917 windows before either, 11,801 after both
    made = [0]

    def counting(self, _post=ExtAffPerm.__post_init__):
        made[0] += 1
        _post(self)
    monkeypatch.setattr(ExtAffPerm, "__post_init__", counting)
    assert selftest.run_all(io.StringIO().write)
    assert made[0] <= 12_000
    monkeypatch.undo()
    y = kr_translation_data(CartanA(2), 1)[0]
    assert reduce_to_weyl(y) is y
    for spec in selftest.grid_specs():
        validate(spec)
    for words, error, text in [
            ([((1, 2, 1), (1,))], None, None),
            ([((1, 1), ())], ValueError, "factor 0: prefix (1, 1) is not reduced"),
            ([((1, 2, 1, 2), ())], ValueError, "factor 0: prefix (1, 2, 1, 2) is not reduced"),
            ([((0,), ())], ValueError, "factor 0: classical prefix contains node 0"),
            ([((3,), ())], IndexError, "node 3 out of range for rank 2"),
            ([(1, 1)], ValueError, "factor 0: word (1, 1) is not reduced"),
            ([(1, 3)], IndexError, "node 3 out of range for rank 2"),
            ([(1, 2, 1)], ValueError, "factor 0: word (1, 2, 1) is not below y_1 in Bruhat order")]:
        spec = make_spec(2, (1,), words=words)
        if error is None:
            validate(spec)
            continue
        with pytest.raises(error) as failure:
            validate(spec)
        assert failure.value.args == (text,)
