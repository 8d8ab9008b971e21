import pickle
import random
import sys
from fractions import Fraction
from itertools import chain, product
from operator import add
from pathlib import Path

import pytest

from darkc import charring
from darkc.cartan import AffineWeight, CartanA, _vec, simple_root
from darkc.charring import (CharPoly, _Packing, char_to_json, demazure_op, demazure_word,
                            fit_delta_shift, rhs_formula, sigma_act)
from darkc.selftest import _random_poly, demazure_by_division, grid_specs
from oracles import char_from_json

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's ladder specs)


def mono(lam, dlt=0):
    return CharPoly({AffineWeight(tuple(lam), Fraction(dlt)): 1})


def test_charpoly_arithmetic():
    f = mono((1, 0)) + 2 * mono((0, 1))
    g = mono((1, 0)) * -1
    assert (f + g).terms == {AffineWeight((0, 1)): 2}
    assert len(f * f) == 3
    assert f - f == CharPoly()
    assert not CharPoly()


def test_demazure_pairing_zero_fixes_monomial():
    c = CartanA(2)
    assert demazure_op(c, 2, mono((1, 1, 0))) == mono((1, 1, 0))
    assert demazure_op(c, 2, mono((1, 0, 1))) == mono((1, 0, 1)) + \
        CharPoly({AffineWeight((1, 0, 1)) - simple_root(c, 2): 1})


def test_demazure_negative_branches():
    c = CartanA(1)
    alpha = simple_root(c, 1)
    mu = AffineWeight((2, -1))
    assert demazure_op(c, 1, CharPoly({mu: 1})) == CharPoly()
    nu = AffineWeight((3, -2))
    assert demazure_op(c, 1, CharPoly({nu: 1})) == \
        -1 * CharPoly({nu + alpha: 1})


def test_demazure_example_n1():
    c = CartanA(1)
    got = demazure_op(c, 1, mono((0, 1)))
    assert got == mono((0, 1)) + CharPoly({AffineWeight((2, -1), Fraction(-1, 2)): 1})


def test_demazure_idempotent_on_random_polys():
    rng = random.Random(41)
    for n in (1, 2, 3):
        c = CartanA(n)
        for _ in range(8):
            f = _random_poly(rng, c, rng.randint(1, 15))
            for i in c.nodes:
                df = demazure_op(c, i, f)
                assert demazure_op(c, i, df) == df


def test_division_oracle_agreement():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.choice((1, 2, 3))
        c = CartanA(n)
        f = _random_poly(rng, c, 1)
        i = rng.randrange(c.m)
        assert demazure_op(c, i, f) == demazure_by_division(c, i, f)


def test_division_oracle_on_polynomials():
    rng = random.Random(44)
    for _ in range(10):
        c = CartanA(2)
        f = _random_poly(rng, c, 6)
        for i in c.nodes:
            assert demazure_op(c, i, f) == demazure_by_division(c, i, f)


def test_braid_relations_exhaustive_monomials():
    c = CartanA(2)
    lams = product(range(-2, 3), repeat=3)
    for lam in lams:
        f = mono(lam)
        for i in c.nodes:
            j = (i + 1) % c.m
            lhs = demazure_op(c, i, demazure_op(c, j, demazure_op(c, i, f)))
            rhs = demazure_op(c, j, demazure_op(c, i, demazure_op(c, j, f)))
            assert lhs == rhs


def test_commutation_for_distant_nodes():
    c = CartanA(3)
    for lam in product(range(-1, 2), repeat=4):
        f = mono(lam)
        for i, j in ((0, 2), (1, 3)):
            assert demazure_op(c, i, demazure_op(c, j, f)) == \
                demazure_op(c, j, demazure_op(c, i, f))


def test_demazure_word_order_pinned():
    # the rightmost letter acts first; for n = 1 this separates the two orders
    c = CartanA(1)
    f = mono((1, 0))
    assert demazure_word(c, (), f) == f
    assert len(demazure_word(c, (0, 1), f)) == 2
    assert len(demazure_word(c, (1, 0), f)) == 4


def test_demazure_word_braid_independence():
    c = CartanA(2)
    f = mono((0, 1, 0))
    assert demazure_word(c, (1, 2, 1), f) == demazure_word(c, (2, 1, 2), f)


def test_sigma_act():
    c = CartanA(2)
    assert sigma_act(c, 0, mono((1, 0, 0))) == mono((1, 0, 0))
    assert sigma_act(c, 1, mono((1, 0, 0))) == mono((0, 1, 0))
    rng = random.Random(47)
    for _ in range(10):
        f = _random_poly(rng, c, 5)
        g = _random_poly(rng, c, 5)
        for k in range(3):
            assert sigma_act(c, k, f * g) == sigma_act(c, k, f) * sigma_act(c, k, g)
            for i in c.nodes:
                assert sigma_act(c, k, demazure_op(c, i, f)) == \
                    demazure_op(c, (i + k) % c.m, sigma_act(c, k, f))


def test_rhs_formula_examples():
    c = CartanA(1)
    assert rhs_formula(c, (1,), ((),), (1,)) == mono((0, 1))
    assert rhs_formula(c, (1,), ((1,),), (1,)) == mono((0, 1)) + \
        CharPoly({AffineWeight((2, -1), Fraction(-1, 2)): 1})
    assert rhs_formula(c, (0, 0), ((), ()), (1, 1)) == CharPoly({AffineWeight((0,) * c.m): 1})
    with pytest.raises(ValueError):
        rhs_formula(c, (1, 2), ((), ()), (1, 1))
    with pytest.raises(ValueError):
        rhs_formula(c, (1,), ((), ()), (1,))


def tuple_fit(lhs, rhs):
    """The fit on AffineWeight tuples, the reference for the fit on keys:
    the lowest terms in tuple order fix the shift."""
    if len(lhs) != len(rhs):
        return False, None
    if not lhs:
        return True, Fraction(0)
    by = min(rhs.terms) - min(lhs.terms)
    if any(by.lam):
        return False, None
    if any(rhs.terms.get(mu + by) != coef for mu, coef in lhs.terms.items()):
        return False, None
    return True, by.dlt


def key_fit(c, lhs, rhs, zeros=()):
    """fit_delta_shift on the keys of one packing wide enough for both
    sides; the rhs map also holds the weights `zeros` with coefficient 0."""
    weights = list(chain(lhs.terms, rhs.terms, zeros))
    keys = _Packing(c, max(map(abs, chain.from_iterable(weights)), default=0))
    right = {keys.signs + keys.key(mu): 0 for mu in zeros}
    right.update({keys.signs + keys.key(mu): coef for mu, coef in rhs.terms.items()})
    left = {keys.signs + keys.key(mu): coef for mu, coef in lhs.terms.items()}
    return fit_delta_shift(keys.poly(left), keys.poly(right))


def fit(c, lhs, rhs, zeros=()):
    got = key_fit(c, lhs, rhs, zeros)
    assert got == tuple_fit(lhs, rhs), (lhs, rhs, zeros)
    return got


def test_fit_delta_shift():
    c = CartanA(1)
    delta_half = AffineWeight((0, 0), Fraction(1, 2))
    f = mono((0, 1)) + mono((2, -1), Fraction(-1, 4))
    g = f.shifted(delta_half)
    ok, shift = fit(c, f, g)
    assert ok and shift == Fraction(1, 2)
    ok, shift = fit(c, f, f + mono((1, 0)))
    assert not ok and shift is None
    # same lambda parts but inconsistent delta offsets
    h = mono((0, 1)) + mono((2, -1), Fraction(1, 4))
    ok, shift = fit(c, f, h)
    assert not ok
    # the same exponents with one coefficient changed
    ok, shift = fit(c, f, g + mono((0, 1), Fraction(1, 2)))
    assert not ok and shift is None
    assert fit(c, CharPoly(), CharPoly()) == (True, 0)
    assert fit(c, CharPoly(), g) == (False, None)


def test_fit_on_keys_matches_the_fit_on_tuples():
    rng = random.Random(1601)
    seen, cancelled_terms = set(), 0
    for _ in range(400):
        c = CartanA(rng.randint(1, 5))
        f = _random_poly(rng, c, rng.randint(1, 8))
        if not f:
            continue
        shift = Fraction(rng.randint(-40, 40), 2 * c.m)  # whole, negative, 1/2m
        g = f.shifted(AffineWeight((0,) * c.m, shift))
        zeros = [AffineWeight(tuple(rng.randint(-3, 3) for _ in range(c.m)), shift)
                 for _ in range(rng.randint(0, 3))]
        zeros = [mu for mu in zeros if mu not in g.terms]  # cancelled terms
        cancelled_terms += len(zeros)
        cases = {
            "translate": (g, ()),
            "translate with zeros": (g, zeros),
            "lambda moved": (f.shifted(AffineWeight((1, -1) + (0,) * (c.m - 2), shift)), ()),
            "one term moved": (CharPoly(dict(chain(list(g.terms.items())[1:], [(
                AffineWeight(tuple(rng.randint(-3, 3) for _ in range(c.m)), 0), 1)]))), zeros),
            "one coefficient changed": (g + CharPoly({min(g.terms): 1}), zeros),
            "one term more": (g + mono((5,) + (0,) * c.n, shift), zeros),
            "one term less": (CharPoly(dict(list(g.terms.items())[1:])), ()),
        }
        for name, (rhs, cancelled) in cases.items():
            ok, got = fit(c, f, rhs, cancelled)
            seen.add((name, ok))
            if name.startswith("translate"):
                assert ok and got == shift
    # each kind of non-translate failed at least once, and zeros were tried
    failing = ("lambda moved", "one term moved", "one coefficient changed",
               "one term more", "one term less")
    assert {(name, False) for name in failing} <= seen
    assert cancelled_terms > 0


def test_char_json_round_trip_and_golden():
    c = CartanA(1)
    f = demazure_op(c, 1, mono((0, 1)))
    blob = char_to_json(f)
    assert blob == [
        {"lam": [0, 1], "delta": "0", "coef": 1},
        {"lam": [2, -1], "delta": "-1/2", "coef": 1},
    ]
    assert char_from_json(blob) == f


def test_packed_polys_pickle_like_their_terms():
    # rhs_formula and demazure_word return CharPolys that unpack their keys
    # when first read; pickling reads them, before or after any other read
    c, args = CartanA(2), ((2, 1), ((1,), (2,)), (1, 1))
    want = nested_rhs(c, *args)
    assert pickle.loads(pickle.dumps(rhs_formula(c, *args))) == want
    f = demazure_word(c, (1, 2), mono((1, 1, 0)))
    assert len(f) == 2 and pickle.loads(pickle.dumps(f)).terms == f.terms


def test_a_packed_poly_counts_its_keys_and_keeps_one_copy():
    # poly drops cancelled coefficients, and len counts the packed keys, so a
    # count (as the benchmark's trace takes of the rhs) leaves them for the
    # fit; the first read of the terms lets the packed keys go
    c = CartanA(1)
    keys = _Packing(c, 3)
    f = keys.poly({keys.signs: 2, keys.signs + keys.key((1, -1, 0)): 0})
    assert len(f) == 1 and f._packed[1] == {keys.signs: 2}
    assert f.terms == {AffineWeight((0, 0)): 2} and len(f) == 1
    with pytest.raises(AttributeError):
        f._packed
    # the fit compares keys of one width only
    wide = _Packing(c, 1 << 40)
    assert wide.bits != keys.bits
    with pytest.raises(ValueError, match="different widths"):
        fit_delta_shift(keys.poly({keys.signs: 1}), wide.poly({wide.signs: 1}))


def tuple_demazure(c, i, f):
    """D_i monomial by monomial on AffineWeight tuples, one vector add per
    term: the reference for the packed kernel."""
    alpha = simple_root(c, i)
    out = {}
    for mu, coef in f.terms.items():
        k = mu[i]
        if k >= 0:
            step, count = -alpha, k + 1
        elif k <= -2:
            mu, step, count, coef = mu + alpha, alpha, -k - 1, -coef
        else:
            continue
        for _ in range(count):
            out[mu] = out.get(mu, 0) + coef
            mu = _vec(map(add, mu, step))
    return CharPoly(out)


def nested_rhs(c, lam, words, taus):
    """The nested formula as written, every rotation applied to every term:
    g_j = D_{w_j} sigma_{tau_j}(e^{lam^j Lambda_0} g_{j+1})."""
    g = CharPoly({AffineWeight((0,) * c.m): 1})
    for j in range(len(lam) - 1, -1, -1):
        step = lam[j] - (lam[j + 1] if j + 1 < len(lam) else 0)
        g = sigma_act(c, taus[j], g.shifted(AffineWeight((step,) + (0,) * c.n)))
        for i in reversed(words[j]):
            g = tuple_demazure(c, i, g)
    return g


def random_specs(seed, count):
    """(c, lam, words, taus) with n = 3..5, p <= 3, parts <= 3 and random
    letter sequences of length <= 6, reduced or not."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = CartanA(rng.randint(3, 5))
        p = rng.randint(1, 3)
        lam = sorted((rng.randint(0, 3) for _ in range(p)), reverse=True)
        words = [[rng.randrange(c.m) for _ in range(rng.randint(0, 6))] for _ in range(p)]
        out.append((c, lam, words, [rng.randint(0, c.n) for _ in range(p)]))
    return out


def spec_args(spec):
    return spec.cartan, spec.lam, tuple(fw.letters for fw in spec.words), spec.r


RHS_SPECS = {
    "grid": lambda: [spec_args(spec) for spec in grid_specs()],
    "ladder": lambda: [spec_args(workloads.maximal_spec(*case)) for case in workloads.LADDER],
    "random": lambda: random_specs(1501, 40),
}


@pytest.mark.parametrize("group", sorted(RHS_SPECS))
def test_rhs_formula_matches_the_nested_tuple_formula(group):
    for c, lam, words, taus in RHS_SPECS[group]():
        assert rhs_formula(c, lam, words, taus) == nested_rhs(c, lam, words, taus), \
            (c, lam, words, taus)


@pytest.mark.parametrize("big", (2**40, 2**70))
def test_rhs_formula_beyond_machine_words(big):
    c = CartanA(2)
    # one factor: e^{big Lambda_1}; letters 0 and 2 pair to 0 with it
    assert rhs_formula(c, (big,), ((),), (1,)) == mono((0, big, 0))
    assert rhs_formula(c, (big,), ((0, 2),), (1,)) == mono((0, big, 0))
    # two factors: e^{s Lambda_1 + big Lambda_2}, then D_1 and D_0 pair to at most s
    for lam, words, taus in (((big, big), ((), ()), (1, 2)),
                             ((big + 1, big), ((1,), ()), (1, 1)),
                             ((big + 2, big), ((0, 1), ()), (1, 1))):
        got = rhs_formula(c, lam, words, taus)
        assert got == nested_rhs(c, lam, words, taus)
        assert max(max(map(abs, mu)) for mu in got.terms) >= big


def test_narrow_digits_raise_before_they_carry(monkeypatch):
    c, lam, words, taus = CartanA(1), (15,), ((1, 0, 1, 0),), (1,)
    want = nested_rhs(c, lam, words, taus)
    assert rhs_formula(c, lam, words, taus) == want
    # some coordinate of the result does not fit an 8-bit digit
    assert max(max(map(abs, mu)) for mu in want.terms) > 127
    monkeypatch.setattr(charring, "DIGIT_BITS", 8)
    with pytest.raises(OverflowError, match="8-bit digit"):
        rhs_formula(c, lam, words, taus)
    with pytest.raises(OverflowError, match="8-bit digit"):
        demazure_word(c, words[0], mono((0, 15)))


def test_letters_out_of_range_raise_index_error():
    c = CartanA(2)
    f = mono((1, 0, 0))
    for bad in (c.m, -1):
        with pytest.raises(IndexError):
            demazure_op(c, bad, f)
        with pytest.raises(IndexError):
            demazure_word(c, (1, bad), CharPoly())
        with pytest.raises(IndexError):
            rhs_formula(c, (1,), ((bad,),), (1,))
        with pytest.raises(IndexError):
            rhs_formula(c, (2, 1), ((), (0, bad)), (1, 2))
