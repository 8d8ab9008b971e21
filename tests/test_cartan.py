import pickle
import random
from fractions import Fraction

import pytest

from darkc.cartan import (AffineWeight, CartanA, aff_level_zero, cl_simple_root, reflect,
                          rotate, simple_root, weight_to_json)
from darkc.selftest import _random_poly
from oracles import (coroot_pair, d_coeff, d_pair, delta_weight, fundamental_weight,
                     weight_from_json)


def solve_exact(rows, rhs):
    """Gaussian elimination over Fraction; rows is a square matrix."""
    size = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_coeff_rederived_from_linear_system(n):
    # unknowns x_0..x_n subject to x_0 = 0 and sum_j a_ji x_j = delta_i0 - 1/m
    c = CartanA(n)
    m = c.m
    rows = [[1] + [0] * n]
    rhs = [Fraction(0)]
    for i in range(1, m):
        rows.append([c.a(j, i) for j in range(m)])
        rhs.append(Fraction(0) - Fraction(1, m))
    xs = solve_exact(rows, rhs)
    # the remaining (i = 0) equation must hold, and the closed form must match
    assert sum(c.a(j, 0) * xs[j] for j in range(m)) == 1 - Fraction(1, m)
    assert xs == [d_coeff(c, j) for j in range(m)]


def test_cartan_matrix_small_cases():
    c1 = CartanA(1)
    assert [[c1.a(i, j) for j in range(2)] for i in range(2)] == [[2, -2], [-2, 2]]
    c2 = CartanA(2)
    assert [[c2.a(i, j) for j in range(3)] for i in range(3)] == [
        [2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    c3 = CartanA(3)
    assert c3.a(0, 2) == 0 and c3.a(0, 3) == -1


def test_simple_root_examples():
    c = CartanA(1)
    assert simple_root(c, 1) == AffineWeight((-2, 2), Fraction(1, 2))
    c = CartanA(2)
    assert simple_root(c, 0) == AffineWeight((2, -1, -1), Fraction(1, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simple_roots_pinned_by_defining_relations(n):
    # lam part carries the coroot pairings; the delta parts are forced by
    # sum alpha_i = delta together with rotation equivariance
    c = CartanA(n)
    roots = [simple_root(c, i) for i in c.nodes]
    for i in c.nodes:
        for j in c.nodes:
            assert coroot_pair(roots[j], i) == c.a(i, j)
    total = AffineWeight((0,) * c.m)
    for a in roots:
        total = total + a
    assert total == delta_weight(c)
    for k in c.nodes:
        for i in c.nodes:
            assert rotate(c, k, roots[i]) == roots[(i + k) % c.m]


def test_reflect_examples():
    c = CartanA(1)
    assert reflect(c, 1, fundamental_weight(c, 1)) == AffineWeight(
        (2, -1), Fraction(-1, 2))
    c = CartanA(3)
    for j in range(4):
        for i in range(4):
            if i != j:
                assert reflect(c, i, fundamental_weight(c, j)) == \
                    fundamental_weight(c, j)


def test_reflect_is_involution_on_samples():
    rng = random.Random(7)
    for n in (1, 2, 3):
        c = CartanA(n)
        for _ in range(25):
            mu = AffineWeight(tuple(rng.randint(-4, 4) for _ in range(c.m)),
                              Fraction(rng.randint(-6, 6), 2 * c.m))
            for i in c.nodes:
                assert reflect(c, i, reflect(c, i, mu)) == mu


def test_rotate_examples():
    c = CartanA(2)
    assert rotate(c, 1, fundamental_weight(c, 0)) == fundamental_weight(c, 1)
    assert rotate(c, 2, fundamental_weight(c, 2)) == fundamental_weight(c, 1)
    for k in range(3):
        assert rotate(c, k, delta_weight(c)) == delta_weight(c)


def test_rotate_commutes_with_reflection():
    rng = random.Random(11)
    for n in (1, 2, 3):
        c = CartanA(n)
        for _ in range(20):
            mu = AffineWeight(tuple(rng.randint(-3, 3) for _ in range(c.m)),
                              Fraction(rng.randint(-4, 4), c.m))
            for k in c.nodes:
                for i in c.nodes:
                    assert rotate(c, k, reflect(c, i, mu)) == \
                        reflect(c, (i + k) % c.m, rotate(c, k, mu))


def test_d_pair_examples():
    for n in (1, 2, 3):
        c = CartanA(n)
        assert d_pair(c, delta_weight(c)) == 1
        for i in c.nodes:
            assert d_pair(c, simple_root(c, i)) == int(i == 0)
        assert d_pair(c, fundamental_weight(c, 0)) == 0


def test_aff_level_zero():
    c = CartanA(1)
    assert aff_level_zero(c, (-1, 1)) == AffineWeight(
        (-1, 1), Fraction(1, 4))
    assert aff_level_zero(c, (0, 0)) == AffineWeight((0,) * c.m)
    with pytest.raises(ValueError):
        aff_level_zero(c, (1, 1))
    rng = random.Random(13)
    for n in (1, 2, 3):
        c = CartanA(n)
        for _ in range(20):
            lam = [rng.randint(-3, 3) for _ in range(n)]
            lam.append(-sum(lam))
            mu = aff_level_zero(c, tuple(lam))
            assert d_pair(c, mu) == 0
    for n in range(1, 7):
        c = CartanA(n)
        for _ in range(50):
            lam = [rng.randint(-6, 6) for _ in range(n)]
            lam.append(-sum(lam))
            want = -sum((v * d_coeff(c, j) for j, v in enumerate(lam)), Fraction(0))
            assert aff_level_zero(c, tuple(lam)) == AffineWeight(tuple(lam), want)


def test_denominators_divide_2m():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        c = CartanA(n)
        for _ in range(20):
            mu = AffineWeight(tuple(rng.randint(-3, 3) for _ in range(c.m)),
                              Fraction(rng.randint(-5, 5), 2 * c.m))
            for i in c.nodes:
                assert (2 * c.m) % reflect(c, i, mu).dlt.denominator == 0
            assert (2 * c.m) % d_pair(c, mu).denominator == 0
        lam = [rng.randint(-3, 3) for _ in range(n)]
        lam.append(-sum(lam))
        assert (2 * c.m) % aff_level_zero(c, tuple(lam)).dlt.denominator == 0


def test_cl_simple_root_level_zero():
    for n in (1, 2, 3):
        c = CartanA(n)
        for i in c.nodes:
            assert sum(cl_simple_root(c, i)) == 0


def test_node_range_errors():
    c = CartanA(2)
    with pytest.raises(IndexError):
        simple_root(c, 3)
    with pytest.raises(IndexError):
        reflect(c, -1, AffineWeight((0,) * c.m))


def test_weight_json_round_trip_and_golden():
    mu = AffineWeight((2, -1, 0), Fraction(-5, 6))
    blob = weight_to_json(mu)
    assert blob == {"lam": [2, -1, 0], "delta": "-5/6"}
    assert weight_from_json(blob) == mu
    assert weight_to_json(AffineWeight((0, 0)))["delta"] == "0"


def test_affine_weight_is_an_integer_vector():
    mu = AffineWeight((1, -2), Fraction(1, 4))
    nu = AffineWeight((0, 3), Fraction(-3, 4))
    assert tuple(mu) == (1, -2, 1) and mu.lam == (1, -2) and mu.dlt == Fraction(1, 4)
    assert mu.m == 2 and sum(mu.lam) == -1 and coroot_pair(mu, 1) == -2
    with pytest.raises(ValueError):
        AffineWeight((0, 1), Fraction(1, 3))
    assert AffineWeight((0, 1), "1/2") == AffineWeight((0, 1), Fraction(2, 4))
    # elementwise, never the tuple's repetition or concatenation
    for got, lam, dlt in ((2 * mu, (2, -4), Fraction(1, 2)),
                          (mu * 2, (2, -4), Fraction(1, 2)),
                          (-mu, (-1, 2), Fraction(-1, 4)),
                          (mu + nu, (1, 1), Fraction(-1, 2)),
                          (mu - nu, (1, -5), Fraction(1))):
        assert type(got) is AffineWeight and got == AffineWeight(lam, dlt)
    three = AffineWeight((0, 0, 0))
    for op in (lambda: mu + three, lambda: mu - three, lambda: three - mu):
        with pytest.raises(ValueError):
            op()
    assert pickle.loads(pickle.dumps(mu)) == mu
    assert repr(mu) == "AffineWeight((1, -2), 1/4)"


def test_affine_weight_order_is_lam_then_delta():
    rng = random.Random(19)
    for n in (1, 2, 3):
        c = CartanA(n)
        for _ in range(10):
            f = _random_poly(rng, c, 12)
            assert [mu for mu, _ in f.sorted_terms()] == \
                sorted(f.terms, key=lambda mu: (mu.lam, mu.dlt))
            for i in c.nodes:
                # the leading-term key of selftest.demazure_by_division
                assert sorted(f.terms, key=lambda mu: (mu[i], mu)) == \
                    sorted(f.terms, key=lambda mu: (mu.lam[i], mu.lam, mu.dlt))


def test_weight_json_delta_for_every_denominator_of_2m():
    for m in range(2, 8):
        lam = tuple(range(m))
        for q in (q for q in range(1, 2 * m + 1) if (2 * m) % q == 0):
            for p in range(-2 * q, 2 * q + 1):
                mu = AffineWeight(lam, Fraction(p, q))
                assert weight_to_json(mu) == {"lam": list(lam), "delta": str(Fraction(p, q))}
                assert weight_from_json(weight_to_json(mu)) == mu


def test_pairing_reflection_and_section_match_the_fraction_formulas():
    rng = random.Random(23)
    for n in range(1, 7):
        c = CartanA(n)
        for _ in range(30):
            mu = AffineWeight(tuple(rng.randint(-4, 4) for _ in range(c.m)),
                              Fraction(rng.randint(-6, 6), 2 * c.m))
            want = sum((v * d_coeff(c, j) for j, v in enumerate(mu.lam)), Fraction(0))
            assert d_pair(c, mu) == want + mu.dlt
            for i in c.nodes:
                k = mu.lam[i]
                assert reflect(c, i, mu) == AffineWeight(
                    tuple(v - k * c.a(j, i) for j, v in enumerate(mu.lam)),
                    mu.dlt - k * Fraction(1, c.m))
            lam = list(mu.lam[:-1]) + [-sum(mu.lam[:-1])]
            want = -sum((v * d_coeff(c, j) for j, v in enumerate(lam)), Fraction(0))
            assert aff_level_zero(c, tuple(lam)) == AffineWeight(tuple(lam), want)
