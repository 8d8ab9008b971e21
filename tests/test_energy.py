from bisect import bisect_right
from itertools import product

import pytest

from darkc import energy
from darkc.cartan import CartanA
from darkc.crystal import ProductTable, TensorElt, classical_highest_path
from darkc.energy import comb_R
from darkc.kr import find_b_rs, generate, parse_tableau, parse_tensor
from darkc.selftest import AXIOM_RANKS, PRODUCT_CAP, EnergyOracle, single_shapes


def elt(n, text, r=None):
    return parse_tableau(CartanA(n), text, r)


def tensor(n, *texts):
    return TensorElt(tuple(elt(n, t) for t in texts))


def local_H(x):
    """H of a two-factor tensor element, read off its pair's energy table."""
    a, b = x.factors
    table = energy.energy_table(x.cartan, a.shape, b.shape)
    return table.entry(table.pair.code(x))[1]


def total_D(b):
    """energy.total_D of a tensor element, on its code over its factors' tables."""
    space = ProductTable.of(a.table for a in b.factors)
    return energy.total_D(space, space.code(b))


def test_r_is_identity_on_equal_factors():
    for n in (1, 2):
        c = CartanA(n)
        for sh in ((1, 1), (1, 2)):
            B = generate(c, *sh)
            for a, b in product(B, B):
                assert comb_R(TensorElt((a, b))) == TensorElt((a, b))


def test_r_example():
    assert comb_R(tensor(1, "1", "11")) == tensor(1, "11", "1")


def test_r_commutes_with_f0():
    for n in (1, 2):
        c = CartanA(n)
        for a, b in product(generate(c, 1, 1), generate(c, 1, 2)):
            x = TensorElt((a, b))
            fx = x.f(0)
            assert (None if fx is None else comb_R(fx)) == comb_R(x).f(0)


def test_local_h_examples():
    c = CartanA(1)
    u = TensorElt((find_b_rs(c, 1, 1), find_b_rs(c, 1, 1)))
    assert local_H(u) == 0
    assert local_H(tensor(1, "2", "1")) == 0
    assert local_H(tensor(1, "2", "2")) == 0
    assert local_H(tensor(1, "1", "2")) == -1


def test_local_h_constant_on_classical_components():
    for n in (1, 2):
        c = CartanA(n)
        for a, b in product(generate(c, 1, 2), generate(c, 1, 1)):
            x = TensorElt((a, b))
            for i in c.classical_nodes:
                down = x.f(i)
                if down is not None:
                    assert local_H(down) == local_H(x)


def test_total_d_examples():
    assert total_D(TensorElt((elt(1, "1"),))) == 0
    assert total_D(tensor(1, "1", "2")) == local_H(tensor(1, "1", "2"))
    # three-factor values traced by hand through the pairwise formula
    assert total_D(tensor(1, "1", "1", "1")) == 0
    assert total_D(tensor(1, "2", "1", "1")) == 0
    assert total_D(tensor(1, "1", "2", "1")) == -2


def test_trivial_factor_contributes_nothing():
    c = CartanA(1)
    trivial = find_b_rs(c, 1, 0)
    for a in generate(c, 1, 2):
        assert total_D(TensorElt((trivial, a))) == 0
        assert total_D(TensorElt((a, trivial))) == 0


def test_yang_baxter():
    for n in (1, 2):
        c = CartanA(n)
        B11 = generate(c, 1, 1)
        B12 = generate(c, 1, 2)

        def r12(t):
            return comb_R(TensorElt(t[:2])).factors + (t[2],)

        def r23(t):
            return (t[0],) + comb_R(TensorElt(t[1:])).factors

        for t in product(B11, B11, B12):
            assert r12(r23(r12(t))) == r23(r12(r23(t)))


def test_r_squared_identity_mixed_shapes():
    c = CartanA(2)
    for a, b in product(generate(c, 1, 2), generate(c, 2, 1)):
        x = TensorElt((a, b))
        assert comb_R(comb_R(x)) == x


def shape_oracle(c, sh1, sh2):
    """(pair, swapped, their EnergyOracle) for pair = B^{sh1} (x) B^{sh2}."""
    left, right = generate(c, *sh1)[0].table, generate(c, *sh2)[0].table
    pair, swapped = ProductTable(left, right), ProductTable(right, left)
    return pair, swapped, EnergyOracle(pair, swapped)


def test_energy_tables_build_on_grid_pairs():
    # oracle construction itself asserts BFS consistency and connectedness
    for n in (1, 2):
        c = CartanA(n)
        shapes = [(r, s) for r in range(1, min(n, 2) + 1) for s in (1, 2)]
        for sh1, sh2 in product(shapes, repeat=2):
            oracle = shape_oracle(c, sh1, sh2)[2]
            assert len(oracle.H) == len(generate(c, *sh1)) * len(generate(c, *sh2))


@pytest.mark.parametrize("n, sh1, sh2", [
    *((n, sh1, sh2) for n in (1, 2)
      for sh1, sh2 in product([(r, s) for r in range(1, n + 1) for s in (0, 1, 2, 3)],
                              repeat=2)),
    (4, (1, 1), (2, 1)), (4, (2, 1), (1, 2)), (4, (3, 1), (2, 1)), (4, (1, 2), (4, 1)),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"n{v}")
def test_lazy_entries_match_oracle(n, sh1, sh2):
    c = CartanA(n)
    pair, swapped, oracle = shape_oracle(c, sh1, sh2)
    for x in range(len(pair)):
        b = pair.element(x)
        assert comb_R(b) == swapped.element(oracle.R[x])
        assert local_H(b) == oracle.H[x]


def tensor_word(x):
    """The reading word of a tensor element: each factor's rows, bottom row
    first, right factor first.  The word brackets i+1 against a later i and
    the signature rule a '+' against a later '-', so the two orders are
    reversed, and e_i and f_i on x act as on this word."""
    return [v for f in reversed(x.factors) for row in reversed(f.rows) for v in row]


def insertion_tableau(word):
    """P(word) by RSK row insertion: each letter bumps the leftmost larger
    entry of a row into the next row."""
    P = []
    for v in word:
        for row in P:
            k = bisect_right(row, v)
            if k == len(row):
                row.append(v)
                break
            row[k], v = v, row[k]
        else:
            P.append([v])
    return P


@pytest.mark.parametrize("n, sh1, sh2", [(3, (2, 2), (2, 3)), (4, (2, 2), (3, 1)),
                                         (3, (1, 3), (3, 2)), (4, (2, 2), (2, 2))])
def test_r_and_h_match_the_plactic_oracle(n, sh1, sh2):
    # Shimozono 2002: R keeps the insertion tableau P of the tensor word, and
    # H counts the boxes of its shape below row max(r, r').  Row insertion
    # shares no code with the raising walk, and these pairs lie beyond the
    # grid's cap on selftest.EnergyOracle.
    c = CartanA(n)
    rows = max(sh1[0], sh2[0])
    table, back = energy.energy_table(c, sh1, sh2), energy.energy_table(c, sh2, sh1)
    for x in map(TensorElt, product(generate(c, *sh1), generate(c, *sh2))):
        P = insertion_tableau(tensor_word(x))
        assert insertion_tableau(tensor_word(comb_R(x))) == P, x
        assert local_H(x) == -sum(map(len, P[rows:])), x
        code = table.pair.code(x)
        assert back.entry(table.entry(code)[0])[0] == code, x


def test_the_oracle_meets_the_plactic_invariants_on_every_grid_pair():
    # the oracle walks product table arrays and shares no code with energy:
    # check its R and H against row insertion alone on criterion 8's pairs
    pairs = 0
    for n in AXIOM_RANKS:
        c = CartanA(n)
        for sh1, sh2 in product(single_shapes(n), repeat=2):
            if len(generate(c, *sh1)) * len(generate(c, *sh2)) > PRODUCT_CAP:
                continue
            pair, swapped, oracle = shape_oracle(c, sh1, sh2)
            rows = max(sh1[0], sh2[0])
            for x, rx in enumerate(oracle.R):
                P = insertion_tableau(tensor_word(pair.element(x)))
                assert insertion_tableau(tensor_word(swapped.element(rx))) == P, x
                assert oracle.H[x] == -sum(map(len, P[rows:])), x
            pairs += 1
    assert pairs == 76


def test_total_d_computes_only_the_pairs_it_needs(monkeypatch):
    # a fresh table knows its highest elements; one lookup adds the pairs on
    # the raising path from x, out of the 2500 in B^{2,2} (x) B^{2,2}
    monkeypatch.setattr(energy, "_TABLES", {})
    c = CartanA(4)
    x = parse_tensor(c, "12/34|13/25")
    table = energy.energy_table(c, (2, 2), (2, 2))
    known = len(table.H)
    assert total_D(x) == local_H(x)
    assert list(energy._TABLES.values()) == [table]
    assert len(table.H) - known == len(classical_highest_path(x)[1])


def test_pair_table_requires_two_factors():
    with pytest.raises(ValueError):
        comb_R(TensorElt((elt(1, "1"),)))
    assert parse_tensor(CartanA(1), "1|2").factors[1].text() == "2"
