from itertools import product

import pytest

from darkc import energy
from darkc.cartan import CartanA
from darkc.crystal import TensorElt, classical_highest_path
from darkc.energy import comb_R, local_H, total_D
from darkc.kr import find_b_rs, generate, parse_tableau, parse_tensor
from darkc.selftest import EnergyOracle


def elt(n, text, r=None):
    return parse_tableau(CartanA(n), text, r)


def tensor(n, *texts):
    return TensorElt(tuple(elt(n, t) for t in texts))


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


def test_energy_tables_build_on_grid_pairs():
    # oracle construction itself asserts BFS consistency and connectedness
    for n in (1, 2):
        c = CartanA(n)
        shapes = [(r, s) for r in range(1, min(n, 2) + 1) for s in (1, 2)]
        for sh1, sh2 in product(shapes, repeat=2):
            table = EnergyOracle(c, sh1, sh2)
            assert len(table.H) == len(generate(c, *sh1)) * len(generate(c, *sh2))


@pytest.mark.parametrize("n, sh1, sh2", [
    *((n, sh1, sh2) for n in (1, 2)
      for sh1, sh2 in product([(r, s) for r in range(1, n + 1) for s in (0, 1, 2, 3)],
                              repeat=2)),
    (4, (1, 1), (2, 1)), (4, (2, 1), (1, 2)), (4, (3, 1), (2, 1)), (4, (1, 2), (4, 1)),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"n{v}")
def test_lazy_entries_match_oracle(n, sh1, sh2):
    c = CartanA(n)
    oracle = EnergyOracle(c, sh1, sh2)
    for a, b in product(generate(c, *sh1), generate(c, *sh2)):
        x = TensorElt((a, b))
        assert comb_R(x).factors == oracle.R[(a, b)]
        assert local_H(x) == oracle.H[(a, b)]


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
        local_H(TensorElt((elt(1, "1"),)))
    assert parse_tensor(CartanA(1), "1|2").factors[1].text() == "2"
