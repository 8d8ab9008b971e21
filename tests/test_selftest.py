"""Criteria 1, 2 and 8 run on the arrays of KR and product tables: criteria 1
and 2 build no tensor objects per element, and all three still catch a broken
arrow in a KR table."""

from collections import Counter

import pytest

from darkc import energy, selftest
from darkc.cartan import CartanA
from darkc.crystal import ModelConsistencyError, ProductTable, TensorElt
from darkc.kr import generate
from darkc.selftest import (CheckFailure, EnergyOracle, _check_pair_energy, _tensor_twists,
                            criterion_axioms, criterion_energy, criterion_twists)


def test_code_criteria_build_no_tensor_or_weight_objects(monkeypatch):
    # run on TensorElt objects, criterion 1 and the tensor part of criterion 2
    # built about 1.7M TensorElt objects; weights are plain int tuples
    made = Counter()

    def counting(self, *args, _init=TensorElt.__init__, **kwargs):
        made[type(self).__name__] += 1
        _init(self, *args, **kwargs)
    monkeypatch.setattr(TensorElt, "__init__", counting)
    assert criterion_axioms() == "370 crystals, 69563 elements"
    assert _tensor_twists() == 69563 - 157  # every element but the 157 tableaux
    monkeypatch.undo()
    assert made == Counter()


def test_a_broken_arrow_fails_both_code_criteria(monkeypatch):
    # f_1 of "11" in B^{1,2} at n = 2 is "12"; pointing it at "13" breaks
    # e_1 f_1 = id, the twist f equation and R f_1 = f_1 R in the arrays
    c = CartanA(2)
    table = generate(c, 1, 2)[0].table
    table.stats, table.pr_powers, table.wt  # built from the intact arrows
    monkeypatch.setattr(energy, "_TABLES", {})
    left = generate(c, 1, 1)[0].table
    oracle = EnergyOracle(ProductTable(left, table), ProductTable(table, left))
    _check_pair_energy(c, (1, 1), (1, 2))  # fills the R/H tables of the pair
    broken = list(table.f[1])
    broken[table.index[(2, 0, 0)]] = table.index[(1, 0, 1)]  # row contents
    monkeypatch.setitem(table.f, 1, broken)
    with pytest.raises(CheckFailure, match=r"e_i f_i != id at TensorElt.*'11'.*i=1"):
        criterion_axioms()
    with pytest.raises(CheckFailure, match="tensor twist f equation broken"):
        _tensor_twists()
    with pytest.raises(CheckFailure):
        criterion_twists()
    # criterion 8's oracle walks the broken arrow too; with the oracle and the
    # R/H tables from the intact arrows, the product arrays catch it
    with pytest.raises(ModelConsistencyError, match="inconsistent local energy"):
        criterion_energy()
    monkeypatch.setattr(selftest, "EnergyOracle", lambda *args: oracle)
    with pytest.raises(CheckFailure,
                       match=r"R does not commute with f_1 at TensorElt.*'1'.*'11'"):
        _check_pair_energy(c, (1, 1), (1, 2))
