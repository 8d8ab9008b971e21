"""Criteria 1 and 2 run on the integer codes of `crystal.Codes`: they build no
tensor objects per element, and they still catch a broken arrow in the tables
that codes read."""

from collections import Counter

import pytest

from darkc.cartan import CartanA
from darkc.crystal import TensorElt
from darkc.kr import generate
from darkc.selftest import (CheckFailure, _tensor_twists, criterion_axioms,
                            criterion_twists)


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
    # e_1 f_1 = id and the twist f equation in the arrays that codes read
    table = generate(CartanA(2), 1, 2)[0].table
    table.stats, table.pr_powers, table.wt  # built from the intact arrows
    broken = list(table.f[1])
    broken[table.index[(2, 0, 0)]] = table.index[(1, 0, 1)]  # row contents
    monkeypatch.setitem(table.f, 1, broken)
    with pytest.raises(CheckFailure, match=r"e_i f_i != id at TensorElt.*'11'.*i=1"):
        criterion_axioms()
    with pytest.raises(CheckFailure, match="tensor twist f equation broken"):
        _tensor_twists()
    with pytest.raises(CheckFailure):
        criterion_twists()
