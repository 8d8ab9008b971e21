"""Criteria 1, 2 and 8 run on the arrays of KR and product tables: criteria 1
and 2 build no tensor objects per element, and all three still catch a broken
arrow in a KR table."""

import gc
import tracemalloc
from collections import Counter
from functools import cached_property

import pytest

from darkc import energy, kr, selftest
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
    assert _tensor_twists() == 69563  # every element, the 157 tableaux included
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
    broken[table.index[2]] = table.index[1 + 9]  # row contents (2, 0, 0), (1, 0, 1) base 3
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


def _element(text: str) -> str:
    return f"TensorElt(factors=(RectTableau(n=2, '{text}'),))"


# one entry of a fresh B^{1,2} at n = 2, whose positions 0, 1, 2, 3, 5 are
# '11', '12', '13', '22', '33'; each message names the element and node that
# criterion 1 reaches first
@pytest.mark.parametrize("array, node, pos, value, message", [
    ("wt", None, 0, (-1, 2, 0), f"nonzero level at {_element('11')}"),
    ("stats", 1, 0, (0, 0), f"weight pairing broken at {_element('11')}, i=1"),
    ("e", 1, 0, 3, f"f_i e_i != id at {_element('11')}, i=1"),
    ("wt", None, 5, (2, 1, -3), f"wt(e_i b) != wt(b) + alpha_i at {_element('13')}, i=0"),
    ("f", 0, 0, 3, f"e_i f_i != id at {_element('11')}, i=0"),
    ("wt", None, 3, (0, -1, 1), f"wt(f_i b) != wt(b) - alpha_i at {_element('12')}, i=1"),
])
def test_one_broken_entry_fails_criterion_1_with_its_message(monkeypatch, array, node, pos,
                                                             value, message):
    monkeypatch.setattr(kr, "_TABLES", {})  # a fresh table, dropped afterwards
    table = generate(CartanA(2), 1, 2)[0].table
    table.stats  # from the intact arrows
    arrays = getattr(table, array)
    row = list(arrays if node is None else arrays[node])
    row[pos] = value
    if node is None:
        monkeypatch.setattr(table, array, row)
    else:
        monkeypatch.setitem(arrays, node, row)
    with pytest.raises(CheckFailure) as failure:
        criterion_axioms()
    assert str(failure.value) == message


def test_narrow_key_digits_raise_before_they_wrap(monkeypatch):
    # criterion 1 compares keys of wt(y) - wt(x) - alpha_i, whose coordinates
    # reach 2*max|w_j| + 2: 6 on B^{1,2} at n = 1, just inside a 3-bit digit,
    # and 8 on B^{1,3}, which is checked next; 20 on the widest family, just
    # inside a 5-bit digit.  A digit that wraps would take (8, -1) for (0, 0)
    # at 3 bits.
    monkeypatch.setattr(selftest, "KEY_BITS", 3)
    with pytest.raises(OverflowError, match=r"^weight coordinate 3 leaves a 3-bit digit$"):
        criterion_axioms()
    monkeypatch.setattr(selftest, "KEY_BITS", 4)
    with pytest.raises(OverflowError, match="4-bit digit"):
        criterion_axioms()
    monkeypatch.setattr(selftest, "KEY_BITS", 5)
    assert criterion_axioms() == "370 crystals, 69563 elements"


def test_product_stats_are_built_only_where_read(monkeypatch):
    built = []

    def counting(self, _stats=ProductTable.stats.func):
        built.append(self)
        return _stats(self)
    stats = cached_property(counting)
    stats.__set_name__(ProductTable, "stats")
    monkeypatch.setattr(ProductTable, "stats", stats)
    # the twist and energy checks read no product's stats; a triple
    # B1 (x) (B2 (x) B3) still reads those of its pair table, 62 of them
    _tensor_twists()
    assert len(built) == len(set(map(id, built))) == 62
    assert {len(space.tables) for space in built} == {2}
    built.clear()
    criterion_energy()
    assert built == []
    # criterion 1 reads the stats of every product, each built once
    assert criterion_axioms() == "370 crystals, 69563 elements"
    assert len(built) == len(set(map(id, built))) == 370 - 15


def test_energy_criterion_builds_no_product_weight_or_promotion(monkeypatch):
    # criterion 8's 152 pair tables are read through e, f and their factors'
    # elements; stats, wt and pr are built on first read, so it builds none.
    # The pairs of its energy tables only step, so they build no array at all
    built = []
    for name in ("stats", "wt", "pr"):
        def counting(self, _build=getattr(ProductTable, name).func, _name=name):
            built.append((_name, self))
            return _build(self)
        array = cached_property(counting)
        array.__set_name__(ProductTable, name)
        monkeypatch.setattr(ProductTable, name, array)

    def arrows(self, _arrows=ProductTable._arrows):
        built.append(("e, f", self))
        return _arrows(self)
    monkeypatch.setattr(ProductTable, "_arrows", arrows)
    monkeypatch.setattr(energy, "_TABLES", {})  # fresh energy tables, dropped afterwards
    criterion_energy()
    assert Counter(name for name, _ in built) == Counter({"e, f": 152})
    pairs = {id(p) for t in energy._TABLES.values() for p in (t.pair, t.swapped)}
    assert len(pairs) == 2 * len(energy._TABLES) > 100
    assert not pairs & {id(space) for _, space in built}
    # the tensor twists read both, once for each of the 355 products
    built.clear()
    _tensor_twists()
    assert Counter(name for name, _ in built if name in ("wt", "pr")) == Counter(wt=355, pr=355)


def test_criteria_1_and_2_keep_no_product_tables():
    # each criterion builds its product tables and drops them family by
    # family: holding all 355 across the two, or from one run to the next,
    # would keep about 13 MiB traced, against a selftest peak RSS of about
    # 23 MB.  With warm KR tables a run keeps nothing and peaks at one rank's
    # tables.  gc.collect() empties CPython's free lists of tuples and lists,
    # which tracemalloc counts as held (0.15-0.45 MiB of spare tuples)
    for n in selftest.AXIOM_RANKS:
        for shape in selftest.single_shapes(n):
            table = generate(CartanA(n), *shape)[0].table
            table.stats, table.e, table.f, table.wt, table.pr_inv, table.pr_powers
    tracemalloc.start()
    try:
        criterion_axioms(), criterion_twists()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * 2**20 and peak < 3 * 2**20, (kept, peak)
