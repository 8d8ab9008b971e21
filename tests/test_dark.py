import json
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest

from darkc import charring, cli, energy, kr
from darkc.cartan import CartanA
from darkc.crystal import (Memo, ModelConsistencyError, ProductTable, TensorElt, _Rows,
                           demazure_closure)
from darkc.dark import (DarkSet, DarkSpec, FactorWord, _close, build, dark_to_json,
                        full_tensor, lhs_character, lhs_terms, make_spec, verify,
                        verify_detail, well_definedness_check)
from darkc.charring import CharPoly, char_to_json
from darkc.cartan import AffineWeight, aff_level_zero
from darkc.energy import total_D
from darkc.kr import find_b_rs, generate, parse_tableau, parse_tensor, twist
from darkc.selftest import grid_specs
from darkc.weyl import bruhat_lower_interval, kr_translation_data, length, reduced_word
from oracles import (bfs_close, dark_from_json, delta_weight, fundamental_weight,
                     i_string_report, predicted_C, sorted_elements)

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's ladder and sweep specs)


def texts(dark):
    return [b.text() for b in sorted_elements(dark)]


def test_build_single_factor_examples():
    assert texts(build(make_spec(1, (1,), words=[()]))) == ["1"]
    assert texts(build(make_spec(1, (1,), words=[(1,)]))) == ["1", "2"]


def test_build_full_words_give_full_tensor():
    for n, lam, r in [(1, (1, 1), (1, 1)), (2, (2, 1), (1, 2)),
                      (2, (2, 2), (2, 2)), (1, (3, 1), (1, 1))]:
        c = CartanA(n)
        words = tuple(FactorWord((), reduced_word(kr_translation_data(c, rj)[0]))
                      for rj in r)
        spec = DarkSpec(c, lam, r, words)
        assert build(spec).elements == full_tensor(spec)


def test_build_monotone_in_each_word():
    # Bruhat-larger words give supersets, along sampled chains
    c = CartanA(2)
    chains = [((), (1,), (2, 1)), ((), (2,), (2, 1))]
    for chain in chains:
        sizes = []
        for w in chain:
            spec = make_spec(2, (2, 1), r=(1, 1), words=[w, (2, 1)])
            sizes.append(build(spec).elements)
        for small, large in zip(sizes, sizes[1:]):
            assert small <= large


def test_build_rejects_bad_specs():
    with pytest.raises(ValueError, match=r"^lambda must be weakly decreasing and nonnegative$"):
        build(make_spec(2, (1, 2)))
    with pytest.raises(ValueError, match=r"^factor 0: word \(1, 2, 1\) is not below y_1 in Bruhat order$"):
        build(make_spec(2, (1,), words=[(1, 2, 1)]))
    with pytest.raises(ValueError, match=r"^factor 0: word \(1, 1\) is not reduced$"):
        build(make_spec(2, (1,), words=[(1, 1)]))
    with pytest.raises(ValueError, match=r"^factor 0: classical prefix contains node 0$"):
        build(make_spec(2, (1,), words=[((0,), ())]))
    with pytest.raises(IndexError, match=r"^classical node 2 out of range for rank 1$"):
        build(make_spec(1, (1,), r=(2,)))
    with pytest.raises(ValueError, match=r"^factor 0: prefix \(1, 1\) is not reduced$"):
        build(make_spec(2, (1,), words=[((1, 1), ())]))
    # y_r is classical, so a reduced word holding 0 is never below it
    with pytest.raises(ValueError, match=r"^factor 1: word \(0,\) is not below y_2 in Bruhat order$"):
        build(make_spec(2, (1, 1), r=(1, 2), words=[(), (0,)]))


def test_prefixed_words_allow_whole_classical_group():
    # the longest classical element is fine as a prefix even when it is not
    # below y, and all of its reduced words agree
    spec = make_spec(2, (1,), r=(1,), words=[((1, 2, 1), ())])
    assert well_definedness_check(spec)
    ok, shift = verify(spec)
    assert ok


def test_well_definedness_examples():
    assert well_definedness_check(make_spec(1, (1,), words=[(1,)]))
    assert well_definedness_check(
        make_spec(2, (2, 1), r=(1, 1), words=[(2, 1), (1,)]))
    with pytest.raises(ValueError):
        well_definedness_check(make_spec(2, (1,), words=[((1, 2, 1), ())]), cap=2)


def test_lhs_character_examples():
    spec = make_spec(1, (1,), words=[()])
    f = lhs_character(spec, build(spec))
    assert f == CharPoly({AffineWeight((0, 1), Fraction(1, 4)): 1})
    spec = make_spec(1, (1,), words=[(1,)])
    f = lhs_character(spec, build(spec))
    assert f == CharPoly({AffineWeight((0, 1), Fraction(1, 4)): 1}) + \
        CharPoly({AffineWeight((2, -1), Fraction(-1, 4)): 1})


def test_verify_anchor_values():
    ok, shift = verify(make_spec(1, (1,), words=[()]))
    assert ok and shift == Fraction(-1, 4)
    ok, shift = verify(make_spec(1, (1,), words=[(1,)]))
    assert ok and shift == Fraction(-1, 4)


def test_verify_p2_values():
    # worked two-factor cases; the fitted constant depends only on (lambda, r)
    for words in ([(), ()], [(1,), (1,)], [(1,), ()]):
        ok, shift = verify(make_spec(1, (1, 1), words=words))
        assert ok and shift == Fraction(-1)


def test_verify_p3_identity():
    words = [(1,), (1,), (1,)]
    ok, shift = verify(make_spec(1, (1, 1, 1), words=words))
    assert ok
    ok2, shift2 = verify(make_spec(1, (1, 1, 1), words=[(), (), ()]))
    assert ok2 and shift2 == shift


def test_verify_beyond_the_grid():
    # higher rank, higher-row factors, mixed shapes
    ok, shift = verify(make_spec(3, (2, 1), r=(2, 1),
                                 words=[(2, 1, 3, 2), (3, 1)]))
    assert ok and shift == Fraction(-15, 8)
    ok, shift = verify(make_spec(3, (3, 1), r=(3, 1),
                                 words=[(1, 2, 3), ()]))
    assert ok and shift == Fraction(-7, 4)
    ok, shift = verify(make_spec(2, (3, 2, 1), r=(1, 2, 1),
                                 words=[(2, 1), (1, 2), (2,)]))
    assert ok and shift == Fraction(-11, 3)


def rows_set(n, lam, classical_words):
    """The all-rows instantiation: r = (1, ..., 1), classical words as prefixes."""
    return build(make_spec(n, lam, r=(1,) * len(lam),
                           words=[FactorWord(w, ()) for w in classical_words]))


def test_type_a_rows():
    dark = rows_set(2, (2, 1), [(), ()])
    assert texts(dark) == ["11|2"]
    dark = rows_set(1, (1, 1), [(1,), (1,)])
    spec = dark.spec
    assert build(spec).elements == dark.elements == full_tensor(spec)
    ok, _ = verify(spec)
    assert ok
    # maximal classical words still verify
    ok, _ = verify(rows_set(2, (2, 1), [(1, 2, 1), (1, 2, 1)]).spec)
    assert ok


def test_trailing_zero_parts():
    spec = make_spec(1, (1, 0), words=[(), ()])
    dark = build(spec)
    assert len(dark) == 1
    ok, shift = verify(spec)
    assert ok and shift == Fraction(-1, 4)


def test_flipped_energy_sign_breaks_the_identity(monkeypatch):
    # the identity pins the energy convention: negating D is not absorbed
    # into the fitted constant, it breaks the per-element match
    import darkc.dark as dark_mod

    spec = make_spec(1, (1, 1), words=[(1,), (1,)])
    real = dark_mod.total_D
    monkeypatch.setattr(dark_mod, "total_D", lambda *args: -real(*args))
    ok, shift = verify(spec)
    assert not ok and shift is None


def test_i_string_report_is_diagnostic():
    dark = build(make_spec(1, (1, 1), words=[(1,), (1,)]))
    report = i_string_report(dark.elements, 1)
    assert sum(report.values()) == 2  # two 1-strings meet the full product
    assert all(isinstance(k, tuple) for k in report)


def test_dark_json_round_trip_and_golden():
    spec = make_spec(2, (2, 1), r=(1, 1),
                     words=[FactorWord((), (2, 1)), FactorWord((1,), ())])
    dark = build(spec)
    blob = dark_to_json(dark)
    assert dark_from_json(json.loads(json.dumps(blob))).elements == dark.elements
    assert blob["n"] == 2 and blob["lambda"] == [2, 1]
    assert blob["size"] == len(dark)
    assert blob["elements"] == sorted(blob["elements"])
    golden = dark_to_json(build(make_spec(2, (2, 1), words=[(), ()])))
    assert golden["elements"] == [["11", "2"]]


def test_char_json_of_rhs_is_sorted():
    from darkc.dark import rhs_character

    spec = make_spec(2, (2, 1), r=(1, 1),
                     words=[FactorWord((), (2, 1)), FactorWord((), (1,))])
    blob = char_to_json(rhs_character(spec))
    lams = [tuple(item["lam"]) for item in blob]
    assert lams == sorted(lams)


def test_verify_builds_no_fraction_per_element(monkeypatch):
    # delta is an integer numerator over 2m, so the count must not grow with
    # the set (18 against 2700 elements) or with the rhs terms
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    c = CartanA(2)
    word = reduced_word(kr_translation_data(c, 1)[0])
    specs = [make_spec(2, lam, words=(word,) * len(lam)) for lam in ((2, 1), (4, 3, 2, 1))]
    assert [len(build(spec)) for spec in specs] == [18, 2700]
    counts = []
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for spec in specs:
        made.clear()
        assert verify(spec)[0]
        counts.append(len(made))
    monkeypatch.undo()
    assert counts == [1, 1]  # the fitted C


def object_space_build(spec) -> frozenset:
    """The nested closure/twist construction on TensorElt objects, with
    crystal.demazure_closure and kr.twist: the oracle for build on codes."""
    c = spec.cartan
    current = None
    for j in range(spec.p - 1, -1, -1):
        b = find_b_rs(c, spec.r[j], spec.lam[j])
        tau = kr_translation_data(c, spec.r[j])[1]
        seeds = ({TensorElt((b,))} if current is None else
                 {TensorElt((b,) + twist(tau, x).factors) for x in current})
        current = demazure_closure(spec.words[j].letters, seeds)
    return frozenset(current)


ORACLE_SPECS = {
    "grid": grid_specs,
    "ladder": lambda: [workloads.maximal_spec(*case) for case in workloads.LADDER],
    "sweep": lambda: workloads.sweep_specs(1),
}


@pytest.mark.parametrize("group", sorted(ORACLE_SPECS))
def test_carried_energy_matches_total_D_and_the_object_build(group):
    # D is copied along classical arrows and walked only at seeds and f_0
    # arrivals; every element's D must still be its own total_D
    for spec in ORACLE_SPECS[group]():
        dark = build(spec)
        assert dark.elements == object_space_build(spec), spec
        for x, d in dark.energies.items():
            assert d == total_D(dark.product, x), (spec, x)
        assert sorted_elements(dark) == sorted(dark.elements,
                                               key=lambda b: [a.pos for a in b.factors])


def test_verify_builds_no_tensor_elements(monkeypatch):
    # build, energy and both characters run on codes; tensor elements are
    # made only at the boundary (parsing, printing, export) and by oracles
    made = []
    init = TensorElt.__init__

    def counting_init(self, factors):
        made.append(factors)
        init(self, factors)

    monkeypatch.setattr(TensorElt, "__init__", counting_init)
    specs = [workloads.maximal_spec(*case) for case in workloads.LADDER[:2]]
    for spec in specs + workloads.sweep_specs(1)[:20]:
        assert verify(spec)[0], spec
    assert len(made) == 0


def folded_lhs(spec, dark) -> CharPoly:
    """lhs_character with each element's weight folded from its factors, one
    tuple add per factor: the oracle for the packed weight count."""
    c = spec.cartan
    base = spec.lam[0] * fundamental_weight(c, 0)
    wts = [t.wt for t in dark.product.tables]
    counts = Counter()
    for x, d in dark.energies.items():
        w = (0,) * c.m
        for table_wt, k in zip(wts, dark.product.factors(x)):
            w = tuple(map(add, w, table_wt[k]))
        counts[base + aff_level_zero(c, w) - d * delta_weight(c)] += 1
    return CharPoly(dict(counts))


LHS_SPECS = {
    "grid": grid_specs,
    "ladder": lambda: [workloads.maximal_spec(*case) for case in workloads.LADDER[:2]],
    "sweep": lambda: workloads.sweep_specs(1)[:20],
    "long-rows": lambda: [workloads.maximal_spec(n, (s,), (1,)) for n, s in ((1, 300), (3, 30))],
}


@pytest.mark.parametrize("group", sorted(LHS_SPECS))
def test_packed_weight_count_matches_the_tuple_fold(group):
    specs = LHS_SPECS[group]()
    # every group but the single long rows folds several factors
    assert any(spec.p > 1 for spec in specs) == (group != "long-rows")
    for spec in specs:
        dark = build(spec)
        assert lhs_character(spec, dark) == folded_lhs(spec, dark), spec
        assert CharPoly(Counter(lhs_terms(spec, dark).values())) == folded_lhs(spec, dark)


def test_packed_weight_digits_follow_the_table_weights(fresh_tables, monkeypatch):
    # the lhs bound comes from the tables' largest weight coordinates, not
    # from their boxes: a coordinate of 7 in B^{1,1} puts sums of up to 14
    # in a digit of B^{1,1} (x) B^{1,1}, and the count must stay exact; a
    # Lambda_0 coordinate of 201 must raise before it carries an 8-bit digit
    spec = make_spec(1, (1, 1), words=[(1,), ()])
    dark = build(spec)
    table = dark.product.left
    table.wt = [(7, -7)] + table.wt[1:]
    assert lhs_character(spec, dark) == folded_lhs(spec, dark)
    table.wt = [(200, -200)] + table.wt[1:]
    assert max(mu[0] for mu in folded_lhs(spec, dark).terms) > 127
    monkeypatch.setattr(charring, "DIGIT_BITS", 8)
    with pytest.raises(OverflowError, match="8-bit digit"):
        lhs_character(spec, dark)


@pytest.mark.parametrize("spec, rows", [
    (make_spec(1, (1, 1), words=[(1,), (1,)]), list),  # 4 elements, 2 rows
    (make_spec(4, (3, 3, 3), r=(2, 2, 2)), Memo),  # one element, 175 rows
])
def test_a_table_weight_of_nonzero_level_raises(fresh_tables, monkeypatch, spec, rows):
    # the row keys are dot products, linear in any weight; a weight of
    # nonzero level has no aff and must raise on either form of the rows
    dark = build(spec)
    table = dark.product.left
    assert (2 * len(table.wt) <= len(dark)) == (rows is list)
    pos = dark.product.factors(next(iter(dark.energies)))[0]
    table.wt = table.wt[:pos] + [(1,) + table.wt[pos][1:]] + table.wt[pos + 1:]
    level = sum(table.wt[pos])
    with pytest.raises(ValueError, match=f"^aff is only defined on level-zero weights, "
                                         f"level = {level}$"):
        lhs_character(spec, dark)


def test_lhs_of_an_unchecked_spec_with_a_negative_part(fresh_tables):
    # lhs_character takes its spec as given: a negative lam_1 must size the
    # digits and the carry bound by its absolute value, not loop or carry
    spec = make_spec(1, (1,), words=[(1,)])
    dark = build(spec)
    bad = DarkSpec(spec.cartan, (-1,), spec.r, spec.words)
    back = DarkSet(bad, dark.product, dark.energies, dark.depth)
    assert lhs_character(bad, back) == folded_lhs(bad, dark)


def test_sparse_set_reads_few_rows_of_a_large_product():
    # the distinguished element alone in B^{2,3} at n = 4, four times: P has
    # 175^3 rows, and build reads P row by row, touching almost none of them
    spec = make_spec(4, (3, 3, 3, 3), r=(2, 2, 2, 2))
    dark = build(spec)
    assert len(dark) == 1 and dark.product.width == 175 ** 3
    rows = dark.product.right
    assert not isinstance(rows, ProductTable)
    assert sum(map(len, rows.stats + rows.f + rows.pr_powers)) <= 5
    assert verify(spec) == (True, Fraction(-144, 5))


def test_a_sparse_set_packs_only_the_rows_it_reaches(monkeypatch):
    # the distinguished element alone in B^{2,3} at n = 4, three times: P has
    # 175^2 rows, read row by row, and the lhs fills the key of no row, of
    # either factor, that the one-element set does not reach
    spec = make_spec(4, (3, 3, 3), r=(2, 2, 2))
    dark = build(spec)
    assert len(dark) == 1 and dark.product.width == 175 ** 2
    assert not isinstance(dark.product.right, ProductTable)
    filled = []

    class Recorded(Memo):
        def __init__(self, fill):
            super().__init__(fill)
            filled.append(self)

    monkeypatch.setattr("darkc.dark.Memo", Recorded)
    assert verify(spec) == (True, Fraction(-81, 5))
    assert filled and all(len(keys) <= len(dark) for keys in filled)


def test_an_lhs_beyond_its_digit_raises_before_it_carries(monkeypatch, capsys):
    # a delta numerator of this lhs is 128, which an 8-bit digit cannot hold:
    # verify must raise, and the CLI exit 3, never report a wrong identity
    spec = workloads.maximal_spec(1, (2,) * 8, (1,) * 8)
    dark = build(spec)
    assert max(mu[-1] for mu in lhs_character(spec, dark).terms) > 127
    monkeypatch.setattr(charring, "DIGIT_BITS", 8)
    with pytest.raises(OverflowError, match="8-bit digit"):
        lhs_character(spec, dark)
    with pytest.raises(OverflowError, match="8-bit digit"):
        verify_detail(spec)
    word = " ".join(map(str, spec.words[0].letters))
    code = cli.main(["verify", "--n", "1", "--lambda", ",".join("2" * 8),
                     "--w", ";".join([word] * 8)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("darkc: internal error: ") and "OverflowError" in err


def test_closure_walks_D_at_f0_arrivals():
    # the words of a spec never hold 0 (they lie below y_r, in the classical
    # Weyl group), so build walks only its seeds; a closure along a word
    # with 0 must walk D where f_0 first reaches an element
    c = CartanA(2)
    dist = [find_b_rs(c, r, s) for r, s in ((1, 2), (1, 1))]
    space = ProductTable.of([b.table for b in dist])
    seed = space.code(TensorElt(dist))

    def walk(x):
        return total_D(space, x)

    energies = _close(space, (1, 0, 2, 0, 1), [seed], walk)
    assert len(set(energies.values())) > 1  # so copying along f_0 would be wrong
    assert all(d == walk(x) for x, d in energies.items())


def sparse_specs() -> list[DarkSpec]:
    """Small sets in products of three and four B^{2,3} at n = 4, whose P
    (175^2 and 175^3 rows) build reads row by row: empty words, the words
    2; 1; 3 (; 2), and seeded words of length at most 2 below y_2."""
    c, rng = CartanA(4), random.Random(20)
    short = sorted((reduced_word(w) for w in bruhat_lower_interval(kr_translation_data(c, 2)[0])
                    if length(w) <= 2))
    specs = []
    for p in (3, 4):
        words = [None, [(2,), (1,), (3,), (2,)][:p]]
        words += [[rng.choice(short) for _ in range(p)] for _ in range(4)]
        specs += [make_spec(4, (3,) * p, r=(2,) * p, words=w) for w in words]
    return specs


CLOSE_SPECS = {
    "grid": grid_specs,
    "ladder": lambda: [workloads.maximal_spec(*case) for case in workloads.LADDER],
    "sweep": lambda: workloads.sweep_specs(20),
    "sparse": sparse_specs,
}


@pytest.mark.parametrize("group", sorted(CLOSE_SPECS))
def test_closure_walk_matches_the_step_bfs(group, monkeypatch):
    # ProductTable.close walks each i-string on the factors' arrays, in no
    # BFS order; at every level of build it must give the {code: D} map of
    # the breadth-first closure by lowering steps, and the set its depth
    rights = []

    def checked(space, letters, seeds, walk):
        seeds = list(seeds)
        got = _close(space, letters, seeds, walk)
        assert got == bfs_close(space, letters, seeds, walk), (space.tables, letters)
        rights.append(type(space.right))
        return got

    monkeypatch.setattr("darkc.dark._close", checked)
    specs = CLOSE_SPECS[group]()
    for spec in specs:
        dark = build(spec)
        assert dark.depth == max(map(abs, dark.energies.values())), spec
    assert len(rights) == sum(spec.p for spec in specs)  # one closure per level
    assert (_Rows in rights) == (group == "sparse")


C_SPECS = {
    "grid": grid_specs,
    "ladder": lambda: [workloads.maximal_spec(*case) for case in workloads.LADDER],
    "long-rows": lambda: [workloads.maximal_spec(n, (s,), (1,)) for n, s in workloads.LONG_ROWS],
    "sparse": sparse_specs,
    "sweep": lambda: workloads.sweep_specs(1),
    "rung": lambda: [workloads.maximal_spec(3, (3, 3, 3), (2, 2, 2))],  # |B| = 125,000
}


@pytest.mark.parametrize("group", sorted(C_SPECS))
def test_fitted_C_matches_the_closed_form(group):
    # the fit absorbs any shift of D that is the same for every element; the
    # closed form pins C, so such a shift cannot pass unseen
    for spec in C_SPECS[group]():
        assert verify(spec) == (True, predicted_C(spec)), spec


def test_a_constant_shift_of_D_passes_verify_but_not_the_closed_form(monkeypatch):
    spec = workloads.maximal_spec(*workloads.LADDER[2])  # n = 5, lambda = (2, 2), r = (3, 2)
    assert verify(spec) == (True, predicted_C(spec))
    monkeypatch.setattr("darkc.dark.total_D", lambda space, x: total_D(space, x) + 1)
    ok, shifted = verify(spec)
    assert ok and shifted != predicted_C(spec)


def test_build_fills_each_pair_table_once(monkeypatch):
    # the level of B^{1,4} reads as P the space of the level before, whose
    # right factor B^{1,2} (x) B^{1,1} got its arrays there: no fresh chain
    # builds them again
    built = []

    def arrows(self, _arrows=ProductTable._arrows):
        built.append(tuple(t.name for t in self.tables))
        return _arrows(self)

    monkeypatch.setattr(ProductTable, "_arrows", arrows)
    build(workloads.maximal_spec(*workloads.LADDER[0]))
    assert built == [("B^{1,2}", "B^{1,1}"), ("B^{1,3}", "B^{1,2}", "B^{1,1}")]


def charge(word) -> int:
    """Lascoux-Schuetzenberger charge of a word with partition content: split
    off standard subwords, each read leftward and cyclically from the right
    end (1, then 2, ...); a letter r+1 that needs the wrap, so lies right of
    r, has index one more than r; the charge sums the indices."""
    word = list(word)
    total = 0
    while word:
        picked, pos, index = [], len(word), 0
        for letter in range(1, max(word) + 1):
            left = [p for p in range(pos - 1, -1, -1) if word[p] == letter]
            if left:
                pos = left[0]
            else:
                pos = max(p for p, v in enumerate(word) if v == letter)
                index += 1
            total += index
            picked.append(pos)
        for p in sorted(picked, reverse=True):
            del word[p]
    return total


def ssyt(content, max_rows) -> list[tuple]:
    """The semistandard tableaux of the given content with at most max_rows
    rows, as row tuples, grown letter by letter by horizontal strips."""
    tableaux = [()]
    for letter, count in enumerate(content, 1):
        tableaux = [t for rows in tableaux for t in _strips(rows, letter, count, max_rows)]
    return tableaux


def _strips(rows, letter, count, max_rows, new=()):
    """Each way to add count copies of letter to rows as a horizontal strip:
    row k = len(new) takes at most len(rows[k-1]) - len(rows[k]) of them."""
    k = len(new)
    if count == 0:
        yield new + rows[k:]
    elif k < min(len(rows) + 1, max_rows):
        row = rows[k] if k < len(rows) else ()
        room = count if k == 0 else min(count, len(rows[k - 1]) - len(row))
        for a in range(room + 1):
            yield from _strips(rows, letter, count - a, max_rows, new + (row + (letter,) * a,))


def test_charge_and_ssyt_give_kostka_foulkes_polynomials():
    def kostka_foulkes(content):
        out = {}
        for rows in ssyt(content, len(content)):
            word = [v for row in reversed(rows) for v in row]
            out.setdefault(tuple(map(len, rows)), []).append(charge(word))
        return {shape: sorted(charges) for shape, charges in out.items()}

    assert kostka_foulkes((1, 1, 1)) == {(3,): [3], (2, 1): [1, 2], (1, 1, 1): [0]}
    assert kostka_foulkes((2, 1)) == {(3,): [1], (2, 1): [0]}
    # K_{(3,2),(2,2,1)} = q + q^2 and K_{(2,2,1),(2,2,1)} = 1
    got = kostka_foulkes((2, 2, 1))
    assert got[(3, 2)] == [1, 2] and got[(2, 2, 1)] == [0]
    assert sum(map(len, got.values())) == 7 and len(ssyt((2, 2, 1), 2)) == 5


@pytest.mark.parametrize("n, lam", [(2, (4, 3, 2, 1)), (3, (2, 2, 1)), (3, (3, 3, 2, 1)),
                                    (4, (2, 2, 2, 1))])
def test_energy_is_charge_on_rows(n, lam):
    # Nakayashiki-Yamada: on B^{1,mu_1} (x) ... (x) B^{1,mu_p} the classical
    # highest elements of weight nu match the SSYT T of shape nu and content
    # sort(mu), with D = charge(T) - n(mu); charge shares no code with energy
    spec = workloads.maximal_spec(n, lam, (1,) * len(lam))
    dark = build(spec)
    got = Counter()
    for x, d in dark.energies.items():
        u = dark.product.element(x)
        if all(u.stats(i)[0] == 0 for i in spec.cartan.classical_nodes):
            content = [sum(col) for col in zip(*(f.content() for f in u.factors))]
            got[(tuple(v for v in content if v), d)] += 1
    mu = sorted(lam, reverse=True)
    n_mu = sum(i * part for i, part in enumerate(mu))
    want = Counter((tuple(map(len, rows)), charge([v for row in reversed(rows) for v in row]) - n_mu)
                   for rows in ssyt(mu, n + 1))
    assert got == want


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty KR and energy table caches for one test; the process-wide ones
    come back after it."""
    monkeypatch.setattr(kr, "_TABLES", {})
    monkeypatch.setattr(energy, "_TABLES", {})
    yield
    monkeypatch.undo()


def test_dead_factor_on_codes_is_an_internal_error(fresh_tables, capsys):
    # "2" in B^{1,1} at n=1 has phi_1 = 0; claiming phi_1 = 1 makes the
    # signature rule pick it for f_1 in the closure of "1" (x) pr("1")
    two = parse_tableau(CartanA(1), "2")
    two.table.stats[1][two.pos] = (1, 1)
    with pytest.raises(ModelConsistencyError, match="dead factor"):
        build(make_spec(1, (1, 1), words=[(1,), ()]))
    code = cli.main(["verify", "--n", "1", "--lambda", "1,1", "--w", "1;"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("darkc: internal error: verify n=1 lambda=1,1 r=1,1: "
                   "ModelConsistencyError: tensor rule chose a dead factor for f\n")


@pytest.mark.parametrize("spec", [
    make_spec(2, (2, 1), r=(1, 1), words=[FactorWord((), (2, 1)), FactorWord((1,), ())]),
    workloads.maximal_spec(2, (2, 2, 1), (2, 1, 1)),
    make_spec(3, (2, 1), r=(2, 1), words=[(2, 1, 3, 2), (3, 1)]),
])
def test_json_round_trip_keeps_the_energies_and_lhs(spec):
    dark = build(spec)
    back = dark_from_json(json.loads(json.dumps(dark_to_json(dark))))
    assert back.energies == dark.energies
    assert lhs_character(spec, back) == lhs_character(spec, dark)


def test_dark_from_json_rejects_a_factor_of_the_wrong_crystal():
    blob = dark_to_json(build(make_spec(2, (2, 1), words=[(), ()])))
    blob["elements"] = [["1", "2"]]  # "1" is in B^{1,1}, the first factor is B^{1,2}
    with pytest.raises(ValueError, match="is not in"):
        dark_from_json(blob)


def test_dark_from_json_checks_the_factor_count_and_the_size():
    blob = dark_to_json(build(make_spec(2, (2, 1), words=[(), ()])))
    assert blob["elements"] == [["11", "2"]]
    for elements, size, match in ((["11", "2", "3"], 99, "3 factors, not 2"),
                                  (["11"], 1, "1 factors, not 2"),
                                  (["11", "2"], 99, "size 99 but 1 distinct")):
        blob["elements"], blob["size"] = [elements], size
        with pytest.raises(ValueError, match=match):
            dark_from_json(blob)
    blob["elements"], blob["size"] = [["11", "2"], ["11", "2"]], 2
    with pytest.raises(ValueError, match="size 2 but 1 distinct"):
        dark_from_json(blob)
