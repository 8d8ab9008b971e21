import json
from fractions import Fraction

import pytest

from darkc.cartan import CartanA
from darkc.crystal import TensorElt
from darkc.dark import (DarkSpec, FactorWord, build, dark_from_json,
                        dark_to_json, full_tensor, i_string_report,
                        lhs_character, make_spec, typeA_rows, verify,
                        well_definedness_check)
from darkc.charring import CharPoly, char_to_json
from darkc.cartan import AffineWeight
from darkc.kr import generate, parse_tableau, parse_tensor
from darkc.weyl import kr_translation_data, reduced_word


def texts(dark):
    return [b.text() for b in dark.sorted_elements()]


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
    with pytest.raises(ValueError):
        build(make_spec(2, (1, 2)))  # lambda increasing
    with pytest.raises(ValueError):
        build(make_spec(2, (1,), words=[(1, 2, 1)]))  # not below y_1
    with pytest.raises(ValueError):
        build(make_spec(2, (1,), words=[(1, 1)]))  # word not reduced
    with pytest.raises(ValueError):
        build(make_spec(2, (1,), words=[((0,), ())]))  # affine letter in prefix
    with pytest.raises(IndexError):
        build(make_spec(1, (1,), r=(2,)))


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
    assert f == CharPoly.monomial(AffineWeight((0, 1), Fraction(1, 4)))
    spec = make_spec(1, (1,), words=[(1,)])
    f = lhs_character(spec, build(spec))
    assert f == CharPoly.monomial(AffineWeight((0, 1), Fraction(1, 4))) + \
        CharPoly.monomial(AffineWeight((2, -1), Fraction(-1, 4)))


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


def test_type_a_rows():
    dark = typeA_rows(2, (2, 1), [(), ()])
    assert texts(dark) == ["11|2"]
    dark = typeA_rows(1, (1, 1), [(1,), (1,)])
    spec = dark.spec
    assert build(spec).elements == dark.elements == full_tensor(spec)
    ok, _ = verify(spec)
    assert ok
    # maximal classical words still verify
    ok, _ = verify(typeA_rows(2, (2, 1), [(1, 2, 1), (1, 2, 1)]).spec)
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
    monkeypatch.setattr(dark_mod, "total_D", lambda x: -real(x))
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
