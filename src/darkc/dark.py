"""DARK crystals: Demazure-closed subsets of tensor products of KR crystals,
their energy-adjusted characters, and the character identity check.

A DARK set for data (lambda, r, words) is built right to left: close the
distinguished element of the innermost factor along its word, twist, tensor
the next distinguished element on the left, close again, and so on.  Its
character, graded by the energy statistic, must match the nested Demazure
operator formula up to one global shift e^{C delta}; verify fits C and tests
the match exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cartan import CartanA, aff_level_zero, delta_weight, fundamental_weight
from .charring import CharPoly, fit_delta_shift, rhs_formula
from .crystal import TensorElt, demazure_closure
from .energy import total_D
from .kr import find_b_rs, generate, twist
from .weyl import (all_reduced_words, bruhat_leq, from_word,
                   kr_translation_data, length)


@dataclass(frozen=True)
class FactorWord:
    """Letter data for one factor: an optional classical prefix (any element
    of W_0) followed by a word whose element must sit below y_r in Bruhat
    order.  Plain words use an empty prefix."""

    prefix: tuple[int, ...] = ()
    word: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(int(v) for v in self.prefix))
        object.__setattr__(self, "word", tuple(int(v) for v in self.word))

    @property
    def letters(self) -> tuple[int, ...]:
        return self.prefix + self.word


@dataclass(frozen=True)
class DarkSpec:
    cartan: CartanA
    lam: tuple[int, ...]
    r: tuple[int, ...]
    words: tuple[FactorWord, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(int(v) for v in self.lam))
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))
        object.__setattr__(self, "words", tuple(self.words))

    @property
    def p(self) -> int:
        return len(self.lam)


def make_spec(n: int, lam, r=None, words=None) -> DarkSpec:
    """Convenience constructor.  Each words entry may be None (identity), a
    letter tuple (plain word), a (prefix, word) pair, or a FactorWord."""
    c = CartanA(n)
    lam = tuple(int(v) for v in lam)
    p = len(lam)
    r = (1,) * p if r is None else tuple(int(v) for v in r)
    if words is None:
        words = ((),) * p
    norm = []
    for w in words:
        if w is None:
            norm.append(FactorWord())
        elif isinstance(w, FactorWord):
            norm.append(w)
        elif len(w) == 2 and all(isinstance(part, (tuple, list)) for part in w):
            norm.append(FactorWord(tuple(w[0]), tuple(w[1])))
        else:
            norm.append(FactorWord((), tuple(w)))
    return DarkSpec(c, lam, r, tuple(norm))


def validate(spec: DarkSpec) -> None:
    c = spec.cartan
    p = spec.p
    if p == 0:
        raise ValueError("need at least one factor")
    if len(spec.r) != p or len(spec.words) != p:
        raise ValueError("lambda, r and words must have equal length")
    if any(spec.lam[j] < spec.lam[j + 1] for j in range(p - 1)) or spec.lam[-1] < 0:
        raise ValueError("lambda must be weakly decreasing and nonnegative")
    for j, (rj, fw) in enumerate(zip(spec.r, spec.words)):
        c.check_classical(rj)
        for i in fw.letters:
            c.check_node(i)
        if any(i == 0 for i in fw.prefix):
            raise ValueError(f"factor {j}: classical prefix contains node 0")
        v = from_word(c.m, fw.prefix)
        if length(v) != len(fw.prefix):
            raise ValueError(f"factor {j}: prefix {fw.prefix} is not reduced")
        w = from_word(c.m, fw.word)
        if length(w) != len(fw.word):
            raise ValueError(f"factor {j}: word {fw.word} is not reduced")
        y, _ = kr_translation_data(c, rj)
        if not bruhat_leq(w, y):
            raise ValueError(
                f"factor {j}: word {fw.word} is not below y_{rj} in Bruhat order")


@dataclass(frozen=True)
class DarkSet:
    spec: DarkSpec
    elements: frozenset

    def __len__(self):
        return len(self.elements)

    def sorted_elements(self) -> list[TensorElt]:
        return sorted(self.elements, key=lambda b: b.sort_key())


def _factor_data(spec: DarkSpec):
    c = spec.cartan
    out = []
    for rj, sj in zip(spec.r, spec.lam):
        y, tau = kr_translation_data(c, rj)
        out.append((find_b_rs(c, rj, sj), y, tau))
    return out


def build(spec: DarkSpec) -> DarkSet:
    """Right-to-left evaluation of the nested closure/twist construction."""
    validate(spec)
    data = _factor_data(spec)
    p = spec.p
    current = demazure_closure(spec.words[p - 1].letters,
                               {TensorElt((data[p - 1][0],))})
    for j in range(p - 2, -1, -1):
        tau_j = data[j][2]
        seeds = {TensorElt((data[j][0],) + twist(tau_j, x).factors)
                 for x in current}
        current = demazure_closure(spec.words[j].letters, seeds)
    return DarkSet(spec, frozenset(current))


def well_definedness_check(spec: DarkSpec, cap: int = 10) -> bool:
    """Rebuild the set for every combination of reduced words of every prefix
    and word; True when all the resulting sets coincide."""
    validate(spec)
    c = spec.cartan
    choices = []
    for fw in spec.words:
        pv = all_reduced_words(from_word(c.m, fw.prefix), cap)
        wv = all_reduced_words(from_word(c.m, fw.word), cap)
        choices.append([FactorWord(a, b) for a in sorted(pv) for b in sorted(wv)])
    reference = None
    for combo in product(*choices):
        got = build(DarkSpec(c, spec.lam, spec.r, combo)).elements
        if reference is None:
            reference = got
        elif got != reference:
            return False
    return True


def lhs_character(spec: DarkSpec, dark: DarkSet) -> CharPoly:
    """sum over the set of e^{lam_1 Lambda_0 + aff(wt(b)) - D(b) delta},
    i.e. the energy-adjusted character without the unknown e^{C delta}."""
    c = spec.cartan
    base = spec.lam[0] * fundamental_weight(c, 0)
    counts = Counter((b.clweight(), total_D(b)) for b in dark.elements)
    return CharPoly({base + aff_level_zero(c, wt) - d * delta_weight(c): k
                     for (wt, d), k in counts.items()})


def rhs_character(spec: DarkSpec) -> CharPoly:
    c = spec.cartan
    taus = tuple(kr_translation_data(c, rj)[1] for rj in spec.r)
    return rhs_formula(c, spec.lam, tuple(fw.letters for fw in spec.words), taus)


def verify(spec: DarkSpec) -> tuple[bool, Fraction | None]:
    """Check the character identity; returns (ok, fitted C)."""
    ok, shift, _, _ = verify_detail(spec)
    return ok, shift


def verify_detail(spec: DarkSpec):
    """As verify, but also returns both characters for diagnostics."""
    lhs = lhs_character(spec, build(spec))
    rhs = rhs_character(spec)
    ok, shift = fit_delta_shift(lhs, rhs)
    return ok, shift, lhs, rhs


def typeA_rows(n: int, lam, classical_words) -> DarkSet:
    """The all-rows instantiation: r = (1, ..., 1) and arbitrary classical
    words, carried as prefixes with empty Bruhat-constrained parts."""
    words = tuple(FactorWord(tuple(w), ()) for w in classical_words)
    return build(make_spec(n, lam, r=(1,) * len(lam), words=words))


def full_tensor(spec: DarkSpec) -> frozenset:
    """Every element of the ambient tensor product of the spec's factors."""
    c = spec.cartan
    crystals = [generate(c, rj, sj) for rj, sj in zip(spec.r, spec.lam)]
    return frozenset(TensorElt(combo) for combo in product(*crystals))


def i_string_report(elements, i: int):
    """Diagnostic only: occupancy pattern of each i-string meeting the set.
    Returns {(string length, occupied positions): count} with no judgement."""
    elements = set(elements)
    patterns: dict = {}
    seen_heads = set()
    for b in elements:
        head = b
        while True:
            up = head.e(i)
            if up is None:
                break
            head = up
        if head in seen_heads:
            continue
        seen_heads.add(head)
        string = [head]
        cur = head
        while True:
            down = cur.f(i)
            if down is None:
                break
            string.append(down)
            cur = down
        occupied = tuple(k for k, elt in enumerate(string) if elt in elements)
        key = (len(string) - 1, occupied)
        patterns[key] = patterns.get(key, 0) + 1
    return dict(sorted(patterns.items()))


def dark_to_json(dark: DarkSet) -> dict:
    spec = dark.spec
    return {
        "n": spec.cartan.n,
        "lambda": list(spec.lam),
        "r": list(spec.r),
        "words": [{"prefix": list(fw.prefix), "word": list(fw.word)}
                  for fw in spec.words],
        "size": len(dark),
        "elements": [[f.text() for f in b.factors] for b in dark.sorted_elements()],
    }


def dark_from_json(obj: dict) -> DarkSet:
    from .kr import parse_tableau

    spec = make_spec(obj["n"], obj["lambda"], obj["r"],
                     [(tuple(w["prefix"]), tuple(w["word"])) for w in obj["words"]])
    c = spec.cartan
    elements = frozenset(
        TensorElt(tuple(parse_tableau(c, t, r) for t, r in zip(texts, spec.r)))
        for texts in obj["elements"])
    return DarkSet(spec, elements)
