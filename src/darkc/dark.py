"""DARK crystals: Demazure-closed subsets of tensor products of KR crystals,
their energy-adjusted characters, and the character identity check.

A DARK set for data (lambda, r, words) is built right to left: close the
distinguished element of the innermost factor along its word, twist, tensor
the next distinguished element on the left, close again, and so on.  Its
character, graded by the energy statistic, must match the nested Demazure
operator formula up to one global shift e^{C delta}; verify fits C and tests
the match exactly.

`build` works on integer codes (`crystal.Codes`): an element of
B_1 (x) ... (x) B_p is the tuple of its factors' positions in their KRTables,
f_i is the signature rule over the tables' arrays, and the twist is a read of
their promotion powers.  The final set keeps its energy D with each code.  D is constant on
classical components: the local energy H is classically invariant and the
R-matrix commutes with the classical e_i and f_i (Shimozono 2002;
Schilling-Tingley, arXiv:1104.2359).  So a closure step along a classical
letter copies D from its source, and only the seeds b (x) twist(x) and the
elements first reached by f_0 take a total_D walk, which runs on the code
too.  The words of a spec lie below y_r in the classical Weyl group and hold
no 0, so in `build` the walks are one per seed.  TensorElt objects appear
only at the boundary: parsing, printing, export and the oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import getitem

from .cartan import CartanA, aff_level_zero, delta_weight, fundamental_weight
from .charring import CharPoly, fit_delta_shift, rhs_formula
from .crystal import Codes, TensorElt
from .energy import total_D
from .kr import find_b_rs, generate
from .weyl import (all_reduced_words, bruhat_lower_interval, from_reduced_word,
                   from_word, kr_translation_data)


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
        if from_reduced_word(c.m, fw.prefix) is None:
            raise ValueError(f"factor {j}: prefix {fw.prefix} is not reduced")
        w = from_reduced_word(c.m, fw.word)
        if w is None:
            raise ValueError(f"factor {j}: word {fw.word} is not reduced")
        if w not in bruhat_lower_interval(kr_translation_data(c, rj)[0]):
            raise ValueError(
                f"factor {j}: word {fw.word} is not below y_{rj} in Bruhat order")


@dataclass(frozen=True, eq=False)
class DarkSet:
    """A DARK set as codes over `product`, each mapped to its energy D."""

    spec: DarkSpec
    product: Codes
    energies: dict

    def __len__(self):
        return len(self.energies)

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(map(self.product.element, self.energies))

    def sorted_elements(self) -> list[TensorElt]:
        return [self.product.element(x) for x in sorted(self.energies)]


def _close(space: Codes, letters, energies: dict, walk) -> dict:
    """F_{i_1}(... F_{i_k}(S)) on a {code: D} map, innermost letter last.  D
    is constant on classical components, so a step along a classical f_i
    copies D from its source; an element first reached by f_0 gets walk(it)."""
    for i in reversed(letters):
        f = space.f(i)
        frontier = list(energies)
        while frontier:
            nxt = []
            for x in frontier:
                y = f(x)
                if y is not None and y not in energies:
                    energies[y] = energies[x] if i else walk(y)
                    nxt.append(y)
            frontier = nxt
    return energies


def build(spec: DarkSpec) -> DarkSet:
    """Right-to-left evaluation of the nested closure/twist construction on
    codes.  Only the outermost closure, the final set, needs D: its seeds and
    its elements first reached by f_0 get one total_D walk each."""
    validate(spec)
    c = spec.cartan
    dist = [find_b_rs(c, rj, sj) for rj, sj in zip(spec.r, spec.lam)]
    tables = [b.table for b in dist]
    energies = {(): None}  # the one element of the empty tensor product
    for j in range(spec.p - 1, -1, -1):
        space = Codes(tables[j:])
        twist = [t.pr_powers[spec.r[j] % c.m] for t in tables[j + 1:]]  # tau_r = r
        walk = (lambda x: total_D(space, x)) if j == 0 else (lambda x: None)
        seeds = ((dist[j].pos,) + tuple(map(getitem, twist, x)) for x in energies)
        energies = _close(space, spec.words[j].letters, {y: walk(y) for y in seeds}, walk)
    return DarkSet(spec, space, energies)


def well_definedness_check(spec: DarkSpec, cap: int = 10) -> bool:
    """Rebuild the set for every combination of reduced words of every prefix
    and word; True when all the resulting code sets coincide."""
    validate(spec)
    c = spec.cartan
    choices = []
    for fw in spec.words:
        pv = all_reduced_words(from_word(c.m, fw.prefix), cap)
        wv = all_reduced_words(from_word(c.m, fw.word), cap)
        choices.append([FactorWord(a, b) for a in sorted(pv) for b in sorted(wv)])
    reference = None
    for combo in product(*choices):
        got = build(DarkSpec(c, spec.lam, spec.r, combo)).energies.keys()
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
    counts = Counter(zip(map(dark.product.weight, dark.energies), dark.energies.values()))
    delta = delta_weight(c)
    return CharPoly({base + aff_level_zero(c, wt) - d * delta: k
                     for (wt, d), k in counts.items()})


def rhs_character(spec: DarkSpec) -> CharPoly:
    # tau_r = r, the rotation of weyl.kr_translation_data
    return rhs_formula(spec.cartan, spec.lam, tuple(fw.letters for fw in spec.words), spec.r)


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
    product = Codes(find_b_rs(c, rj, sj).table for rj, sj in zip(spec.r, spec.lam))
    energies = {}
    for texts in obj["elements"]:
        if len(texts) != spec.p:
            raise ValueError(f"element {'|'.join(texts)} has {len(texts)} factors, not {spec.p}")
        b = TensorElt(tuple(parse_tableau(c, t, r) for t, r in zip(texts, spec.r)))
        x = product.code(b)
        energies[x] = total_D(product, x)
    if obj["size"] != len(energies):
        raise ValueError(f"size {obj['size']} but {len(energies)} distinct elements")
    return DarkSet(spec, product, energies)
