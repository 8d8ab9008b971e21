"""DARK crystals: Demazure-closed subsets of tensor products of KR crystals,
their energy-adjusted characters, and the character identity check.

A DARK set for data (lambda, r, words) is built right to left: close the
distinguished element of the innermost factor along its word, twist, tensor
the next distinguished element on the left, close again, and so on.  Its
character, graded by the energy statistic, must match the nested Demazure
operator formula up to one global shift e^{C delta}.  Both sides are packed
as charring._Packing keys at the digit width of lam_1, the lhs only once a
bound shows that no digit can carry, and verify fits C on the keys.

`build` works on integer codes (`crystal.ProductTable.of`): an element of
B_j (x) ... (x) B_p is one int, its position a*len(P) + c in canonical order,
where P = B_{j+1} (x) ... (x) B_p, the space of the level before, is a
table: enumerated when it is small or the level before filled much of it,
and otherwise read row by row, each row worked out when first read.  F_i
walks each i-string below the set on the arrays of B_j and P by Kashiwara's
rule for two factors (`ProductTable.close`), and the twist is a read of P's
promotion powers.  The final set keeps its energy D with each code.  D is
constant on classical components: the local energy H is classically invariant
and the R-matrix commutes with the classical e_i and f_i (Shimozono 2002;
Schilling-Tingley, arXiv:1104.2359).  So a closure step along a classical
letter copies D from its source, and only the seeds b (x) twist(x) and the
elements first reached by f_0 take a total_D walk, which runs on the code
too.  The words of a spec lie below y_r in the classical Weyl group and hold
no 0, so in `build` the walks are one per seed, and the largest |D| of the
walks bounds the lhs digits without a scan of the set.  TensorElt objects
appear only at the boundary: parsing, printing, export and the oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from operator import mul

from .cartan import CartanA, aff_level_zero
from .charring import _Packing, fit_delta_shift, rhs_formula
from .crystal import EAGER_ROWS, Memo, ProductTable, TensorElt, factor_texts
from .energy import total_D
from .kr import find_b_rs, generate
from .weyl import (_word_window, all_reduced_words, bruhat_lower_interval,
                   from_reduced_word, from_word, kr_translation_data)


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
        if not _word_window(c.m, fw.prefix)[1]:
            raise ValueError(f"factor {j}: prefix {fw.prefix} is not reduced")
        w = from_reduced_word(c.m, fw.word)
        if w is None:
            raise ValueError(f"factor {j}: word {fw.word} is not reduced")
        if w not in bruhat_lower_interval(kr_translation_data(c, rj)[0]):
            raise ValueError(
                f"factor {j}: word {fw.word} is not below y_{rj} in Bruhat order")


@dataclass(frozen=True, eq=False)
class DarkSet:
    """A DARK set as codes over `product`, each mapped to its energy D (None
    throughout when _build ran with grade None), and `depth`, the largest |D|
    (0 without D).  Codes sort in canonical order."""

    spec: DarkSpec
    product: ProductTable
    energies: dict
    depth: int

    def __len__(self):
        return len(self.energies)

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(map(self.product.element, self.energies))


def _close(space: ProductTable, letters, seeds, walk) -> dict:
    """F_{i_1}(... F_{i_k}(S)) on codes, innermost letter last, as a {code: D}
    map with D = walk(seed) at each seed, closed one letter at a time by
    `ProductTable.close`."""
    energies = {y: walk(y) for y in seeds}
    for i in reversed(letters):
        space.close(i, energies, walk)
    return energies


def build(spec: DarkSpec) -> DarkSet:
    """Right-to-left evaluation of the nested closure/twist construction on
    codes.  Only the outermost closure, the final set, needs D: its seeds and
    its elements first reached by f_0 get one total_D walk each."""
    validate(spec)
    return _build(spec, total_D)


def _build(spec: DarkSpec, grade) -> DarkSet:
    """build on a valid spec, with D(x) = grade(space, x) for each walk, or
    None throughout when grade is None, for callers that read only the
    elements (well-definedness, `darkc build` and `darkc export`).  Level j
    closes in B_j (x) P, right to left; a seed is b^{r_j,s_j} (x) pr^{r_j} of
    an element of the level before, whose set lies in P.  P is enumerated
    when it is small or has at most 4 rows per element of that set, and is
    otherwise read row by row, so a sparse set costs in proportion to itself."""
    c = spec.cartan
    dist = [find_b_rs(c, rj, sj) for rj, sj in zip(spec.r, spec.lam)]
    tables = [b.table for b in dist]
    energies = {0: None}  # the one element of the empty tensor product
    space, depth = None, 0

    def walk(x):  # every D is set here: a classical letter copies it
        nonlocal depth
        d = grade(space, x)
        depth = max(depth, abs(d))
        return d

    for j in range(spec.p - 1, -1, -1):
        space = ProductTable.of(tables[j:], space, max(EAGER_ROWS, 4 * len(energies)))
        x0, twist = dist[j].pos * space.width, space.right.pr_powers[spec.r[j] % c.m]  # tau_r = r
        energies = _close(space, spec.words[j].letters, [x0 + twist[x] for x in energies],
                          walk if j == 0 and grade is not None else lambda x: None)
    return DarkSet(spec, space, energies, depth)


def well_definedness_check(spec: DarkSpec, cap: int = 10) -> bool:
    """Rebuild the set for every combination of reduced words of every prefix
    and word; True when all the resulting code sets coincide.  Only the code
    sets are compared, so the rebuilt sets take no total_D walk, and each
    combination is valid because the spec is."""
    validate(spec)
    c = spec.cartan
    choices = []
    for fw in spec.words:
        pv = all_reduced_words(from_word(c.m, fw.prefix), cap)
        wv = all_reduced_words(from_word(c.m, fw.word), cap)
        choices.append([FactorWord(a, b) for a in sorted(pv) for b in sorted(wv)])
    reference = None
    for combo in product(*choices):
        got = _build(DarkSpec(c, spec.lam, spec.r, combo), None).energies.keys()
        if reference is None:
            reference = got
        elif got != reference:
            return False
    return True


def lhs_character(spec: DarkSpec, dark: DarkSet):
    """sum over the set of e^{lam_1 Lambda_0 + aff(wt(b)) - D(b) delta}, the
    energy-adjusted character without the unknown e^{C delta}, counted on the
    keys of a _Packing at the width of lam_1.  aff is linear: code
    x = a*len(P) + c has the key kl[a] + kr[c] + shift[D], and a row's key is
    its weight's dot product with the keys of aff on the unit vectors.  kl
    and kr are lists where the set has 2 elements per table row (faster reads
    outweigh unread rows there), else filled as the set reaches rows; a row
    of nonzero level raises.  No digit carries: a Lambda coordinate is at
    most lam_1 + reach, the sum of the tables' largest weight coordinates, a
    delta numerator reach * sum_j j(m-j) + 2m depth, the largest |D|."""
    c, space, energies = spec.cartan, dark.product, dark.energies
    packing = _Packing(c, spec.lam[0])
    reach = sum(max(map(abs, chain.from_iterable(t.wt))) for t in space.tables)
    packing.cover(max(abs(spec.lam[0]) + reach,
                      reach * sum(c.d_numerators) + 2 * c.m * dark.depth))
    basis = [(1 << packing.bits * j) + (d << packing.bits * c.m)
             for j, d in enumerate(c.d_numerators)]
    def row_keys(table, rows):
        def fill(x):
            w = table.wt[x]
            if sum(w):
                aff_level_zero(c, w)  # raises: aff needs level 0
            return sum(map(mul, w, basis))
        return list(map(fill, range(rows))) if 2 * rows <= len(energies) else Memo(fill)
    n, shift = space.width, Memo(lambda d: packing.signs + spec.lam[0] - d * packing.delta)
    kl, kr = row_keys(space.left, len(space.left.wt)), row_keys(space.right, n)
    return packing.poly(Counter(kl[x // n] + kr[x % n] + shift[d] for x, d in energies.items()))


def rhs_character(spec: DarkSpec):
    # tau_r = r, the rotation of weyl.kr_translation_data
    return rhs_formula(spec.cartan, spec.lam, [fw.letters for fw in spec.words], spec.r)


def verify(spec: DarkSpec) -> tuple[bool, Fraction | None]:
    """Check the character identity; returns (ok, fitted C)."""
    return verify_detail(spec)[:2]


def verify_detail(spec: DarkSpec):
    """As verify, but also returns both characters for diagnostics."""
    lhs, rhs = lhs_character(spec, build(spec)), rhs_character(spec)
    ok, shift = fit_delta_shift(lhs, rhs)
    return ok, shift, lhs, rhs


def full_tensor(spec: DarkSpec) -> frozenset:
    """Every element of the ambient tensor product of the spec's factors."""
    c = spec.cartan
    crystals = [generate(c, rj, sj) for rj, sj in zip(spec.r, spec.lam)]
    return frozenset(TensorElt(combo) for combo in product(*crystals))


def dark_to_json(dark: DarkSet) -> dict:
    spec = dark.spec
    return {
        "n": spec.cartan.n,
        "lambda": list(spec.lam),
        "r": list(spec.r),
        "words": [{"prefix": list(fw.prefix), "word": list(fw.word)}
                  for fw in spec.words],
        "size": len(dark),
        "elements": factor_texts(dark.product, sorted(dark.energies)),
    }
