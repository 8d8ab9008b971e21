"""The acceptance grid, shared by `darkc selftest` and the test suite.

Each criterion function returns a short deterministic summary string and
raises CheckFailure on the first violation.  Nothing here depends on hash
ordering or wall time, so repeated runs print identical bytes.

Criteria 1, 2 and 8 check whole products, so they read the arrays of the KR
tables and of `crystal.ProductTable`, a triple being B1 (x) (B2 (x) B3):
the axioms, the tensor twist equations, and R commuting with every e_i and
f_i.  `build` walks i-strings on the factors' arrays (`ProductTable.close`),
which the tests tie to a closure by the per-position steps of the same
class, and those steps to these arrays.  `EnergyOracle`, which criterion 8
compares R and H of `energy.energy_table` with code by code, walks the arrays
of the pair's two product tables, the rule in its row shape, while `energy`
moves pairs by the steps: no tensor-rule code is shared.  Criterion 2 checks
the order of promotion and its slide oracle on the tableaux, and `TensorElt`
serves the Yang-Baxter check on `comb_R` and names an element in a failure,
built only then.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import chain, product
from math import prod
from operator import lshift

from .cartan import AffineWeight, CartanA, cl_simple_root, reflect, simple_root
from .charring import CharPoly, demazure_op, sigma_act
from .crystal import (ModelConsistencyError, ProductTable, TensorElt,
                      classical_highest_path, demazure_closure, eps)
from .dark import DarkSpec, FactorWord, build, full_tensor, verify, well_definedness_check
from .energy import comb_R, energy_table
from .kr import (find_b_rs, generate, promotion, promotion_inverse,
                 promotion_inverse_by_slides)
from .weyl import bruhat_lower_interval, kr_translation_data, reduced_word

AXIOM_RANKS = (1, 2, 3)
GRID_RANKS = (1, 2)
PRODUCT_CAP = 600


class CheckFailure(AssertionError):
    pass


def _need(cond, msg, *args):
    """Failure messages %-format lazily; building reprs eagerly would dominate
    the exhaustive sweeps."""
    if not cond:
        raise CheckFailure(msg % args if args else msg)


def single_shapes(n: int) -> list[tuple[int, int]]:
    return [(r, s) for r in range(1, min(n, 2) + 1) for s in (1, 2, 3)]


def _axiom_families():
    """(cartan, table) pairs: every grid B^{r,s} as its KRTable, then all
    tensor pairs and triples with at most PRODUCT_CAP elements as
    ProductTables, a triple as B1 (x) (B2 (x) B3) over the pair table."""
    for n in AXIOM_RANKS:
        c = CartanA(n)
        shapes = single_shapes(n)
        tables = {sh: generate(c, *sh)[0].table for sh in shapes}
        yield from ((c, tables[sh]) for sh in shapes)
        smallest = min(len(t.elements) for t in tables.values())
        # right factors by shapes: the KR tables, and the pair tables small
        # enough to sit inside a triple, kept so triples share them
        right = {(sh,): tables[sh] for sh in shapes}
        for combo in chain(product(shapes, repeat=2), product(shapes, repeat=3)):
            size = prod(len(tables[sh].elements) for sh in combo)
            if size <= PRODUCT_CAP:
                space = ProductTable(tables[combo[0]], right[combo[1:]])
                if len(combo) == 2 and size * smallest <= PRODUCT_CAP:
                    right[combo] = space
                yield c, space


def _fail(space, msg: str, x, *args):
    """Raise CheckFailure naming the tensor element at position x of a
    KRTable or ProductTable, built only now."""
    b = space.element(x) if isinstance(space, ProductTable) else TensorElt((space.elements[x],))
    raise CheckFailure(msg % ((b,) + args))


# Criterion 1 compares weights as linear int keys sum_j w_j << KEY_BITS*j: the
# key of wt(y) - wt(x) - alpha_i is 0 only when that vector is 0, as long as its
# coordinates, at most 2*max|w_j| + 2 in absolute value, stay below 2**KEY_BITS.
KEY_BITS = 8


def criterion_axioms() -> str:
    """Crystal axioms for every node on every grid crystal and tensor, on the
    arrays of their tables."""
    families = 0
    elements = 0
    for c, space in _axiom_families():
        families += 1
        wt = space.wt
        elements += len(wt)
        for x, w in enumerate(wt):
            if sum(w):
                _fail(space, "nonzero level at %r", x)
        bound = max(max(map(max, wt)), -min(map(min, wt)))
        if 2 * bound + 2 >= 1 << KEY_BITS:
            raise OverflowError(f"weight coordinate {bound} leaves a {KEY_BITS}-bit digit")
        shifts = range(0, KEY_BITS * c.m, KEY_BITS)
        keys = [sum(map(lshift, w, shifts)) for w in wt]
        for i in c.nodes:
            alpha = sum(map(lshift, cl_simple_root(c, i), shifts))
            ups, downs = space.e[i], space.f[i]
            for x, (ep, ph) in enumerate(space.stats[i]):
                if wt[x][i] != ph - ep:
                    _fail(space, "weight pairing broken at %r, i=%d", x, i)
                up = ups[x]
                if up >= 0:
                    if downs[up] != x:
                        _fail(space, "f_i e_i != id at %r, i=%d", x, i)
                    if keys[up] - keys[x] != alpha:
                        _fail(space, "wt(e_i b) != wt(b) + alpha_i at %r, i=%d", x, i)
                down = downs[x]
                if down >= 0:
                    if ups[down] != x:
                        _fail(space, "e_i f_i != id at %r, i=%d", x, i)
                    if keys[x] - keys[down] != alpha:
                        _fail(space, "wt(f_i b) != wt(b) - alpha_i at %r, i=%d", x, i)
    return f"{families} crystals, {elements} elements"


def _tensor_twists() -> int:
    """The twist equations, twisting by the pr array, on every element of the
    criterion-1 families, KR tables and products; returns their count.  The
    weight equation is checked for k = 1, which gives every k."""
    checked = 0
    for c, space in _axiom_families():
        pr, wt = space.pr, space.wt
        cut = c.m - 1  # rotate(c, 1, .) on int tuples: coefficient j moves to j + 1
        for x, w in enumerate(wt):
            if wt[pr[x]] != w[cut:] + w[:cut]:
                _fail(space, "tensor twist weight broken at %r", x)
        for i in c.nodes:
            j = (i + 1) % c.m
            for side, ops, twisted in (("f", space.f[i], space.f[j]),
                                       ("e", space.e[i], space.e[j])):
                for x, y in enumerate(ops):
                    if (-1 if y < 0 else pr[y]) != twisted[pr[x]]:
                        _fail(space, f"tensor twist {side} equation broken at %r, i={i}", x)
        checked += len(wt)
    return checked


def criterion_twists() -> str:
    """promotion^(n+1) = id and the slide oracle on every tableau, then the
    twist equations, exhaustively."""
    for n in AXIOM_RANKS:
        c = CartanA(n)
        for sh in single_shapes(n):
            for T in generate(c, *sh):
                pk = T
                for _ in range(c.m):
                    pk = promotion(pk)
                _need(pk == T, "promotion order broken at %r", T)
                _need(promotion_inverse(T) == promotion_inverse_by_slides(T),
                      "promotion inverse broken at %r", T)
    return f"{_tensor_twists()} elements"


def criterion_brs_unique() -> str:
    """Exactly one element with eps_0 = s and classical eps zero."""
    scans = 0
    for n in AXIOM_RANKS:
        c = CartanA(n)
        for r, s in single_shapes(n):
            hits = [T for T in generate(c, r, s)
                    if eps(T, 0) == s
                    and all(eps(T, i) == 0 for i in c.classical_nodes)]
            _need(len(hits) == 1, f"b^{{{r},{s}}} scan found {len(hits)} at n={n}")
            _need(hits[0] == find_b_rs(c, r, s), "scan disagrees with find_b_rs")
            scans += 1
    return f"{scans} scans"


def criterion_full_closure() -> str:
    """Closing {b^{r,s}} along y_r fills B^{r,s}; tau_1 is rotation by one."""
    closures = 0
    for n in AXIOM_RANKS:
        c = CartanA(n)
        for r, s in single_shapes(n):
            y, tau = kr_translation_data(c, r)
            if r == 1:
                _need(tau == 1, f"tau for r=1 is rot+{tau}, not rot+1 at n={n}")
            seed = {TensorElt((find_b_rs(c, r, s),))}
            closed = demazure_closure(reduced_word(y), seed)
            want = {TensorElt((T,)) for T in generate(c, r, s)}
            _need(closed == want, f"closure along y_{r} missed B^{{{r},{s}}} at n={n}")
            closures += 1
    return f"{closures} closures"


def _lambda_grid(p: int) -> list[tuple[int, ...]]:
    if p == 1:
        return [(0,), (1,), (2,), (3,)]
    return [(a, b) for a in (1, 2, 3) for b in range(a + 1)]


def _prefixed_samples() -> list[DarkSpec]:
    mk = lambda n, lam, r, words: DarkSpec(
        CartanA(n), lam, r, tuple(FactorWord(*w) for w in words))
    return [
        mk(1, (2, 1), (1, 1), [((1,), ()), ((), (1,))]),
        mk(1, (3, 1), (1, 1), [((1,), (1,)), ((1,), ())]),
        mk(2, (2, 1), (1, 1), [((1, 2, 1), ()), ((), (2, 1))]),
        mk(2, (2, 2), (2, 1), [((2, 1, 2), (1, 2)), ((1,), (2, 1))]),
        mk(2, (3, 2), (1, 2), [((1, 2), (2, 1)), ((2,), (1, 2))]),
        mk(2, (3, 0), (2, 2), [((1, 2, 1), (1, 2)), ((), ())]),
    ]


def grid_specs() -> list[DarkSpec]:
    """Every spec of the verification grid, in a fixed order."""
    out = []
    for n in GRID_RANKS:
        c = CartanA(n)
        for p in (1, 2):
            for lam in _lambda_grid(p):
                for r in product(range(1, n + 1), repeat=p):
                    per_factor = []
                    for rj in r:
                        y, _ = kr_translation_data(c, rj)
                        words = sorted(reduced_word(w)
                                       for w in bruhat_lower_interval(y))
                        words.sort(key=len)
                        per_factor.append([FactorWord((), w) for w in words])
                    for combo in product(*per_factor):
                        out.append(DarkSpec(c, lam, r, combo))
    out.extend(_prefixed_samples())
    return out


def criterion_well_defined() -> str:
    """DARK sets agree across all reduced-word choices, grid wide."""
    specs = grid_specs()
    for spec in specs:
        _need(well_definedness_check(spec),
              "word choice changed the set for %r", spec)
    return f"{len(specs)} specs"


def _random_poly(rng: random.Random, c: CartanA, terms: int) -> CharPoly:
    def term():
        lam = tuple(rng.randint(-3, 3) for _ in range(c.m))
        return AffineWeight(lam, Fraction(rng.randint(-4, 4), 2 * c.m)), rng.randint(-3, 3)
    return CharPoly(term() for _ in range(terms))


def demazure_by_division(c: CartanA, i: int, f: CharPoly) -> CharPoly:
    """Literal evaluation of (f - e^{-alpha_i} s_i(f)) / (1 - e^{-alpha_i})
    by repeated leading-term elimination; the independent oracle for D_i."""
    alpha = simple_root(c, i)
    s_f = CharPoly({reflect(c, i, mu): coef for mu, coef in f.terms.items()})
    g = f - s_f.shifted(-alpha)
    quot: dict[AffineWeight, int] = {}
    guard = 0
    while g:
        guard += 1
        if guard > 100000:
            raise CheckFailure("division did not terminate")
        mu, coef = max(g.terms.items(),
                       key=lambda t: (t[0][i], t[0]))
        quot[mu] = quot.get(mu, 0) + coef
        g = g - CharPoly({mu: coef, mu - alpha: -coef})
    return CharPoly(quot)


def criterion_demazure_algebra() -> str:
    """Idempotence, braid/commutation, the division oracle, Sigma action."""
    rng = random.Random(20240801)
    polys = 0
    for n in (1, 2, 3):
        c = CartanA(n)
        for _ in range(6):
            f = _random_poly(rng, c, rng.randint(1, 20))
            for i in c.nodes:
                df = demazure_op(c, i, f)
                _need(demazure_op(c, i, df) == df, f"D_{i} not idempotent, n={n}")
            for k in range(c.m):
                for i in c.nodes:
                    lhs = sigma_act(c, k, demazure_op(c, i, f))
                    rhs = demazure_op(c, (i + k) % c.m, sigma_act(c, k, f))
                    _need(lhs == rhs, f"Sigma equivariance broken, n={n}, i={i}, k={k}")
            polys += 1
        if n >= 2:
            for i in c.nodes:
                j = (i + 1) % c.m
                f = _random_poly(rng, c, 8)
                lhs = demazure_op(c, i, demazure_op(c, j, demazure_op(c, i, f)))
                rhs = demazure_op(c, j, demazure_op(c, i, demazure_op(c, j, f)))
                _need(lhs == rhs, f"braid relation broken at ({i},{j}), n={n}")
        if n >= 3:
            for i, j in ((0, 2), (1, 3)):
                f = _random_poly(rng, c, 8)
                lhs = demazure_op(c, i, demazure_op(c, j, f))
                rhs = demazure_op(c, j, demazure_op(c, i, f))
                _need(lhs == rhs, f"commutation broken at ({i},{j}), n={n}")
    # division cross-check on 50 random monomials
    for _ in range(50):
        n = rng.choice((1, 2, 3))
        c = CartanA(n)
        mono = _random_poly(rng, c, 1)
        i = rng.randrange(c.m)
        _need(demazure_op(c, i, mono) == demazure_by_division(c, i, mono),
              "division oracle disagrees, n=%d, i=%d, %r", n, i, mono)
    return f"{polys} polynomials, 50 division checks"


def criterion_identity() -> str:
    """The character identity across the grid, one C per (lambda, r)."""
    specs = grid_specs()
    groups: dict = {}
    for spec in specs:
        ok, shift = verify(spec)
        _need(ok, "character identity failed for %r", spec)
        key = (spec.cartan.n, spec.lam, spec.r)
        groups.setdefault(key, set()).add(shift)
    for key, shifts in sorted(groups.items()):
        _need(len(shifts) == 1, f"C not constant on {key}: {sorted(shifts)}")
    anchor = groups[(1, (1,), (1,))]
    _need(anchor == {Fraction(-1, 4)}, f"anchor C was {anchor}, not -1/4")
    return f"{len(specs)} specs, {len(groups)} (lambda, r) classes, anchor C=-1/4"


class EnergyOracle:
    """R and H on all of B1 (x) B2 by breadth-first search over every arrow;
    the independent oracle for the per-pair rule in `energy`.

    At the pair of classical highest elements R swaps the factors and H is 0.
    R commutes with every e_i and f_i.  Classical arrows preserve H, and a
    0-arrow shifts it by +1 / -1 when e_0 acts on the left / right factor both
    before and after applying R.  The search runs on the arrays of `pair`,
    B1 (x) B2, and `swapped`, B2 (x) B1, and R and H are lists indexed by the
    codes of `pair`, R's values codes of `swapped`; construction raises
    ModelConsistencyError when two paths disagree or it misses a pair."""

    def __init__(self, pair: ProductTable, swapped: ProductTable):
        c = pair.cartan
        left, right = pair.left.elements, pair.right.elements
        u1, _ = classical_highest_path(left[0])
        u2, _ = classical_highest_path(right[0])
        n1, n2 = len(left), len(right)
        start = u1.pos * n2 + u2.pos
        R, H = [-1] * (n1 * n2), [0] * (n1 * n2)  # R[x] < 0: x not reached yet
        R[start], H[start] = u2.pos * n1 + u1.pos, 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            rx, hx = R[x], H[x]
            for i in c.nodes:
                up, r_up = pair.e[i][x], swapped.e[i][rx]
                down, r_down = pair.f[i][x], swapped.f[i][rx]
                if (up < 0) != (r_up < 0) or (down < 0) != (r_down < 0):
                    raise ModelConsistencyError(f"R does not commute with node {i}")
                if up >= 0:
                    hv = hx + (self._zero_step(x, up, rx, r_up, n2, n1) if i == 0 else 0)
                    self._record(queue, R, H, up, r_up, hv)
                if down >= 0:
                    hv = hx - (self._zero_step(down, x, r_down, rx, n2, n1) if i == 0 else 0)
                    self._record(queue, R, H, down, r_down, hv)
        if min(R) < 0:
            raise ModelConsistencyError("tensor product not connected by arrows")
        self.R, self.H = R, H

    @staticmethod
    def _zero_step(x, y, rx, ry, n2, n1) -> int:
        """H(y) - H(x) for positions y = e_0 x, rx = R(x) and ry = R(y)."""
        left_here = y % n2 == x % n2
        left_r = ry % n1 == rx % n1
        if left_here == left_r:
            return 1 if left_here else -1
        return 0

    @staticmethod
    def _record(queue, R, H, y, ry, hv):
        if R[y] >= 0:
            if H[y] != hv:
                raise ModelConsistencyError("inconsistent local energy assignment")
            if R[y] != ry:
                raise ModelConsistencyError("inconsistent R assignment")
        else:
            R[y], H[y] = ry, hv
            queue.append(y)


def _check_pair_energy(c: CartanA, sh1, sh2) -> None:
    """R and H of energy_table against EnergyOracle, R^2 = id, and R commuting
    with every e_i and f_i, on the arrays of B1 (x) B2 and B2 (x) B1."""
    left, right = generate(c, *sh1)[0].table, generate(c, *sh2)[0].table
    pair, swapped = ProductTable(left, right), ProductTable(right, left)
    oracle = EnergyOracle(pair, swapped)
    table, back = energy_table(c, sh1, sh2), energy_table(c, sh2, sh1)
    for x in range(len(pair)):
        img, h = table.entry(x)
        if img != oracle.R[x]:
            _fail(pair, "R differs from the oracle at %r", x)
        if h != oracle.H[x]:
            _fail(pair, "H differs from the oracle at %r", x)
        if back.entry(img)[0] != x:
            _fail(pair, "R^2 != id at %r", x)
    R = table.R  # now holding every code of pair
    for i in c.nodes:
        for side, ops, swapped_ops in (("f", pair.f[i], swapped.f[i]),
                                       ("e", pair.e[i], swapped.e[i])):
            for x, y in enumerate(ops):
                if (-1 if y < 0 else R[y]) != swapped_ops[R[x]]:
                    _fail(pair, f"R does not commute with {side}_{i} at %r", x)


def criterion_energy() -> str:
    """R is an involution commuting with all operators; Yang-Baxter; R and H
    match the breadth-first oracle on every grid pair."""
    pairs = 0
    for n in AXIOM_RANKS:
        c = CartanA(n)
        shapes = single_shapes(n)
        for sh1, sh2 in product(shapes, repeat=2):
            if len(generate(c, *sh1)) * len(generate(c, *sh2)) > PRODUCT_CAP:
                continue
            pairs += 1
            _check_pair_energy(c, sh1, sh2)
    yb = 0
    for n in (1, 2):
        c = CartanA(n)
        B11 = generate(c, 1, 1)
        B12 = generate(c, 1, 2)

        def r12(t):
            return comb_R(TensorElt(t[:2])).factors + (t[2],)

        def r23(t):
            return (t[0],) + comb_R(TensorElt(t[1:])).factors

        for t in product(B11, B11, B12):
            _need(r12(r23(r12(t))) == r23(r12(r23(t))), "Yang-Baxter failed at %r", t)
            yb += 1
    return f"{pairs} pairs, {yb} Yang-Baxter triples"


def criterion_full_tensor() -> str:
    """Maximal words give the whole tensor product, and the identity holds."""
    cases = 0
    for n in GRID_RANKS:
        c = CartanA(n)
        for p in (1, 2):
            for lam in _lambda_grid(p):
                for r in product(range(1, n + 1), repeat=p):
                    words = tuple(
                        FactorWord((), reduced_word(kr_translation_data(c, rj)[0]))
                        for rj in r)
                    spec = DarkSpec(c, lam, r, words)
                    _need(build(spec).elements == full_tensor(spec),
                          "maximal words missed the full tensor for %r", spec)
                    ok, _ = verify(spec)
                    _need(ok, "identity failed on full tensor %r", spec)
                    cases += 1
    return f"{cases} cases"


CRITERIA = (
    ("crystal-axioms", criterion_axioms),
    ("twists", criterion_twists),
    ("brs-uniqueness", criterion_brs_unique),
    ("full-crystal-closure", criterion_full_closure),
    ("well-definedness", criterion_well_defined),
    ("demazure-operator-algebra", criterion_demazure_algebra),
    ("character-identity", criterion_identity),
    ("energy-machinery", criterion_energy),
    ("maximal-words-full-tensor", criterion_full_tensor),
)


def run_all(write) -> bool:
    """Run every criterion, printing one deterministic line per criterion."""
    all_ok = True
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        try:
            detail = fn()
            write(f"criterion {idx} {name}: PASS ({detail})\n")
        except CheckFailure as exc:
            all_ok = False
            write(f"criterion {idx} {name}: FAIL ({exc})\n")
    write(f"selftest: {'PASS' if all_ok else 'FAIL'}\n")
    return all_ok
