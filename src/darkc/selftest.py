"""The acceptance grid, shared by `darkc selftest` and the test suite.

Each criterion function returns a short deterministic summary string and
raises CheckFailure on the first violation.  Nothing here depends on hash
ordering or wall time, so repeated runs print identical bytes.

Criteria 1 and 2 check the crystal axioms and the tensor twist equations on
`crystal.Codes`, the integer codes that `build` runs on; an element is built
only to name it in a failure.  Criterion 2 checks promotion on the tableaux.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import chain, product
from math import prod
from operator import getitem, sub

from .cartan import (AffineWeight, CartanA, cl_simple_root, reflect, rotate,
                     simple_root)
from .charring import CharPoly, demazure_op, sigma_act
from .crystal import (Codes, ModelConsistencyError, TensorElt, classical_highest_path,
                      demazure_closure, eps)
from .dark import DarkSpec, FactorWord, build, full_tensor, verify, well_definedness_check
from .energy import comb_R, local_H
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
    """(cartan, Codes) pairs: every grid B^{r,s} as a one-factor product, then
    all tensor pairs and triples with at most PRODUCT_CAP elements."""
    for n in AXIOM_RANKS:
        c = CartanA(n)
        shapes = single_shapes(n)
        tables = {sh: generate(c, *sh)[0].table for sh in shapes}
        for sh in shapes:
            yield c, Codes((tables[sh],))
        for combo in chain(product(shapes, repeat=2), product(shapes, repeat=3)):
            if prod(len(tables[sh].elements) for sh in combo) <= PRODUCT_CAP:
                yield c, Codes(tables[sh] for sh in combo)


def _family(c: CartanA, space: Codes):
    """{code: weight} and, per node i, {code: (eps_i, phi_i, e_i, f_i)} over the
    space; built per family, so the rows of all families never live together."""
    codes = list(space)
    wt = dict(zip(codes, map(space.weight, codes)))
    return wt, [dict(zip(codes, map(space.node(i), codes))) for i in c.nodes]


def _fail(space: Codes, msg: str, x, *args):
    """Raise CheckFailure naming the element of code x, built only now."""
    raise CheckFailure(msg % ((space.element(x),) + args))


def criterion_axioms() -> str:
    """Crystal axioms for every node on every grid crystal and tensor, on codes."""
    families = 0
    elements = 0
    for c, space in _axiom_families():
        families += 1
        wt, rows = _family(c, space)
        elements += len(wt)
        for x, w in wt.items():
            if sum(w):
                _fail(space, "nonzero level at %r", x)
        for i in c.nodes:
            alpha = cl_simple_root(c, i)
            node = rows[i]
            for x, (ep, ph, up, down) in node.items():
                w = wt[x]
                if w[i] != ph - ep:
                    _fail(space, "weight pairing broken at %r, i=%d", x, i)
                if up is not None:
                    if node[up][3] != x:
                        _fail(space, "f_i e_i != id at %r, i=%d", x, i)
                    if tuple(map(sub, wt[up], w)) != alpha:
                        _fail(space, "wt(e_i b) != wt(b) + alpha_i at %r, i=%d", x, i)
                if down is not None:
                    if node[down][2] != x:
                        _fail(space, "e_i f_i != id at %r, i=%d", x, i)
                    if tuple(map(sub, w, wt[down])) != alpha:
                        _fail(space, "wt(f_i b) != wt(b) - alpha_i at %r, i=%d", x, i)
    return f"{families} crystals, {elements} elements"


def _tensor_twists() -> int:
    """The twist equations, twisting by the tables' pr arrays, on every code of
    the criterion-1 products of two or three factors; returns their count."""
    checked = 0
    for c, space in _axiom_families():
        if len(space.tables) == 1:
            continue
        prs = [t.pr for t in space.tables]
        wt, rows = _family(c, space)
        cut = c.m - 1  # rotate(c, 1, .) on int tuples: coefficient j moves to j + 1
        for x, w in wt.items():
            z = tuple(map(getitem, prs, x))
            if wt[z] != w[cut:] + w[:cut]:
                _fail(space, "tensor twist weight broken at %r", x)
            for i in c.nodes:
                _, _, up, down = rows[i][x]
                _, _, z_up, z_down = rows[(i + 1) % c.m][z]
                if (None if down is None else tuple(map(getitem, prs, down))) != z_down:
                    _fail(space, "tensor twist f equation broken at %r, i=%d", x, i)
                if (None if up is None else tuple(map(getitem, prs, up))) != z_up:
                    _fail(space, "tensor twist e equation broken at %r, i=%d", x, i)
            checked += 1
    return checked


def criterion_twists() -> str:
    """promotion^(n+1) = id and the twist equations, exhaustively."""
    checked = 0
    for n in AXIOM_RANKS:
        c = CartanA(n)
        for sh in single_shapes(n):
            for T in generate(c, *sh):
                checked += 1
                pk = T
                for _ in range(c.m):
                    pk = promotion(pk)
                _need(pk == T, "promotion order broken at %r", T)
                _need(promotion_inverse(T) == promotion_inverse_by_slides(T),
                      "promotion inverse broken at %r", T)
                for k in (1, 2):
                    zk, rk = T, k % c.m
                    for _ in range(rk):
                        zk = promotion(zk)
                    _need(zk.clweight() == rotate(c, k, T.clweight()),
                          "twist weight equation broken at %r, k=%d", T, k)
                for i in c.nodes:
                    fi = T.f(i)
                    _need((None if fi is None else promotion(fi))
                          == promotion(T).f((i + 1) % c.m),
                          "twist f equation broken at %r, i=%d", T, i)
                    ei = T.e(i)
                    _need((None if ei is None else promotion(ei))
                          == promotion(T).e((i + 1) % c.m),
                          "twist e equation broken at %r, i=%d", T, i)
    return f"{checked + _tensor_twists()} elements"


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
                       key=lambda t: (t[0].lam[i],) + t[0].sort_key())
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
    before and after applying R.  Construction raises ModelConsistencyError
    when two paths disagree or the search misses a pair."""

    def __init__(self, c: CartanA, shape_left, shape_right):
        left = generate(c, *shape_left)
        right = generate(c, *shape_right)
        u1, _ = classical_highest_path(left[0])
        u2, _ = classical_highest_path(right[0])
        start = (u1, u2)
        self.R = {start: (u2, u1)}
        self.H = {start: 0}
        queue = deque([start])
        while queue:
            pair = queue.popleft()
            x = TensorElt(pair)
            rx = TensorElt(self.R[pair])
            hx = self.H[pair]
            for i in c.nodes:
                up, r_up = x.e(i), rx.e(i)
                down, r_down = x.f(i), rx.f(i)
                if (up is None) != (r_up is None) or (down is None) != (r_down is None):
                    raise ModelConsistencyError(f"R does not commute with node {i}")
                if up is not None:
                    hv = hx + (self._zero_step(x, up, rx, r_up) if i == 0 else 0)
                    self._record(queue, up, r_up, hv)
                if down is not None:
                    hv = hx - (self._zero_step(down, x, r_down, rx) if i == 0 else 0)
                    self._record(queue, down, r_down, hv)
        if len(self.H) != len(left) * len(right):
            raise ModelConsistencyError("tensor product not connected by arrows")

    @staticmethod
    def _zero_step(x, y, rx, ry) -> int:
        """H(y) - H(x) for y = e_0 x, with rx = R(x) and ry = R(y)."""
        left_here = y.factors[1] == x.factors[1]
        left_r = ry.factors[1] == rx.factors[1]
        if left_here and left_r:
            return 1
        if not left_here and not left_r:
            return -1
        return 0

    def _record(self, queue, y, ry, hv):
        pair = y.factors
        if pair in self.H:
            if self.H[pair] != hv:
                raise ModelConsistencyError("inconsistent local energy assignment")
            if self.R[pair] != ry.factors:
                raise ModelConsistencyError("inconsistent R assignment")
        else:
            self.R[pair] = ry.factors
            self.H[pair] = hv
            queue.append(pair)


def criterion_energy() -> str:
    """R is an involution commuting with all operators; Yang-Baxter; R and H
    match the breadth-first oracle on every grid pair."""
    pairs = 0
    for n in AXIOM_RANKS:
        c = CartanA(n)
        shapes = single_shapes(n)
        singles = {sh: generate(c, *sh) for sh in shapes}
        for sh1, sh2 in product(shapes, repeat=2):
            if len(singles[sh1]) * len(singles[sh2]) > PRODUCT_CAP:
                continue
            oracle = EnergyOracle(c, sh1, sh2)
            pairs += 1
            for a in singles[sh1]:
                for b in singles[sh2]:
                    x = TensorElt((a, b))
                    rx = comb_R(x)
                    _need(rx.factors == oracle.R[(a, b)],
                          "R differs from the oracle at %r", x)
                    _need(local_H(x) == oracle.H[(a, b)],
                          "H differs from the oracle at %r", x)
                    _need(comb_R(rx) == x, "R^2 != id at %r", x)
                    for i in c.nodes:
                        fi = x.f(i)
                        _need((None if fi is None else comb_R(fi)) == rx.f(i),
                              "R does not commute with f_%d at %r", i, x)
                        ei = x.e(i)
                        _need((None if ei is None else comb_R(ei)) == rx.e(i),
                              "R does not commute with e_%d at %r", i, x)
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
