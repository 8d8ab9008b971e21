"""Reference implementations that only the tests use: walks on the tableau
itself, the Sigma factorization and Bruhat test of the Weyl group, the d
pairing and classical weights, diagnostics, and the JSON readers.  The
package computes the same things from its tables; the tests compare the two."""

from fractions import Fraction
from operator import mul

from darkc.cartan import AffineWeight, CartanA, _vec
from darkc.charring import CharPoly
from darkc.crystal import ProductTable, TensorElt
from darkc.dark import DarkSet, make_spec
from darkc.energy import total_D
from darkc.kr import RectTableau, find_b_rs, parse_tableau
from darkc.weyl import (ExtAffPerm, _descents, bruhat_lower_interval, from_word, length,
                        reduce_to_weyl)


def _unmatched(rows, i: int):
    """Bracket entries i+1 (as '(') against later entries i (as ')') in the
    reading word; return the leftover (opens, closes) cell lists."""
    opens, closes = [], []
    for a in range(len(rows) - 1, -1, -1):
        for b, v in enumerate(rows[a]):
            if v == i + 1:
                opens.append((a, b))
            elif v == i:
                if opens:
                    opens.pop()
                else:
                    closes.append((a, b))
    return opens, closes


def _with_entry(rows, cell, v):
    a, b = cell
    row = rows[a][:b] + (v,) + rows[a][b + 1:]
    return rows[:a] + (row,) + rows[a + 1:]


def _raised(rows, i: int):
    """The rows with the first unbracketed i+1 raised to i, or None."""
    opens = _unmatched(rows, i)[0]
    return _with_entry(rows, opens[0], i) if opens else None


def _lowered(rows, i: int):
    """The rows with the last unbracketed i lowered to i+1, or None."""
    closes = _unmatched(rows, i)[1]
    return _with_entry(rows, closes[-1], i + 1) if closes else None


def classical_f(i: int, T: RectTableau):
    """Lower the last unbracketed i to i+1, or None; a walk on the tableau."""
    T.cartan.check_classical(i)
    rows = _lowered(T.rows, i)
    return None if rows is None else RectTableau(T.cartan, rows)


def classical_e(i: int, T: RectTableau):
    """Raise the first unbracketed i+1 to i, or None; a walk on the tableau."""
    T.cartan.check_classical(i)
    rows = _raised(T.rows, i)
    return None if rows is None else RectTableau(T.cartan, rows)


def _promoted(rows, m: int):
    """Schuetzenberger promotion on a rectangle: delete the entries equal to
    n+1 (a suffix of the bottom row), slide the holes to the upper left by
    jeu de taquin (leftmost hole first; ties slide the cell above), increment
    everything else, and fill the holes with 1."""
    r, s = len(rows), len(rows[0])
    grid = [list(row) for row in rows]
    hole_cols = [j for j in range(s) if grid[r - 1][j] == m]
    for j in hole_cols:
        grid[r - 1][j] = None
    for j in hole_cols:
        i, k = r - 1, j
        while True:
            above = grid[i - 1][k] if i > 0 else None
            left = grid[i][k - 1] if k > 0 else None
            if above is None and left is None:
                break
            if left is None or (above is not None and above >= left):
                grid[i][k], grid[i - 1][k] = above, None
                i -= 1
            else:
                grid[i][k], grid[i][k - 1] = left, None
                k -= 1
    return tuple(tuple(1 if v is None else v + 1 for v in row) for row in grid)


def promotion_by_slides(T: RectTableau) -> RectTableau:
    """Promotion by jeu de taquin on the tableau itself: the oracle for pr."""
    return RectTableau(T.cartan, _promoted(T.rows, T.cartan.m))


def tableau_text(T: RectTableau) -> str:
    return T.text()


def simple(m: int, i: int) -> ExtAffPerm:
    """The simple reflection s_i, swapping residue classes i and i+1 (mod m)."""
    return from_word(m, (i,))


def rot(m: int, k: int = 1) -> ExtAffPerm:
    """The window-shift generator pi^k of Sigma, i |-> i + k."""
    return ExtAffPerm(tuple(i + k for i in range(1, m + 1)))


def sigma_class(w: ExtAffPerm) -> int:
    """Dynkin rotation amount of the Sigma part of w."""
    return (w.shift // w.m) % w.m


def eq_mod_center(a: ExtAffPerm, b: ExtAffPerm) -> bool:
    d = a * b.inverse()
    offs = {d.win[i] - (i + 1) for i in range(d.m)}
    return len(offs) == 1 and next(iter(offs)) % d.m == 0


def factor_sigma(w: ExtAffPerm) -> tuple[ExtAffPerm, int]:
    """Factor w = y * pi^k modulo the center, y in W, k the rotation class:
    the oracle for the closed form of `weyl.kr_translation_data`."""
    m = w.m
    k = sigma_class(w)
    y = reduce_to_weyl(w * rot(m, -k))
    if not eq_mod_center(y * rot(m, k), w):
        raise AssertionError("factor_sigma recomposition failed")
    return y, k


def bruhat_leq(w: ExtAffPerm, y: ExtAffPerm) -> bool:
    w = reduce_to_weyl(w)
    y = reduce_to_weyl(y)
    if length(w) > length(y):
        return False
    return w in bruhat_lower_interval(y)


def translation(c: CartanA, a) -> ExtAffPerm:
    """t_a for an integer vector a of length m: f(i) = i + m * a_i on the window."""
    a = tuple(int(v) for v in a)
    if len(a) != c.m:
        raise ValueError(f"translation vector must have length {c.m}")
    return ExtAffPerm(tuple(i + c.m * a[i - 1] for i in range(1, c.m + 1)))


def left_descents(w: ExtAffPerm) -> list[int]:
    """The i with s_i * w < w: the descents of the inverse window."""
    return _descents(w.inverse().win)


def d_coeff(c: CartanA, j: int) -> Fraction:
    """<d, Lambda_j> in the normalization <d, Lambda_0> = 0.

    Solving sum_j a_ji x_j = delta_i0 - 1/m together with x_0 = 0 gives the
    closed form x_j = -j(m-j)/(2m); the test suite re-derives it from the
    linear system.
    """
    c.check_node(j)
    return Fraction(-c.d_numerators[j], 2 * c.m)


def predicted_C(spec) -> Fraction:
    """The constant C that verify fits, in closed form from (n, lambda, r):
    -1/2 sum_k (lambda_k - lambda_{k+1}) |w_{r_1} + ... + w_{r_k}|^2, with
    lambda_{p+1} = 0 and (w_a, w_b) = min(a, b) - ab/m the pairing of the
    fundamental weights of sl_m.  One translation per level, as in the
    nested construction: the delta part of t_beta(l Lambda_0) = l Lambda_0 +
    l beta - l |beta|^2 delta / 2 (Kac, (6.5.2)).  The formula was found by
    measurement, not derived, and reads no word of the spec."""
    m, lam = spec.cartan.m, spec.lam + (0,)
    total = Fraction(0)
    for k in range(1, spec.p + 1):
        beta = spec.r[:k]
        norm = sum(min(a, b) - Fraction(a * b, m) for a in beta for b in beta)
        total += (lam[k - 1] - lam[k]) * norm
    return -total / 2


def d_pair(c: CartanA, mu: AffineWeight) -> Fraction:
    """<d, mu> = sum_j lam[j] <d, Lambda_j> + dlt (type A has <d, delta> = 1)."""
    return Fraction(mu[-1] - sum(map(mul, mu.lam, c.d_numerators)), 2 * c.m)


def clweight(b) -> tuple[int, ...]:
    """The classical weight of a tableau, or of a tensor as the sum over its
    factors: the int tuple of its Lambda coefficients."""
    if isinstance(b, TensorElt):
        return tuple(map(sum, zip(*map(clweight, b.factors))))
    return b.table.wt[b.pos]


def fundamental_weight(c: CartanA, i: int) -> AffineWeight:
    """Lambda_i."""
    c.check_node(i)
    return _vec([int(j == i) for j in range(c.m)] + [0])


def delta_weight(c: CartanA) -> AffineWeight:
    """The null root delta = (0, ..., 0; 1), with numerator d = 2m."""
    return _vec((0,) * c.m + (2 * c.m,))


def coroot_pair(mu: AffineWeight, i: int) -> int:
    """<alpha_i_check, mu>, which is just the i-th Lambda coefficient."""
    return mu.lam[i]


def weight_from_json(obj: dict) -> AffineWeight:
    return AffineWeight(tuple(obj["lam"]), Fraction(obj["delta"]))


def char_from_json(items) -> CharPoly:
    return CharPoly([(weight_from_json(obj), obj["coef"]) for obj in items])


def sorted_elements(dark: DarkSet) -> list[TensorElt]:
    """The elements of a DARK set in canonical order."""
    return [dark.product.element(x) for x in sorted(dark.energies)]


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


def bfs_close(space: ProductTable, letters, seeds, walk) -> dict:
    """F_{i_1}(... F_{i_k}(S)) on codes, innermost letter last, breadth first
    by the step `space.lowering(i)`: the reference for `dark._close`.  A step
    along a classical f_i copies D from its source; an element first reached
    by f_0 gets walk(it)."""
    energies = {y: walk(y) for y in seeds}
    for i in reversed(letters):
        f = space.lowering(i)
        frontier = list(energies)
        while frontier:
            nxt = []
            for x in frontier:
                y = f(x)
                if y >= 0 and y not in energies:
                    energies[y] = energies[x] if i else walk(y)
                    nxt.append(y)
            frontier = nxt
    return energies


def dark_from_json(obj: dict) -> DarkSet:
    """The DARK set of a `dark.dark_to_json` object, each element with its
    total_D."""
    spec = make_spec(obj["n"], obj["lambda"], obj["r"],
                     [(tuple(w["prefix"]), tuple(w["word"])) for w in obj["words"]])
    c = spec.cartan
    product = ProductTable.of(find_b_rs(c, rj, sj).table for rj, sj in zip(spec.r, spec.lam))
    energies = {}
    for texts in obj["elements"]:
        if len(texts) != spec.p:
            raise ValueError(f"element {'|'.join(texts)} has {len(texts)} factors, not {spec.p}")
        b = TensorElt(tuple(parse_tableau(c, t, r) for t, r in zip(texts, spec.r)))
        x = product.code(b)
        energies[x] = total_D(product, x)
    if obj["size"] != len(energies):
        raise ValueError(f"size {obj['size']} but {len(energies)} distinct elements")
    return DarkSet(spec, product, energies, max(map(abs, energies.values()), default=0))
