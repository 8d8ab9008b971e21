"""Extended affine Weyl group of type A_n^(1) as periodic permutations.

An element is a bijection f of the integers with f(i + m) = f(i) + m, stored
by its window [f(1), ..., f(m)].  The window sum minus m(m+1)/2 (the shift)
is always a multiple of m; shift/m mod m is the Dynkin rotation class of the
element, and the non-extended group W is the shift-zero part after reduction
modulo the central translation t_(1,...,1).

>>> s1 = simple(2, 1)
>>> s1.win
(2, 1)
>>> (s1 * s1).win
(1, 2)
>>> length(simple(2, 0) * s1 * simple(2, 0))
3
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cartan import CartanA


@dataclass(frozen=True)
class ExtAffPerm:
    win: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "win", tuple(int(v) for v in self.win))
        m = len(self.win)
        if m < 2:
            raise ValueError("window must have length m >= 2")
        if len({v % m for v in self.win}) != m:
            raise ValueError(f"window residues not distinct: {self.win}")

    @property
    def m(self) -> int:
        return len(self.win)

    @property
    def shift(self) -> int:
        return sum(self.win) - self.m * (self.m + 1) // 2

    @property
    def sigma_class(self) -> int:
        """Dynkin rotation amount of the Sigma part."""
        return (self.shift // self.m) % self.m

    def apply(self, j: int) -> int:
        j0 = (j - 1) % self.m + 1
        return self.win[j0 - 1] + (j - j0)

    def __mul__(self, other: "ExtAffPerm") -> "ExtAffPerm":
        if self.m != other.m:
            raise ValueError("mismatched rank")
        return ExtAffPerm(tuple(self.apply(other.win[i]) for i in range(self.m)))

    def inverse(self) -> "ExtAffPerm":
        inv = [0] * self.m
        for i in range(1, self.m + 1):
            v = self.win[i - 1]
            v0 = (v - 1) % self.m + 1
            inv[v0 - 1] = i - (v - v0)
        return ExtAffPerm(tuple(inv))

    def __repr__(self):
        return f"ExtAffPerm({self.win})"


def identity(m: int) -> ExtAffPerm:
    return ExtAffPerm(tuple(range(1, m + 1)))


def simple(m: int, i: int) -> ExtAffPerm:
    """The simple reflection s_i, swapping residue classes i and i+1 (mod m)."""
    if not 0 <= i < m:
        raise IndexError(f"node {i} out of range for m = {m}")
    win = list(range(1, m + 1))
    if i == 0:
        win[0], win[m - 1] = 0, m + 1
    else:
        win[i - 1], win[i] = i + 1, i
    return ExtAffPerm(tuple(win))


def rot(m: int, k: int = 1) -> ExtAffPerm:
    """The window-shift generator pi^k of Sigma, i |-> i + k."""
    return ExtAffPerm(tuple(i + k for i in range(1, m + 1)))


def translation(c: CartanA, a) -> ExtAffPerm:
    """t_a for an integer vector a of length m: f(i) = i + m * a_i on the window."""
    a = tuple(int(v) for v in a)
    if len(a) != c.m:
        raise ValueError(f"translation vector must have length {c.m}")
    return ExtAffPerm(tuple(i + c.m * a[i - 1] for i in range(1, c.m + 1)))


def from_word(m: int, letters) -> ExtAffPerm:
    w = identity(m)
    for i in letters:
        w = w * simple(m, i)
    return w


def length(w: ExtAffPerm) -> int:
    """Coxeter length: inversions {(i, j) : 1 <= i <= m, i < j, f(i) > f(j)}.

    Invariant under the Sigma part, so this is the length of the W component.
    """
    m = w.m
    total = 0
    for p in range(1, m + 1):
        fp = w.win[p - 1]
        for q in range(1, m + 1):
            # positions j = q + t*m > p with f(p) > f(q) + t*m
            t0 = 1 if q <= p else 0
            d = fp - w.win[q - 1]
            total += max(0, (d - 1) // m - t0 + 1)
    return total


def reduce_to_weyl(w: ExtAffPerm) -> ExtAffPerm:
    """Normalize an element of W * center to the shift-zero representative."""
    s = w.shift // w.m
    if s % w.m != 0:
        raise ValueError(f"element has Sigma class {s % w.m}, not in W modulo center")
    j = s // w.m
    return ExtAffPerm(tuple(v - j * w.m for v in w.win))


def eq_mod_center(a: ExtAffPerm, b: ExtAffPerm) -> bool:
    d = a * b.inverse()
    offs = {d.win[i] - (i + 1) for i in range(d.m)}
    return len(offs) == 1 and next(iter(offs)) % d.m == 0


def factor_sigma(w: ExtAffPerm) -> tuple[ExtAffPerm, int]:
    """Factor w = y * pi^k modulo the center, y in W, k the rotation class."""
    m = w.m
    k = w.sigma_class
    y = reduce_to_weyl(w * rot(m, -k))
    if not eq_mod_center(y * rot(m, k), w):
        raise AssertionError("factor_sigma recomposition failed")
    return y, k


def left_descents(w: ExtAffPerm) -> list[int]:
    l = length(w)
    return [i for i in range(w.m) if length(simple(w.m, i) * w) < l]


def reduced_word(w: ExtAffPerm) -> tuple[int, ...]:
    """One reduced word, by greedy left-descent removal (smallest node first)."""
    w = reduce_to_weyl(w)
    letters = []
    l = length(w)
    while l > 0:
        for i in range(w.m):
            cand = simple(w.m, i) * w
            lc = length(cand)
            if lc < l:
                letters.append(i)
                w, l = cand, lc
                break
        else:
            raise AssertionError("no descent on an element of positive length")
    return tuple(letters)


def all_reduced_words(w: ExtAffPerm, cap: int = 10) -> frozenset[tuple[int, ...]]:
    """Every reduced word of w, by backtracking over left descents."""
    w = reduce_to_weyl(w)
    if length(w) > cap:
        raise ValueError(f"length {length(w)} exceeds cap {cap}")
    memo: dict[tuple[int, ...], frozenset] = {}

    def rec(u: ExtAffPerm) -> frozenset:
        if u.win in memo:
            return memo[u.win]
        if length(u) == 0:
            res = frozenset({()})
        else:
            res = frozenset(
                (i,) + tail
                for i in left_descents(u)
                for tail in rec(simple(u.m, i) * u)
            )
        memo[u.win] = res
        return res

    return rec(w)


@lru_cache(maxsize=None)
def _lower_interval(win: tuple[int, ...]) -> frozenset[ExtAffPerm]:
    y = ExtAffPerm(win)
    word = reduced_word(y)
    elems = {identity(y.m)}
    for i in word:
        si = simple(y.m, i)
        grow = set()
        for u in elems:
            v = u * si
            if length(v) > length(u):
                grow.add(v)
        elems |= grow
    return frozenset(elems)


def bruhat_lower_interval(y: ExtAffPerm) -> frozenset[ExtAffPerm]:
    """All w <= y in Bruhat order (subword products along a reduced word of y)."""
    return _lower_interval(reduce_to_weyl(y).win)


def bruhat_leq(w: ExtAffPerm, y: ExtAffPerm) -> bool:
    w = reduce_to_weyl(w)
    y = reduce_to_weyl(y)
    if length(w) > length(y):
        return False
    return w in bruhat_lower_interval(y)


def kr_translation_data(c: CartanA, r: int) -> tuple[ExtAffPerm, int]:
    """(y_r, tau_r) from the translation by the longest-element image of the
    r-th level-zero fundamental weight (integer lift: 1 in the last r slots).

    The sign of the lift is pinned by two requirements checked in the tests:
    tau_1 is the rotation j -> j + 1, and the closure of {b^{r,s}} under the
    lowering operators along y_r fills all of B^{r,s}.
    """
    c.check_classical(r)
    a = [0] * c.m
    for j in range(c.m - r, c.m):
        a[j] = 1
    return factor_sigma(translation(c, tuple(a)))
