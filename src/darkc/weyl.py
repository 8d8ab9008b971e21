"""Extended affine Weyl group of type A_n^(1) as periodic permutations.

An element is a bijection f of the integers with f(i + m) = f(i) + m, stored
by its window [f(1), ..., f(m)].  The window sum minus m(m+1)/2 (the shift)
is always a multiple of m; shift/m mod m is the Dynkin rotation class of the
element, and the non-extended group W is the shift-zero part after reduction
modulo the central translation t_(1,...,1).

>>> s0, s1 = from_word(2, (0,)), from_word(2, (1,))
>>> s1.win
(2, 1)
>>> (s1 * s1).win
(1, 2)
>>> length(s0 * s1 * s0)
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


def _times_simple(win: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The window of w * s_i from the window of w: swap f(i) and f(i+1), where
    f(0) = f(m) - m and f(m + 1) = f(1) + m."""
    if i:
        return win[:i - 1] + (win[i], win[i - 1]) + win[i + 1:]
    m = len(win)
    return (win[-1] - m,) + win[1:-1] + (win[0] + m,)


def _descent(win: tuple[int, ...], i: int) -> bool:
    """w * s_i < w, read off the window of w as f(i) > f(i+1), f(0) = f(m) - m
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.3)."""
    return win[i - 1] - (0 if i else len(win)) > win[i]


def _descents(win: tuple[int, ...]) -> list[int]:
    return [i for i in range(len(win)) if _descent(win, i)]


def _word_window(m: int, letters) -> tuple[tuple[int, ...], bool]:
    """The window of the product of the letters, and whether the word is
    reduced: it is exactly when every letter is a right ascent of the product
    of the letters before it."""
    if m < 2:
        raise ValueError("window must have length m >= 2")
    win, reduced = tuple(range(1, m + 1)), True
    for i in letters:
        if not 0 <= i < m:
            raise IndexError(f"node {i} out of range for m = {m}")
        reduced = reduced and not _descent(win, i)
        win = _times_simple(win, i)
    return win, reduced


def from_word(m: int, letters) -> ExtAffPerm:
    return ExtAffPerm(_word_window(m, letters)[0])


def from_reduced_word(m: int, letters) -> ExtAffPerm | None:
    """The product of the letters when the word is reduced, else None."""
    win, reduced = _word_window(m, letters)
    return ExtAffPerm(win) if reduced else None


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
    return ExtAffPerm(tuple(v - j * w.m for v in w.win)) if j else w


def reduced_word(w: ExtAffPerm) -> tuple[int, ...]:
    """One reduced word, by greedy left-descent removal (smallest node first),
    run on the inverse window: s_i * w has the inverse window of w^-1 * s_i."""
    inv = reduce_to_weyl(w).inverse().win
    letters = []
    while descents := _descents(inv):
        letters.append(descents[0])
        inv = _times_simple(inv, descents[0])
    return tuple(letters)


def all_reduced_words(w: ExtAffPerm, cap: int = 10) -> frozenset[tuple[int, ...]]:
    """Every reduced word of w, by backtracking over left descents."""
    w = reduce_to_weyl(w)
    if length(w) > cap:
        raise ValueError(f"length {length(w)} exceeds cap {cap}")
    memo: dict[tuple[int, ...], frozenset] = {}

    def rec(inv: tuple[int, ...]) -> frozenset:
        if inv not in memo:
            words = {(i,) + tail for i in _descents(inv) for tail in rec(_times_simple(inv, i))}
            memo[inv] = frozenset(words or {()})  # no descent: the identity
        return memo[inv]

    return rec(w.inverse().win)


@lru_cache(maxsize=None)
def _lower_interval(win: tuple[int, ...]) -> frozenset[ExtAffPerm]:
    elems = {identity(len(win)).win}
    for i in reduced_word(ExtAffPerm(win)):
        elems |= {_times_simple(u, i) for u in elems if not _descent(u, i)}
    return frozenset(map(ExtAffPerm, elems))


def bruhat_lower_interval(y: ExtAffPerm) -> frozenset[ExtAffPerm]:
    """All w <= y in Bruhat order (subword products along a reduced word of y)."""
    return _lower_interval(reduce_to_weyl(y).win)


def kr_translation_data(c: CartanA, r: int) -> tuple[ExtAffPerm, int]:
    """(y_r, tau_r): the factorization y_r * pi^tau_r, modulo the center, of
    the translation by the longest-element image of the r-th level-zero
    fundamental weight (integer lift: 1 in the last r slots), in closed form:
    y_r has the window (m-r+1, ..., m, 1, ..., m-r) and tau_r = r.  The tests
    check it against a factorization of the translation itself
    (tests/oracles.py), and pin the sign of the lift: tau_1 is the rotation
    j -> j + 1, and the closure of {b^{r,s}} along y_r fills all of B^{r,s}."""
    c.check_classical(r)
    return ExtAffPerm(tuple(range(c.m - r + 1, c.m + 1)) + tuple(range(1, c.m - r + 1))), r
