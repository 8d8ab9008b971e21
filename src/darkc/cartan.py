"""Affine Cartan data of type A_n^(1).

Weights are integer vectors in the basis {Lambda_0, ..., Lambda_n, delta}: the
Lambda coefficients, then the delta coefficient as a numerator over the fixed
denominator 2m.  A classical weight is the plain int tuple of the m Lambda
coefficients of cl(Lambda_0), ..., cl(Lambda_n).  All arithmetic is exact;
nothing in this package touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import add, mul, neg, sub


@dataclass(frozen=True)
class CartanA:
    """Cartan datum of type A_n^(1).  Nodes are I = {0, ..., n}; m = n + 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"rank must be at least 1, got {self.n}")

    @property
    def m(self) -> int:
        return self.n + 1

    @property
    def nodes(self) -> range:
        return range(self.n + 1)

    @property
    def classical_nodes(self) -> range:
        """I_0, the nodes without the affine node 0."""
        return range(1, self.n + 1)

    @cached_property
    def d_numerators(self) -> tuple[int, ...]:
        """j(m-j) = -2m <d, Lambda_j> for each node j, in the normalization
        <d, Lambda_0> = 0."""
        return tuple(j * (self.m - j) for j in self.nodes)

    def a(self, i: int, j: int) -> int:
        """Cartan matrix entry a_ij.  Cyclic adjacency; a_01 = a_10 = -2 for n = 1."""
        self.check_node(i)
        self.check_node(j)
        if i == j:
            return 2
        d = (i - j) % self.m
        return -int(d == 1) - int(d == self.m - 1)

    def check_node(self, i: int) -> None:
        if not 0 <= i <= self.n:
            raise IndexError(f"node {i} out of range for rank {self.n}")

    def check_classical(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"classical node {i} out of range for rank {self.n}")


class AffineWeight(tuple):
    """Element sum_i lam[i]*Lambda_i + dlt*delta of the affine weight space,
    stored as the integer vector (lam[0], ..., lam[n], d) with d = 2m*dlt, since
    every delta coefficient in use lies in (1/2m)Z.  Hashing, equality and order
    are the tuple's; tuple order on (lam, d) is the order on (lam, dlt).
    Arithmetic is elementwise; the Fraction dlt is built only when it is read."""

    __slots__ = ()

    def __new__(cls, lam, dlt=0):
        lam = tuple(map(int, lam))
        d = Fraction(dlt) * (2 * len(lam))
        if d.denominator != 1:
            raise ValueError(f"delta coefficient {dlt} is not in (1/{2 * len(lam)})Z")
        return tuple.__new__(cls, lam + (int(d),))

    def __getnewargs__(self):
        return self.lam, self.dlt

    @property
    def lam(self) -> tuple[int, ...]:
        return self[:-1]

    @property
    def dlt(self) -> Fraction:
        return Fraction(self[-1], 2 * self.m)

    @property
    def m(self) -> int:
        return len(self) - 1

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        if len(self) != len(other):
            raise ValueError("weights of different rank")
        return _vec(map(add, self, other))

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        if len(self) != len(other):
            raise ValueError("weights of different rank")
        return _vec(map(sub, self, other))

    def __neg__(self) -> "AffineWeight":
        return _vec(map(neg, self))

    def __mul__(self, k: int) -> "AffineWeight":
        return _vec([k * a for a in self])

    __rmul__ = __mul__

    def __repr__(self):
        return f"AffineWeight({self.lam}, {self.dlt})"


# An AffineWeight from its integer vector (lam..., d), without validation.
_vec = partial(tuple.__new__, AffineWeight)


@lru_cache(maxsize=None)
def simple_root(c: CartanA, i: int) -> AffineWeight:
    """alpha_i.  Lambda coefficients are the i-th Cartan column; the delta
    coefficient is the uniform 1/m (d = 2), so that sum_i alpha_i = delta."""
    c.check_node(i)
    return _vec([c.a(j, i) for j in range(c.m)] + [2])


def cl_simple_root(c: CartanA, i: int) -> tuple[int, ...]:
    """cl(alpha_i): the delta coefficient is dropped."""
    return simple_root(c, i).lam


def reflect(c: CartanA, i: int, mu: AffineWeight) -> AffineWeight:
    """Simple reflection s_i(mu) = mu - <alpha_i_check, mu> alpha_i."""
    c.check_node(i)
    return mu - mu[i] * simple_root(c, i)


def rotate(c: CartanA, k: int, mu):
    """Dynkin rotation j -> j + k (mod m) on Lambda coefficients; fixes delta.

    Accepts an AffineWeight (m + 1 entries) or a classical weight (m entries).
    """
    cut = c.m - k % c.m
    if len(mu) == c.m:
        return mu[cut:] + mu[:cut]
    return _vec(mu[cut:-1] + mu[:cut] + mu[-1:])


def aff_level_zero(c: CartanA, mu: tuple[int, ...]) -> AffineWeight:
    """Section of cl on level-zero classical weights, normalized by
    <d, aff(mu)> = 0."""
    level = sum(mu)
    if level != 0:
        raise ValueError(f"aff is only defined on level-zero weights, level = {level}")
    return _vec(mu + (sum(map(mul, mu, c.d_numerators)),))


def weight_to_json(mu: AffineWeight) -> dict:
    return {"lam": list(mu.lam), "delta": str(mu.dlt)}
