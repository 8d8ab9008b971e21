"""Affine Cartan data of type A_n^(1).

Weights are stored in the basis {Lambda_0, ..., Lambda_n, delta}: integer
Lambda coefficients plus an exact rational delta coefficient.  All arithmetic
is exact; nothing in this package touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub


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


@dataclass(frozen=True)
class AffineWeight:
    """Element sum_i lam[i]*Lambda_i + dlt*delta of the affine weight space."""

    lam: tuple[int, ...]
    dlt: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(int(v) for v in self.lam))
        object.__setattr__(self, "dlt", Fraction(self.dlt))

    @property
    def m(self) -> int:
        return len(self.lam)

    @property
    def level(self) -> int:
        return sum(self.lam)

    def coroot_pair(self, i: int) -> int:
        """<alpha_i_check, mu>, which is just the i-th Lambda coefficient."""
        return self.lam[i]

    def _check_compatible(self, other: "AffineWeight") -> None:
        if len(self.lam) != len(other.lam):
            raise ValueError("weights of different rank")

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        self._check_compatible(other)
        return AffineWeight(tuple(a + b for a, b in zip(self.lam, other.lam)),
                            self.dlt + other.dlt)

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        self._check_compatible(other)
        return AffineWeight(tuple(a - b for a, b in zip(self.lam, other.lam)),
                            self.dlt - other.dlt)

    def __neg__(self) -> "AffineWeight":
        return AffineWeight(tuple(-a for a in self.lam), -self.dlt)

    def __mul__(self, k: int) -> "AffineWeight":
        return AffineWeight(tuple(k * a for a in self.lam), k * self.dlt)

    __rmul__ = __mul__

    def sort_key(self):
        return (self.lam, self.dlt)

    def __repr__(self):
        return f"AffineWeight({self.lam}, {self.dlt})"


@dataclass(frozen=True, slots=True)
class ClWeight:
    """Classical weight: integer coefficients of cl(Lambda_0), ..., cl(Lambda_n)."""

    lam: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(map(int, self.lam)))

    @property
    def m(self) -> int:
        return len(self.lam)

    @property
    def level(self) -> int:
        return sum(self.lam)

    def coroot_pair(self, i: int) -> int:
        return self.lam[i]

    def __add__(self, other: "ClWeight") -> "ClWeight":
        if len(self.lam) != len(other.lam):
            raise ValueError("weights of different rank")
        return ClWeight(tuple(map(add, self.lam, other.lam)))

    def __sub__(self, other: "ClWeight") -> "ClWeight":
        if len(self.lam) != len(other.lam):
            raise ValueError("weights of different rank")
        return ClWeight(tuple(map(sub, self.lam, other.lam)))

    def __repr__(self):
        return f"ClWeight({self.lam})"


def zero_weight(c: CartanA) -> AffineWeight:
    return AffineWeight((0,) * c.m)

def fundamental_weight(c: CartanA, i: int) -> AffineWeight:
    """Lambda_i."""
    c.check_node(i)
    return AffineWeight(tuple(int(j == i) for j in range(c.m)))

def delta_weight(c: CartanA) -> AffineWeight:
    """The null root delta = (0, ..., 0; 1)."""
    return AffineWeight((0,) * c.m, Fraction(1))

@lru_cache(maxsize=None)
def cl_simple_root(c: CartanA, i: int) -> ClWeight:
    """cl(alpha_i): the delta coefficient is dropped."""
    c.check_node(i)
    return ClWeight(tuple(c.a(j, i) for j in range(c.m)))


@lru_cache(maxsize=None)
def simple_root(c: CartanA, i: int) -> AffineWeight:
    """alpha_i.  Lambda coefficients are the i-th Cartan column; the delta
    coefficient is the uniform 1/m, so that sum_i alpha_i = delta exactly."""
    c.check_node(i)
    return AffineWeight(tuple(c.a(j, i) for j in range(c.m)), Fraction(1, c.m))


def reflect(c: CartanA, i: int, mu: AffineWeight) -> AffineWeight:
    """Simple reflection s_i(mu) = mu - <alpha_i_check, mu> alpha_i."""
    c.check_node(i)
    return mu - mu.lam[i] * simple_root(c, i)


def rotate(c: CartanA, k: int, mu):
    """Dynkin rotation j -> j + k (mod m) on Lambda coefficients; fixes delta.

    Accepts either an AffineWeight or a ClWeight.
    """
    m = c.m
    k %= m
    new = [0] * m
    for j in range(m):
        new[(j + k) % m] = mu.lam[j]
    if isinstance(mu, ClWeight):
        return ClWeight(tuple(new))
    return AffineWeight(tuple(new), mu.dlt)


def d_coeff(c: CartanA, j: int) -> Fraction:
    """<d, Lambda_j> in the normalization <d, Lambda_0> = 0.

    Solving sum_j a_ji x_j = delta_i0 - 1/m together with x_0 = 0 gives the
    closed form x_j = -j(m-j)/(2m); the test suite re-derives it from the
    linear system.
    """
    c.check_node(j)
    m = c.m
    return Fraction(-j * (m - j), 2 * m)


def d_pair(c: CartanA, mu: AffineWeight) -> Fraction:
    """<d, mu> = sum_j lam[j] <d, Lambda_j> + dlt (type A has <d, delta> = 1)."""
    return sum((mu.lam[j] * d_coeff(c, j) for j in range(c.m)), Fraction(0)) + mu.dlt


def aff_level_zero(c: CartanA, mu: ClWeight) -> AffineWeight:
    """Section of cl on level-zero weights, normalized by <d, aff(mu)> = 0."""
    if mu.level != 0:
        raise ValueError(f"aff is only defined on level-zero weights, level = {mu.level}")
    m = c.m
    # -sum_j lam[j] d_coeff(c, j) over the common denominator 2m, one Fraction
    return AffineWeight(mu.lam, Fraction(sum(v * j * (m - j) for j, v in enumerate(mu.lam)),
                                         2 * m))


def weight_to_json(mu: AffineWeight) -> dict:
    return {"lam": list(mu.lam), "delta": str(mu.dlt)}


def weight_from_json(obj: dict) -> AffineWeight:
    return AffineWeight(tuple(obj["lam"]), Fraction(obj["delta"]))
