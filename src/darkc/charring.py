"""The group ring of the affine weight lattice and Demazure operators on it.

A CharPoly is a finitely supported integer combination of formal exponentials
e^mu keyed by AffineWeight integer vectors, so all of its arithmetic is on
integers; a Fraction is built only to print a delta coefficient or the fitted
C.  The Demazure operator D_i is evaluated monomial by monomial through the
geometric-series form of (f - e^{-alpha_i} s_i(f)) / (1 - e^{-alpha_i}); the
test suite cross-checks this against literal polynomial division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add

from .cartan import (AffineWeight, CartanA, _vec, fundamental_weight, rotate,
                     simple_root, weight_from_json, weight_to_json, zero_weight)


class CharPoly:
    """Finitely supported map AffineWeight -> int; zero coefficients dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if not isinstance(terms, dict):
            data: dict[AffineWeight, int] = {}
            for mu, coef in terms or ():
                data[mu] = data.get(mu, 0) + coef
            terms = data
        self.terms = {mu: coef for mu, coef in terms.items() if coef}

    @classmethod
    def monomial(cls, mu: AffineWeight, coef: int = 1) -> "CharPoly":
        return cls({mu: coef})

    @classmethod
    def zero(cls) -> "CharPoly":
        return cls()

    @classmethod
    def one(cls, c: CartanA) -> "CharPoly":
        return cls.monomial(zero_weight(c))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, CharPoly) and self.terms == other.terms

    def __add__(self, other: "CharPoly") -> "CharPoly":
        return CharPoly(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return CharPoly({mu: other * c for mu, c in self.terms.items()})
        return CharPoly((mu + nu, a * b) for mu, a in self.terms.items()
                        for nu, b in other.terms.items())

    __rmul__ = __mul__

    def shifted(self, mu: AffineWeight) -> "CharPoly":
        """Multiply by e^mu."""
        return CharPoly({nu + mu: c for nu, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[AffineWeight, int]]:
        return sorted(self.terms.items())

    def __repr__(self):
        inner = " + ".join(f"{c}*e^({mu.lam}; {mu.dlt})"
                           for mu, c in self.sorted_terms())
        return f"CharPoly({inner or '0'})"


def char_to_json(f: CharPoly) -> list[dict]:
    return [{**weight_to_json(mu), "coef": coef} for mu, coef in f.sorted_terms()]


def char_from_json(items) -> CharPoly:
    return CharPoly([(weight_from_json(obj), obj["coef"]) for obj in items])


def demazure_op(c: CartanA, i: int, f: CharPoly) -> CharPoly:
    """D_i, monomial by monomial.  With k = <alpha_i_check, mu>:
    k >= 0 gives the sum of e^{mu - t alpha_i} for t = 0..k;
    k = -1 kills the monomial;
    k <= -2 gives minus the sum of e^{mu + t alpha_i} for t = 1..-k-1."""
    alpha = simple_root(c, i)
    out: dict[AffineWeight, int] = {}
    for mu, coef in f.terms.items():
        k = mu[i]
        if k >= 0:
            step, count = -alpha, k + 1
        elif k <= -2:
            mu, step, count, coef = mu + alpha, alpha, -k - 1, -coef
        else:
            continue
        for _ in range(count):
            out[mu] = out.get(mu, 0) + coef
            mu = _vec(map(add, mu, step))
    return CharPoly(out)


def demazure_word(c: CartanA, word, f: CharPoly) -> CharPoly:
    """D along a letter sequence, rightmost letter applied first."""
    for i in reversed(tuple(word)):
        f = demazure_op(c, i, f)
    return f


def sigma_act(c: CartanA, k: int, f: CharPoly) -> CharPoly:
    """Ring automorphism rotating every exponent by the Dynkin rotation k."""
    return CharPoly({rotate(c, k, mu): coef for mu, coef in f.terms.items()})


def rhs_formula(c: CartanA, lam, words, taus) -> CharPoly:
    """Nested Demazure-operator character: with lam^j = lam_j - lam_{j+1},
    g_p = D_{w_p} tau_p(e^{lam^p Lambda_0}) and
    g_j = D_{w_j} tau_j(e^{lam^j Lambda_0} * g_{j+1}); returns g_1."""
    lam = tuple(int(v) for v in lam)
    words = tuple(tuple(w) for w in words)
    taus = tuple(int(t) for t in taus)
    p = len(lam)
    if len(words) != p or len(taus) != p:
        raise ValueError("lambda, words and taus must have equal length")
    if any(lam[j] < lam[j + 1] for j in range(p - 1)) or (p and lam[-1] < 0):
        raise ValueError("lambda must be weakly decreasing and nonnegative")
    lambda0 = fundamental_weight(c, 0)
    g = CharPoly.one(c)
    for j in range(p - 1, -1, -1):
        step = lam[j] - (lam[j + 1] if j + 1 < p else 0)
        g = demazure_word(c, words[j],
                          sigma_act(c, taus[j], g.shifted(step * lambda0)))
    return g


def fit_delta_shift(lhs: CharPoly, rhs: CharPoly):
    """Find the rational C with lhs * e^{C delta} = rhs, matching terms by
    Lambda coordinates.  Returns (ok, C); C is None on structural mismatch.
    The lowest terms fix the shift, an integer multiple of delta / 2m."""
    if len(lhs) != len(rhs):
        return False, None
    if not lhs:
        return True, Fraction(0)
    by = min(rhs.terms) - min(lhs.terms)
    if any(by.lam) or lhs.shifted(by) != rhs:
        return False, None
    return True, by.dlt
