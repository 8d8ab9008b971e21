"""The group ring of the affine weight lattice and Demazure operators on it.

A CharPoly is a finitely supported integer combination of formal exponentials
e^mu keyed by AffineWeight integer vectors, so all of its arithmetic is on
integers; a Fraction is built only to print a delta coefficient or the fitted
C.  The Demazure operator D_i is evaluated monomial by monomial through the
geometric-series form of (f - e^{-alpha_i} s_i(f)) / (1 - e^{-alpha_i}); the
test suite cross-checks this against literal polynomial division.

Every D_i runs in one kernel, _Packing.demazure, on one packed int key per
monomial: a fixed-width digit per coordinate, sized so that no digit carries,
and a guard that raises rather than return a result that could have carried.
rhs_formula never rotates a term: the rotations of the nested formula are
folded into the letters and the Lambda_0 shifts (see its docstring).  Both
sides of the identity are packed at the width of lam_1, and the fit compares keys.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import chain
from operator import lshift

from .cartan import AffineWeight, CartanA, _vec, rotate, simple_root, weight_to_json


class CharPoly:
    """Finitely supported map AffineWeight -> int; zero coefficients dropped.
    One made by _Packing.poly keeps only its packed keys until `terms` is read."""

    __slots__ = ("terms", "_packed")

    def __init__(self, terms=None):
        if not isinstance(terms, dict):
            data: dict[AffineWeight, int] = {}
            for mu, coef in terms or ():
                data[mu] = data.get(mu, 0) + coef
            terms = data
        self.terms = {mu: coef for mu, coef in terms.items() if coef}

    def __getattr__(self, name):
        if name != "terms":
            raise AttributeError(name)
        self.terms = _Packing.unpacked(*self._packed)
        del self._packed
        return self.terms

    def __reduce__(self):
        return CharPoly, (self.terms,)

    def __len__(self):
        packed = getattr(self, "_packed", None)
        return len(self.terms if packed is None else packed[1])

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


# The narrowest digit of a packed weight, in bits (see _Packing).
DIGIT_BITS = 32

_STRUCT_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


class _Packing:
    """Affine weights of one rank as ints, and the Demazure operator on them.

    Coordinate t of (lam_0, ..., lam_n, d) is digit t, `bits` wide, holding
    the value plus 2^(bits-1): a key is signs + key(mu), key being linear.
    So <alpha_i_check, mu> is one shift and mask, mu - alpha_i is one
    subtraction of the packed alpha_i, and a key XOR the sign bits is the
    two's-complement byte string of the vector, which one struct unpack reads.
    Keys order as their vectors do, read from the delta coordinate down.

    No digit may carry.  `bound` caps every coordinate of every key built so
    far.  D_i moves a coordinate of mu by at most 2|<alpha_i_check, mu>|, so
    each operator adds twice its largest |pairing| to the bound, and raises
    OverflowError instead of returning once the bound leaves the digit's
    range.  The width is the narrowest of DIGIT_BITS, 2*DIGIT_BITS, ... with
    the first bound (lam_1 for both sides) below 2^(bits/2); the bound must
    then grow by over 2^30 before the guard trips, which takes over 10^8
    additions.  Keys built by other means are checked with `cover` first."""

    def __init__(self, c: CartanA, bound: int):
        bits = DIGIT_BITS
        while abs(bound) >> bits // 2:
            bits *= 2
        self.bits, self.half, self.bound = bits, 1 << bits - 1, bound
        self.mask = (1 << bits) - 1
        self.lams, self.delta = (1 << bits * c.m) - 1, 2 * c.m << bits * c.m  # Lambdas, delta
        self.size = (c.m + 1) * bits // 8
        self.shifts = range(0, (c.m + 1) * bits, bits)
        self.signs = sum(self.half << t for t in self.shifts)
        self.alpha = [self.key(simple_root(c, i)) for i in c.nodes]
        code = _STRUCT_CODES.get(bits)
        if code:
            self.unpack = struct.Struct(f"<{c.m + 1}{code}").unpack
        else:
            step = bits // 8
            self.unpack = lambda raw: [int.from_bytes(raw[t:t + step], "little", signed=True)
                                       for t in range(0, self.size, step)]

    def key(self, mu) -> int:
        return sum(map(lshift, mu, self.shifts))

    def cover(self, bound: int) -> None:
        """Raise unless every coordinate within `bound` of 0 fits a digit."""
        if bound >= self.half:
            raise OverflowError(f"a weight coordinate may exceed the {self.bits}-bit digit")

    def shifted(self, terms: dict, i: int, step: int) -> dict:
        """Multiply by e^{step Lambda_i}; the caller's bound covers step."""
        by = step << self.bits * i
        return {key + by: coef for key, coef in terms.items()}

    def demazure(self, i: int, terms: dict) -> dict:
        """D_i on {key: coef}.  With k = <alpha_i_check, mu>:
        k >= 0 gives the sum of e^{mu - t alpha_i} for t = 0..k;
        k = -1 kills the monomial;
        k <= -2 gives minus the sum of e^{mu + t alpha_i} for t = 1..-k-1.
        A coefficient that cancels to 0 stays until `poly` drops it."""
        shift, mask, half, a = self.bits * i, self.mask, self.half, self.alpha[i]
        out: dict[int, int] = {}
        get = out.get
        top = 0
        for key, coef in terms.items():
            k = (key >> shift & mask) - half
            if k >= 0:
                out[key] = get(key, 0) + coef
                if k > top:
                    top = k
                while k:
                    key -= a
                    out[key] = get(key, 0) + coef
                    k -= 1
            elif k < -1:
                if -k > top:
                    top = -k
                k = -k - 1
                while k:
                    key += a
                    out[key] = get(key, 0) - coef
                    k -= 1
        self.bound += 2 * top
        self.cover(self.bound)
        return out

    def poly(self, terms: dict) -> CharPoly:
        """The CharPoly of the nonzero terms, unpacked when first read."""
        f = CharPoly.__new__(CharPoly)
        f._packed = self, {key: coef for key, coef in terms.items() if coef}
        return f

    def unpacked(self, terms: dict) -> dict:
        unpack, signs, size = self.unpack, self.signs, self.size
        return {_vec(unpack((key ^ signs).to_bytes(size, "little"))): coef
                for key, coef in terms.items()}


def demazure_op(c: CartanA, i: int, f: CharPoly) -> CharPoly:
    """D_i, evaluated on packed keys (see _Packing.demazure)."""
    return demazure_word(c, (i,), f)


def demazure_word(c: CartanA, word, f: CharPoly) -> CharPoly:
    """D along a letter sequence, rightmost letter applied first."""
    word = tuple(word)
    for i in word:
        c.check_node(i)
    keys = _Packing(c, max(map(abs, chain.from_iterable(f.terms)), default=0))
    terms = {keys.signs + keys.key(mu): coef for mu, coef in f.terms.items()}
    for i in reversed(word):
        terms = keys.demazure(i, terms)
    return keys.poly(terms)


def sigma_act(c: CartanA, k: int, f: CharPoly) -> CharPoly:
    """Ring automorphism rotating every exponent by the Dynkin rotation k."""
    return CharPoly({rotate(c, k, mu): coef for mu, coef in f.terms.items()})


def rhs_formula(c: CartanA, lam, words, taus) -> CharPoly:
    """Nested Demazure-operator character: with lam^j = lam_j - lam_{j+1},
    g_p = D_{w_p} tau_p(e^{lam^p Lambda_0}) and
    g_j = D_{w_j} tau_j(e^{lam^j Lambda_0} * g_{j+1}); returns g_1.

    No term is ever rotated.  The rotations are ring automorphisms with
    sigma_k D_i = D_{i+k} sigma_k (criterion 6) and sigma_k(e^mu f) =
    e^{sigma_k mu} sigma_k(f), so every sigma moves right past the operators
    inside it, to act on the innermost 1, which it fixes.  With
    K_j = tau_1 + ... + tau_j, level j then applies its letters i as
    D_{i + K_{j-1}} and its shift as e^{lam^j Lambda_{K_j}}, all on one
    packed dict (see _Packing): the final keys unpack straight into g_1.
    The shifts add up to lam_1, which sizes the digits."""
    lam = tuple(int(v) for v in lam)
    words = tuple(tuple(w) for w in words)
    taus = tuple(int(t) for t in taus)
    p = len(lam)
    if len(words) != p or len(taus) != p:
        raise ValueError("lambda, words and taus must have equal length")
    if any(lam[j] < lam[j + 1] for j in range(p - 1)) or (p and lam[-1] < 0):
        raise ValueError("lambda must be weakly decreasing and nonnegative")
    for i in chain.from_iterable(words):
        c.check_node(i)
    packing = _Packing(c, lam[0] if p else 0)
    terms = {packing.signs: 1}
    turn = sum(taus)
    for j in range(p - 1, -1, -1):
        step = lam[j] - (lam[j + 1] if j + 1 < p else 0)
        terms = packing.shifted(terms, turn % c.m, step)
        turn -= taus[j]
        for i in reversed(words[j]):
            terms = packing.demazure((i + turn) % c.m, terms)
    return packing.poly(terms)


def fit_delta_shift(lhs: CharPoly, rhs: CharPoly):
    """Find the rational C with lhs * e^{C delta} = rhs; (ok, C), C None on
    mismatch.  Both sides are CharPolys of _Packing.poly not yet read, packed
    at one width.  Keys keep their order under a delta-translate, so the
    lowest keys fix the shift."""
    (keys, lhs), (other, rhs) = lhs._packed, rhs._packed
    if other.signs != keys.signs:
        raise ValueError("the two sides are packed at different widths")
    by = min(rhs, default=0) - min(lhs, default=0)
    # the shift moves no Lambda digit, and equal sizes make a match injective
    if len(rhs) != len(lhs) or by & keys.lams or any(
            rhs.get(key + by) != coef for key, coef in lhs.items()):
        return False, None
    return True, Fraction(by, keys.delta)
