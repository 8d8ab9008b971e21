"""Crystal elements, tensor products, and Demazure-style subset closures.

The distinguished zero of a crystal is represented by None: crystal operators
return None when they annihilate an element, and never raise.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add


class ModelConsistencyError(RuntimeError):
    """The combinatorial model produced contradictory data (a bug, not bad input)."""


class CrystalElt:
    """Interface for crystal elements.  Implementations are immutable and
    hashable, expose their Cartan datum as `cartan`, and provide the
    raising/lowering operators, the string lengths and a classical weight,
    the int tuple of its Lambda coefficients.
    They are kr.RectTableau, an element of an enumerated KR crystal, and
    TensorElt."""

    __slots__ = ()

    def e(self, i):
        raise NotImplementedError

    def f(self, i):
        raise NotImplementedError

    def stats(self, i) -> tuple[int, int]:
        """(eps_i, phi_i): how many times e_i and f_i apply."""
        raise NotImplementedError

    def clweight(self) -> tuple[int, ...]:
        raise NotImplementedError

    def sort_key(self):
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError


# eps, phi and TensorElt.e/f keep no cache keyed by element (maxsize=0): on a
# KR crystal each is an array read, on a tensor one pass of the signature
# rule over such reads, and such a cache would keep every element alive.
# cache_info() still reports the entry count, 0, to callers that read it.
@lru_cache(maxsize=0)
def eps(b: CrystalElt, i: int) -> int:
    """epsilon_i(b): how many times e_i applies."""
    return b.stats(i)[0]


@lru_cache(maxsize=0)
def phi(b: CrystalElt, i: int) -> int:
    """phi_i(b): how many times f_i applies."""
    return b.stats(i)[1]


def signature_rule(pairs) -> tuple[int, int, int | None, int | None]:
    """Kashiwara's signature rule on one node over the factors' (eps_i, phi_i)
    pairs: factor by factor, eps_i signs '-' then phi_i signs '+', where a '+'
    cancels a later '-'.  Folded left to right, it returns (eps_i, phi_i, the
    factor of the rightmost uncancelled '-', the factor of the leftmost
    uncancelled '+'); a factor is None when no such sign is left.  TensorElt
    passes its factors' stats(i); the integer codes of `dark.Codes` pass reads
    of their tables' stats[i] arrays."""
    ep = ph = k = 0
    up = down = None
    for eb, pb in pairs:
        if eb > ph:
            ep += eb - ph
            up = k
            ph = pb
            down = k if pb else None
        elif eb == ph:
            ph = pb
            down = k if pb else None
        else:
            ph += pb - eb
        k += 1
    return ep, ph, up, down


class TensorElt(CrystalElt):
    """Ordered tensor product element; factors share one Cartan datum.
    Factors may themselves be tensor elements."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("empty tensor")
        # identity first: the factors of one KR table, and so of most
        # tensors, share one CartanA object (kr._table)
        c = factors[0].cartan
        for b in factors:
            if b.cartan is not c and b.cartan != c:
                raise ValueError("tensor factors with mismatched Cartan data")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElt is immutable")

    def __reduce__(self):
        return TensorElt, (self.factors,)

    def __eq__(self, other):
        if type(other) is not TensorElt:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"TensorElt(factors={self.factors!r})"

    @property
    def cartan(self):
        return self.factors[0].cartan

    def stats(self, i) -> tuple[int, int]:
        return signature_rule([b.stats(i) for b in self.factors])[:2]

    @lru_cache(maxsize=0)
    def e(self, i):
        idx = signature_rule([b.stats(i) for b in self.factors])[2]
        if idx is None:
            return None
        b = self.factors[idx].e(i)
        if b is None:
            raise ModelConsistencyError("tensor rule chose a dead factor for e")
        return TensorElt(self.factors[:idx] + (b,) + self.factors[idx + 1:])

    @lru_cache(maxsize=0)
    def f(self, i):
        idx = signature_rule([b.stats(i) for b in self.factors])[3]
        if idx is None:
            return None
        b = self.factors[idx].f(i)
        if b is None:
            raise ModelConsistencyError("tensor rule chose a dead factor for f")
        return TensorElt(self.factors[:idx] + (b,) + self.factors[idx + 1:])

    def clweight(self) -> tuple[int, ...]:
        w = self.factors[0].clweight()
        for b in self.factors[1:]:
            w = tuple(map(add, w, b.clweight()))
        return w

    def sort_key(self):
        return tuple(b.sort_key() for b in self.factors)

    def text(self) -> str:
        return "|".join(b.text() for b in self.factors)


def f_closure(i: int, elements) -> set:
    """F_i S: saturate a set downward along the i-strings."""
    out = set(elements)
    frontier = list(out)
    while frontier:
        nxt = []
        for b in frontier:
            c = b.f(i)
            if c is not None and c not in out:
                out.add(c)
                nxt.append(c)
        frontier = nxt
    return out


def demazure_closure(word, elements) -> set:
    """F along a letter sequence, innermost letter last: F_{i_1}(... F_{i_k}(S))."""
    out = set(elements)
    for i in reversed(tuple(word)):
        out = f_closure(i, out)
    return out


def classical_highest_path(x: CrystalElt) -> tuple[CrystalElt, tuple[int, ...]]:
    """Raise along classical nodes (smallest applicable index first) until no
    e_i applies; returns the classical highest element and the index word."""
    word = []
    cur = x
    while True:
        for i in cur.cartan.classical_nodes:
            nxt = cur.e(i)
            if nxt is not None:
                word.append(i)
                cur = nxt
                break
        else:
            return cur, tuple(word)


def crystal_edges(elements):
    """Edges (src, dst, i) of the crystal graph restricted to a set, with
    nodes in canonical order.  Returns (sorted nodes, edges)."""
    nodes = sorted(elements, key=lambda b: b.sort_key())
    index = {b: k for k, b in enumerate(nodes)}
    edges = []
    for b in nodes:
        for i in b.cartan.nodes:
            c = b.f(i)
            if c is not None and c in index:
                edges.append((index[b], index[c], i))
    edges.sort()
    return nodes, edges


def graph_dot(elements) -> str:
    nodes, edges = crystal_edges(elements)
    lines = ["digraph crystal {", "  rankdir=LR;"]
    lines.extend(f'  {k} [label="{b.text()}"];' for k, b in enumerate(nodes))
    lines.extend(f'  {s} -> {d} [label="{i}"];' for s, d, i in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(elements) -> dict:
    nodes, edges = crystal_edges(elements)
    return {
        "nodes": [b.text() for b in nodes],
        "edges": [{"src": s, "dst": d, "i": i} for s, d, i in edges],
    }
