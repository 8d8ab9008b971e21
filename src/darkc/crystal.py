"""Crystal elements, tensor products, and Demazure-style subset closures.

A tensor product of KR crystals is held two ways, one for each job:

- `TensorElt` objects serve the boundary (parsing, printing, export labels)
  and the oracles;
- `ProductTable`, the two-factor product B_1 (x) P of the first table and
  the product of the rest, where an element is one int, its position (its
  code) x = a*len(P) + c in canonical order for B_1[a] (x) P[c].  It gives
  Kashiwara's rule for two factors per position, for the energy tables and
  the exports; per i-string, for the closures of `dark.build`; and as arrays
  over all positions, for whole-product checks (selftest criteria 1, 2 and
  8) and the energy oracle.  A large P is read row by row as a set reaches
  it, so a sparse set does not pay for the whole product.

The distinguished zero of a crystal is None for an element object and -1 for
a code, in the steps and the arrays alike: crystal operators return it when
they annihilate an element, and never raise.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from operator import add, getitem


class ModelConsistencyError(RuntimeError):
    """The combinatorial model produced contradictory data (a bug, not bad input)."""


def _dead(side: str) -> ModelConsistencyError:
    return ModelConsistencyError(f"tensor rule chose a dead factor for {side}")


# eps, phi and TensorElt.e/f keep no cache keyed by element (maxsize=0): on a
# KR crystal each is an array read, on a tensor one pass of the signature
# rule over such reads, and such a cache would keep every element alive.
# cache_info() still reports the entry count, 0, to callers that read it.
@lru_cache(maxsize=0)
def eps(b, i: int) -> int:
    """epsilon_i(b): how many times e_i applies."""
    return b.stats(i)[0]


@lru_cache(maxsize=0)
def phi(b, i: int) -> int:
    """phi_i(b): how many times f_i applies."""
    return b.stats(i)[1]


def signature_rule(pairs) -> tuple[int, int, int | None, int | None]:
    """Kashiwara's signature rule on one node over the factors' (eps_i, phi_i)
    pairs: factor by factor, eps_i signs '-' then phi_i signs '+', where a '+'
    cancels a later '-'.  Folded left to right, it returns (eps_i, phi_i, the
    factor of the rightmost uncancelled '-', the factor of the leftmost
    uncancelled '+'); a factor is None when no such sign is left.  TensorElt
    passes its factors' stats(i); `kr.KRTable` folds the same rule over the
    rows of all its tableaux at once, and `ProductTable` writes out the case
    of two factors."""
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


class TensorElt:
    """Ordered tensor product element; factors share one Cartan datum.
    Factors may themselves be tensor elements.  Like kr.RectTableau, it is
    immutable and hashable, exposes its Cartan datum as `cartan`, and provides
    e(i) and f(i) (None for 0), stats(i) = (eps_i, phi_i) and text()."""

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
            raise _dead("e")
        return TensorElt(self.factors[:idx] + (b,) + self.factors[idx + 1:])

    @lru_cache(maxsize=0)
    def f(self, i):
        idx = signature_rule([b.stats(i) for b in self.factors])[3]
        if idx is None:
            return None
        b = self.factors[idx].f(i)
        if b is None:
            raise _dead("f")
        return TensorElt(self.factors[:idx] + (b,) + self.factors[idx + 1:])

    def text(self) -> str:
        return "|".join(b.text() for b in self.factors)


class _Unit:
    """The one-element crystal, the empty tensor product: the right factor of
    a single table in `ProductTable.of`, with weight 0 and no arrows."""

    tables = ()

    def __init__(self, c):
        self.wt = [(0,) * c.m]
        self.stats, self.e, self.f = [[(0, 0)]] * c.m, [[-1]] * c.m, [[-1]] * c.m
        self.pr_powers = [[0]] * c.m  # pr^k for k = 0, ..., n


class Memo(dict):
    """A dict that fills a missing key x with fill(x) and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, x):
        v = self[x] = self.fill(x)
        return v


class _Rows:
    """A ProductTable read as a table through its steps: stats[i][x], e[i][x]
    and f[i][x] (-1 for 0), wt[x] and pr_powers[k][x], each worked out at the
    first read of x and kept.  This is P in `ProductTable.of` for a large
    product of three tables or more, so a set pays for the rows of P that it
    reads, never for all of P."""

    def __init__(self, space):
        left, right, n = space.left, space.right, space.width
        nodes = left.cartan.nodes
        self.tables = space.tables
        self.stats = [Memo(space.eps_phi(i)) for i in nodes]
        self.e = [Memo(space.raising(i)) for i in nodes]
        self.f = [Memo(space.lowering(i)) for i in nodes]
        self.wt = Memo(lambda x: tuple(map(add, left.wt[x // n], right.wt[x % n])))
        self.pr_powers = [Memo(lambda x, u=u, v=v: u[x // n] * n + v[x % n])
                          for u, v in zip(left.pr_powers, right.pr_powers)]


# ProductTable.of enumerates a P of at most this many rows, about 0.05 s at
# the limit.  A larger P is read row by row unless the caller expects a dense
# set: a row read costs each lookup about 60 ns more, but a sparse set then
# pays only for the rows it reaches.
EAGER_ROWS = 10_000


class ProductTable:
    """left (x) right for a KRTable left and an enumerated crystal right (a
    KRTable, a ProductTable, or the `_Unit` or `_Rows` of `of`), with `tables`
    its KR factors.  For every node i, Kashiwara's rule on (e1, p1) =
    left.stats[i][a] and (e2, p2) = right.stats[i][c] is written in three
    shapes: per position by the steps raising(i), lowering(i) and eps_phi(i);
    per i-string by close(i, energies, walk), which walks f_i down the
    factors' arrays with no call per element; and per row as KRTable's arrays
    stats[i][x], e[i][x] and f[i][x] (-1 for 0), with wt[x] the sum of the
    factors' weights and pr[x], pr_powers[k][x] the products of their
    promotions.  The arrays need a filled right factor and are built on first
    read, e and f together, so construction does no work.  A chosen factor
    that its array kills is a ModelConsistencyError."""

    def __init__(self, left, right):
        self.cartan = left.cartan
        self.left, self.right = left, right
        self.tables = (left,) + getattr(right, "tables", (right,))
        self.width = prod(len(t.elements) for t in self.tables[1:])  # len(right)

    @classmethod
    def of(cls, tables, inner=None, eager_rows=EAGER_ROWS):
        """The product of KR tables, the first (x) P with P the product of the
        rest: the one-element _Unit for one table, the KR table for two, and
        otherwise ProductTables of the rest when P has at most `eager_rows`
        rows, else the rows of `inner`, the product of the rest (built here
        when not given), filled as they are read.  An enumerated P is `inner`
        itself when its own right factor is enumerated, so that each table's
        arrays are built once."""
        left, *rest = tables
        if len(rest) <= 1:
            return cls(left, rest[0] if rest else _Unit(left.cartan))
        if prod(len(t.elements) for t in rest) > eager_rows:
            return cls(left, _Rows(inner or cls.of(rest)))
        if inner is not None and not isinstance(inner.right, _Rows):
            return cls(left, inner)
        right = rest[-1]
        for t in reversed(rest[:-1]):
            right = cls(t, right)
        return cls(left, right)

    def __len__(self):
        return len(self.left.elements) * self.width

    def lowering(self, i: int):
        """x -> f_i x, or -1: the left factor moves if p1 > e2, else right if p2 > 0."""
        s1, d1 = self.left.stats[i], self.left.f[i]
        s2, d2, n = self.right.stats[i], self.right.f[i], self.width

        def step(x):
            a, c = divmod(x, n)
            e2, p2 = s2[c]
            if s1[a][1] > e2:
                y = d1[a]
                if y < 0:
                    raise _dead("f")
                return y * n + c
            if p2:
                y = d2[c]
                if y < 0:
                    raise _dead("f")
                return x - c + y
            return -1
        return step

    def close(self, i: int, energies: dict, walk) -> None:
        """F_i on a {code: D} map, in place.  F_i S is the union of the
        i-strings below S (Kashiwara's string property), so from each code
        the walk steps (a, c) down its string on the factors' arrays, as
        `lowering` does, until the string ends or reaches a code already in
        the map.  A step along a classical f_i copies D from its source; an
        element first reached by f_0 gets walk(y)."""
        s1, d1 = self.left.stats[i], self.left.f[i]
        s2, d2, n = self.right.stats[i], self.right.f[i], self.width
        for x in list(energies):
            d = energies[x]
            a, c = divmod(x, n)
            while True:
                e2, p2 = s2[c]
                if s1[a][1] > e2:
                    a = d1[a]
                    if a < 0:
                        raise _dead("f")
                elif p2:
                    c = d2[c]
                    if c < 0:
                        raise _dead("f")
                else:
                    break
                y = a * n + c
                if y in energies:
                    break
                energies[y] = d if i else walk(y)

    def raising(self, i: int):
        """x -> e_i x, or -1: right moves if e2 > p1, else the left factor if e1 > 0."""
        s1, u1 = self.left.stats[i], self.left.e[i]
        s2, u2, n = self.right.stats[i], self.right.e[i], self.width

        def step(x):
            a, c = divmod(x, n)
            e1, p1 = s1[a]
            if s2[c][0] > p1:
                y = u2[c]
                if y < 0:
                    raise _dead("e")
                return x - c + y
            if e1:
                y = u1[a]
                if y < 0:
                    raise _dead("e")
                return y * n + c
            return -1
        return step

    def eps_phi(self, i: int):
        """x -> (eps_i, phi_i): (e1 + e2 - p1, p2) if e2 > p1, else (e1, p1 + p2 - e2)."""
        s1, s2, n = self.left.stats[i], self.right.stats[i], self.width

        def stats(x):
            (e1, p1), (e2, p2) = s1[x // n], s2[x % n]
            return (e1 + e2 - p1, p2) if e2 > p1 else (e1, p1 + p2 - e2)
        return stats

    @cached_property
    def e(self) -> list[list[int]]:
        return self._arrows()[0]

    @cached_property
    def f(self) -> list[list[int]]:
        return self._arrows()[1]

    def _arrows(self) -> tuple[list, list]:
        """e and f in one pass over the left rows, node by node, once both
        factors' arrows are checked live.  Both are kept only when both are
        built, so a dead factor raises at every read."""
        left, right, n = self.left, self.right, self.width
        es, fs = [], []
        for i in self.cartan.nodes:
            _check_live(left, i)
            _check_live(right, i)
            cols = list(zip(range(n), right.stats[i], right.e[i], right.f[i]))
            up, down = [], []
            for a, ((e1, p1), ua, da) in enumerate(zip(left.stats[i], left.e[i], left.f[i])):
                x0, ua, da = a * n, ua * n, da * n
                up += [x0 + uc if e2 > p1 else ua + c if e1 else -1
                       for c, (e2, _), uc, _ in cols]
                down += [da + c if p1 > e2 else x0 + dc if p2 else -1
                         for c, (e2, p2), _, dc in cols]
            es.append(up)
            fs.append(down)
        self.__dict__.update(e=es, f=fs)
        return es, fs

    @cached_property
    def stats(self) -> list[list[tuple[int, int]]]:
        """Built on first read, one left row at a time over the right stats."""
        return [[(e1 + e2 - p1, p2) if e2 > p1 else (e1, p1 + p2 - e2)
                 for e1, p1 in self.left.stats[i] for e2, p2 in self.right.stats[i]]
                for i in self.cartan.nodes]

    @cached_property
    def wt(self) -> list[tuple[int, ...]]:
        return [tuple(map(add, u, v)) for u in self.left.wt for v in self.right.wt]

    @cached_property
    def pr(self) -> list[int]:
        n = self.width
        return [a * n + c for a in self.left.pr for c in self.right.pr]

    @cached_property
    def pr_powers(self) -> list[list[int]]:
        """pr^k for k = 0, ..., n, from the factors' pr^k."""
        n = self.width
        return [[a * n + c for a in left for c in right]
                for left, right in zip(self.left.pr_powers, self.right.pr_powers)]

    def factors(self, x: int) -> tuple[int, ...]:
        """The positions of the factors of x in their tables."""
        out = []
        for t in reversed(self.tables[1:]):
            x, k = divmod(x, len(t.elements))
            out.append(k)
        out.append(x)
        return tuple(reversed(out))

    def element(self, x: int) -> TensorElt:
        """Position x as the flat tensor of its KR factors."""
        return TensorElt(t.elements[k] for t, k in zip(self.tables, self.factors(x)))

    def code(self, b: TensorElt) -> int:
        """The position of a flat tensor of elements of `tables`."""
        if any(a.table is not t for a, t in zip(b.factors, self.tables, strict=True)):
            raise ValueError(f"{b.text()} is not in {' (x) '.join(t.name for t in self.tables)}")
        x = 0
        for a, t in zip(b.factors, self.tables):
            x = x * len(t.elements) + a.pos
        return x


def _check_live(table, i: int) -> None:
    """Raise if an element of table with eps_i or phi_i > 0 has no e_i or f_i
    arrow: each finite i-string has two ends, so some pair's rule chooses it."""
    for (ep, ph), up, down in zip(table.stats[i], table.e[i], table.f[i]):
        if ep and up < 0:
            raise _dead("e")
        if ph and down < 0:
            raise _dead("f")


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


def classical_highest_path(x) -> tuple:
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


def crystal_edges(space: ProductTable, codes):
    """Edges (src, dst, i) of the crystal graph of space restricted to a set
    of its codes, with nodes in canonical order.  Returns (sorted codes, edges)."""
    nodes = sorted(codes)
    index = {x: k for k, x in enumerate(nodes)}
    edges = []
    for i in space.cartan.nodes:
        f = space.lowering(i)
        for k, x in enumerate(nodes):
            dst = index.get(f(x))
            if dst is not None:
                edges.append((k, dst, i))
    edges.sort()
    return nodes, edges


def factor_texts(space: ProductTable, codes) -> list[list[str]]:
    """The texts of the factors of each code, each table position's text made
    once per call."""
    texts = [[b.text() for b in t.elements] for t in space.tables]
    return [list(map(getitem, texts, space.factors(x))) for x in codes]


def labels(space: ProductTable, codes) -> list[str]:
    """The element's text for each code, its factors' texts joined."""
    return ["|".join(parts) for parts in factor_texts(space, codes)]


def graph_dot(space: ProductTable, codes) -> str:
    """The crystal graph of a set of codes of space in DOT, labelled by the
    elements' text."""
    nodes, edges = crystal_edges(space, codes)
    lines = ["digraph crystal {", "  rankdir=LR;"]
    lines.extend(f'  {k} [label="{label}"];' for k, label in enumerate(labels(space, nodes)))
    lines.extend(f'  {s} -> {d} [label="{i}"];' for s, d, i in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(space: ProductTable, codes) -> dict:
    nodes, edges = crystal_edges(space, codes)
    return {
        "nodes": labels(space, nodes),
        "edges": [{"src": s, "dst": d, "i": i} for s, d, i in edges],
    }
