"""Crystal elements, tensor products, and Demazure-style subset closures.

A tensor product of KR crystals is held three ways, one for each job:

- `TensorElt` objects serve the boundary (parsing, printing, export labels)
  and the oracles;
- `Codes`, where an element is one int, its position in canonical order, and
  B_1 (x) ... (x) B_p is the two-factor product B_1 (x) P of the first table
  and the rest, serve sparse closures (`dark.build`), the energy tables and
  the exports; a large P is read row by row as the set reaches it, so a
  sparse set does not pay for the whole product;
- `ProductTable`, two tables' product enumerated once with KRTable's arrays by
  the two-factor signature rule written out, serves whole-product checks
  (selftest criteria 1, 2 and 8), the energy oracle and a small P in `Codes`.

The rule is associative (Kashiwara; Bump-Schilling, Crystal Bases, ch. 2), so
both give an element the same position: x = a*len(P) + c for left[a] (x) P[c].

The distinguished zero of a crystal is represented by None: crystal operators
return None when they annihilate an element, and never raise.
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
    passes its factors' stats(i), `kr.KRTable` the rows of a tableau;
    `Codes` and `ProductTable` write out the case of two factors."""
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
    e(i) and f(i) (None for 0), stats(i) = (eps_i, phi_i), clweight() (the int
    tuple of its Lambda coefficients), sort_key() and text()."""

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

    def clweight(self) -> tuple[int, ...]:
        w = self.factors[0].clweight()
        for b in self.factors[1:]:
            w = tuple(map(add, w, b.clweight()))
        return w

    def sort_key(self):
        return tuple(b.sort_key() for b in self.factors)

    def text(self) -> str:
        return "|".join(b.text() for b in self.factors)


def _positions(tables, x: int) -> tuple[int, ...]:
    """The positions in tables of the factors of the product position x."""
    out = []
    for t in reversed(tables[1:]):
        x, k = divmod(x, len(t.elements))
        out.append(k)
    out.append(x)
    return tuple(reversed(out))


class _Unit:
    """The one-element crystal, the empty tensor product: the right factor of
    a single table in `Codes`, with weight 0 and no arrows."""

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


def _arrow(step):
    """A Codes step as an array fill: -1 where it returns None."""
    def fill(x):
        y = step(x)
        return -1 if y is None else y
    return fill


class _Rows:
    """A Codes read as a table: stats[i][x], e[i][x] and f[i][x] (-1 for 0),
    wt[x] and pr_powers[k][x], each worked out by the Codes at the first read
    of x and kept.  This is P inside `Codes` for three tables or more, so a
    set pays for the rows of P that it reads, never for all of P."""

    def __init__(self, space):
        left, right, n = space.left, space.right, space.width
        nodes = left.cartan.nodes
        self.stats = [Memo(space.eps_phi(i)) for i in nodes]
        self.e = [Memo(_arrow(space.e(i))) for i in nodes]
        self.f = [Memo(_arrow(space.f(i))) for i in nodes]
        self.wt = Memo(lambda x: tuple(map(add, left.wt[x // n], right.wt[x % n])))
        self.pr_powers = [Memo(lambda x, u=u, v=v: u[x // n] * n + v[x % n])
                          for u, v in zip(left.pr_powers, right.pr_powers)]


# Codes enumerates a P of at most this many rows as a ProductTable, about
# 0.05 s at the limit.  A larger P is read row by row unless the caller
# expects a dense set: a row read costs each lookup about 60 ns more, but a
# sparse set then pays only for the rows it reaches.
EAGER_ROWS = 10_000


class Codes:
    """The tensor product left (x) P of the KR crystals of some tables, left
    the first and P the product of the others, with an element coded as one
    int: its position x = a*len(P) + c in canonical order, the position that
    ProductTable gives it, so codes sort as their elements do.  P is the
    one-element _Unit for one table, the KR table for two, and otherwise a
    ProductTable of the others when it has at most `eager_rows` rows, else
    the rows of `inner`, the Codes of the others (built here when not given),
    filled as they are read.  e_i and f_i are Kashiwara's rule for two
    factors on (e1, p1) = left.stats[i][a] and (e2, p2) = P.stats[i][c], as
    ProductTable writes it out, then one read of the chosen factor's e[i] or
    f[i]; a chosen factor that its array kills is a ModelConsistencyError.
    The tests tie codes to TensorElt and to ProductTable at every position."""

    def __init__(self, tables, inner=None, eager_rows=EAGER_ROWS):
        self.tables = tuple(tables)
        self.left = self.tables[0]
        self.width = prod(len(t.elements) for t in self.tables[1:])  # len(P)
        self.inner, self.eager_rows = inner, eager_rows

    @cached_property
    def right(self):
        tables = self.tables
        if len(tables) <= 2:
            return tables[1] if len(tables) == 2 else _Unit(self.left.cartan)
        if self.width > self.eager_rows:
            return _Rows(self.inner or Codes(tables[1:]))
        right = tables[-1]
        for t in reversed(tables[1:-1]):
            right = ProductTable(t, right)
        return right

    def __len__(self):
        return len(self.left.elements) * self.width

    def __iter__(self):
        """Every code, in canonical order."""
        return iter(range(len(self)))

    def f(self, i: int):
        """x -> f_i x, or None: the left factor moves if p1 > e2, else P if p2 > 0."""
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
            return None
        return step

    def e(self, i: int):
        """x -> e_i x, or None: P moves if e2 > p1, else the left factor if e1 > 0."""
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
            return None
        return step

    def eps_phi(self, i: int):
        """x -> (eps_i, phi_i): (e1 + e2 - p1, p2) if e2 > p1, else (e1, p1 + p2 - e2)."""
        s1, s2, n = self.left.stats[i], self.right.stats[i], self.width

        def stats(x):
            (e1, p1), (e2, p2) = s1[x // n], s2[x % n]
            return (e1 + e2 - p1, p2) if e2 > p1 else (e1, p1 + p2 - e2)
        return stats

    def node(self, i: int):
        """x -> (eps_i, phi_i, e_i x, f_i x), the rows of `eps_phi`, `e` and `f`."""
        stats, up, down = self.eps_phi(i), self.e(i), self.f(i)
        return lambda x: stats(x) + (up(x), down(x))

    def factors(self, x: int) -> tuple[int, ...]:
        """The positions of the factors of x in their tables."""
        return _positions(self.tables, x)

    def element(self, x: int) -> TensorElt:
        return TensorElt(t.elements[k] for t, k in zip(self.tables, self.factors(x)))

    def code(self, b: TensorElt) -> int:
        if any(a.table is not t for a, t in zip(b.factors, self.tables, strict=True)):
            raise ValueError(f"{b.text()} is not in {' (x) '.join(t.name for t in self.tables)}")
        x = 0
        for a, t in zip(b.factors, self.tables):
            x = x * len(t.elements) + a.pos
        return x


def _factor_tables(table) -> tuple:
    return table.tables if isinstance(table, ProductTable) else (table,)


class ProductTable:
    """The tensor product left (x) right of two enumerated crystals, each a
    KRTable or a ProductTable, enumerated as a crystal with KRTable's arrays:
    position x = a*len(right) + c is left[a] (x) right[c], so positions follow
    the canonical order.  For every node i, stats[i][x], e[i][x] and f[i][x]
    (-1 for 0) are the signature rule on (e1, p1) = left.stats[i][a] and (e2,
    p2) = right.stats[i][c] written out: (e1 + e2 - p1, p2) if e2 > p1, else
    (e1, p1 + p2 - e2); e moves the right factor if e2 > p1, else the left if
    e1 > 0; f the left if p1 > e2, else the right if p2 > 0.  wt[x] sums the
    factors' weights, pr[x] and pr_powers[k][x] are the products of their
    promotions; these and stats are built on first read.  The rule is
    associative, so a triple is ProductTable(B1, ProductTable(B2, B3)).
    `tables` are the KR factors."""

    def __init__(self, left, right):
        self.cartan = left.cartan
        self.left, self.right = left, right
        self.tables = _factor_tables(left) + _factor_tables(right)
        n = len(right.e[0])
        self.e, self.f = [], []
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
            self.e.append(up)
            self.f.append(down)

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
        n = len(self.right.e[0])
        return [a * n + c for a in self.left.pr for c in self.right.pr]

    @cached_property
    def pr_powers(self) -> list[list[int]]:
        """pr^k for k = 0, ..., n, from the factors' pr^k."""
        n = len(self.right.e[0])
        return [[a * n + c for a in left for c in right]
                for left, right in zip(self.left.pr_powers, self.right.pr_powers)]

    def element(self, x: int) -> TensorElt:
        """Position x as the flat tensor of its KR factors."""
        return TensorElt(t.elements[k] for t, k in zip(self.tables, _positions(self.tables, x)))


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


def crystal_edges(space: Codes, codes):
    """Edges (src, dst, i) of the crystal graph of space restricted to a set
    of its codes, with nodes in canonical order.  Returns (sorted codes, edges)."""
    nodes = sorted(codes)
    index = {x: k for k, x in enumerate(nodes)}
    edges = []
    for i in space.tables[0].cartan.nodes:
        f = space.f(i)
        for k, x in enumerate(nodes):
            dst = index.get(f(x))
            if dst is not None:
                edges.append((k, dst, i))
    edges.sort()
    return nodes, edges


def factor_texts(space: Codes, codes) -> list[list[str]]:
    """The texts of the factors of each code, each table position's text made
    once per call."""
    texts = [[b.text() for b in t.elements] for t in space.tables]
    return [list(map(getitem, texts, space.factors(x))) for x in codes]


def labels(space: Codes, codes) -> list[str]:
    """The element's text for each code, its factors' texts joined."""
    return ["|".join(parts) for parts in factor_texts(space, codes)]


def graph_dot(space: Codes, codes) -> str:
    """The crystal graph of a set of codes of space in DOT, labelled by the
    elements' text."""
    nodes, edges = crystal_edges(space, codes)
    lines = ["digraph crystal {", "  rankdir=LR;"]
    lines.extend(f'  {k} [label="{label}"];' for k, label in enumerate(labels(space, nodes)))
    lines.extend(f'  {s} -> {d} [label="{i}"];' for s, d, i in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(space: Codes, codes) -> dict:
    nodes, edges = crystal_edges(space, codes)
    return {
        "nodes": labels(space, nodes),
        "edges": [{"src": s, "dst": d, "i": i} for s, d, i in edges],
    }
