"""Crystal elements, tensor products, and Demazure-style subset closures.

A tensor product of KR crystals is held three ways, one for each job:

- `TensorElt` objects serve the boundary (parsing, printing, export labels)
  and the oracles;
- `Codes`, where an element is the tuple of its factors' positions in their
  tables and the signature rule folds over the tables' arrays per call, serve
  sparse closures (`dark.build`) and the energy tables;
- `ProductTable`, two tables' product enumerated once with KRTable's arrays by
  the two-factor signature rule written out, serves whole-product checks
  (selftest criteria 1, 2 and 8) and the energy oracle.

The distinguished zero of a crystal is represented by None: crystal operators
return None when they annihilate an element, and never raise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add, getitem


class ModelConsistencyError(RuntimeError):
    """The combinatorial model produced contradictory data (a bug, not bad input)."""


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
    passes its factors' stats(i), `Codes` reads of its tables' stats[i]
    arrays; `ProductTable` writes out the case of two factors."""
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


def _move(x, k, arrows, side):
    """x with factor k moved along its table's array; None for no factor k."""
    if k is None:
        return None
    j = arrows[k][x[k]]
    if j < 0:
        raise ModelConsistencyError(f"tensor rule chose a dead factor for {side}")
    return x[:k] + (j,) + x[k + 1:]


class Codes:
    """The tensor product of the KR crystals of some tables, with an element
    coded as the tuple of its factors' positions in them.  Positions follow
    each table's canonical order, so codes sort as their elements do.
    `dark.build` and `energy.EnergyTable` run on codes; the tests tie them to
    the arrays of `ProductTable`, which the selftest checks."""

    def __init__(self, tables):
        self.tables = tuple(tables)
        self._elements = [t.elements for t in self.tables]
        self._wts = [t.wt for t in self.tables]

    def __iter__(self):
        """Every code, in canonical order."""
        return product(*(range(len(t.elements)) for t in self.tables))

    def node(self, i: int):
        """x -> (eps_i, phi_i, e_i x, f_i x) on codes: one fold of the signature
        rule over reads of the tables' stats[i], then one read of the e[i] and
        f[i] arrays of the factors it chose, each None where the operator gives
        0.  A chosen factor that its array kills is a ModelConsistencyError."""
        stats = [t.stats[i] for t in self.tables]
        ups = [t.e[i] for t in self.tables]
        downs = [t.f[i] for t in self.tables]

        def row(x):
            ep, ph, up, down = signature_rule(map(getitem, stats, x))
            return ep, ph, _move(x, up, ups, "e"), _move(x, down, downs, "f")
        return row

    def f(self, i: int):
        """x -> f_i x, the f half of `node`: the same fold and move, without the
        e read that `build` does not need."""
        stats = [t.stats[i] for t in self.tables]
        downs = [t.f[i] for t in self.tables]
        return lambda x: _move(x, signature_rule(map(getitem, stats, x))[3], downs, "f")

    def weight(self, x) -> tuple[int, ...]:
        """The classical weight of a nonempty code x, read off the tables' wt."""
        wts = map(getitem, self._wts, x)
        w = next(wts)
        for v in wts:
            w = tuple(map(add, w, v))
        return w

    def element(self, x) -> TensorElt:
        return TensorElt(tuple(map(getitem, self._elements, x)))

    def code(self, b: TensorElt) -> tuple[int, ...]:
        if any(a.table is not t for a, t in zip(b.factors, self.tables, strict=True)):
            raise ValueError(f"{b.text()} is not in {' (x) '.join(t.name for t in self.tables)}")
        return tuple(a.pos for a in b.factors)


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
    factors' weights, pr[x] is the product of their promotions.  The rule is
    associative, so a triple is ProductTable(B1, ProductTable(B2, B3)).
    `tables` are the KR factors."""

    def __init__(self, left, right):
        self.cartan = left.cartan
        self.tables = _factor_tables(left) + _factor_tables(right)
        n = len(right.wt)
        self.wt = [tuple(map(add, u, v)) for u in left.wt for v in right.wt]
        self.pr = [a * n + c for a in left.pr for c in right.pr]
        self.stats, self.e, self.f = [], [], []
        for i in self.cartan.nodes:
            _check_live(left, i)
            _check_live(right, i)
            cols = list(zip(range(n), right.stats[i], right.e[i], right.f[i]))
            stats, up, down = [], [], []
            for a, ((e1, p1), ua, da) in enumerate(zip(left.stats[i], left.e[i], left.f[i])):
                x0, ua, da = a * n, ua * n, da * n
                stats += [(e1 + e2 - p1, p2) if e2 > p1 else (e1, p1 + p2 - e2)
                          for _, (e2, p2), _, _ in cols]
                up += [x0 + uc if e2 > p1 else ua + c if e1 else -1
                       for c, (e2, _), uc, _ in cols]
                down += [da + c if p1 > e2 else x0 + dc if p2 else -1
                         for c, (e2, p2), _, dc in cols]
            self.stats.append(stats)
            self.e.append(up)
            self.f.append(down)

    def element(self, x: int) -> TensorElt:
        """Position x as the flat tensor of its KR factors."""
        factors = []
        for t in reversed(self.tables):
            x, k = divmod(x, len(t.elements))
            factors.append(t.elements[k])
        return TensorElt(reversed(factors))


def _check_live(table, i: int) -> None:
    """Raise if an element of table with eps_i or phi_i > 0 has no e_i or f_i
    arrow: each finite i-string has two ends, so some pair's rule chooses it."""
    for (ep, ph), up, down in zip(table.stats[i], table.e[i], table.f[i]):
        if ep and up < 0:
            raise ModelConsistencyError("tensor rule chose a dead factor for e")
        if ph and down < 0:
            raise ModelConsistencyError("tensor rule chose a dead factor for f")


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


def _labels(space: Codes, nodes) -> list[str]:
    """The elements' text for each code: one text per table position, joined."""
    texts = [[b.text() for b in t.elements] for t in space.tables]
    return ["|".join(map(getitem, texts, x)) for x in nodes]


def graph_dot(space: Codes, codes) -> str:
    """The crystal graph of a set of codes of space in DOT, labelled by the
    elements' text."""
    nodes, edges = crystal_edges(space, codes)
    lines = ["digraph crystal {", "  rankdir=LR;"]
    lines.extend(f'  {k} [label="{label}"];' for k, label in enumerate(_labels(space, nodes)))
    lines.extend(f'  {s} -> {d} [label="{i}"];' for s, d, i in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(space: Codes, codes) -> dict:
    nodes, edges = crystal_edges(space, codes)
    return {
        "nodes": _labels(space, nodes),
        "edges": [{"src": s, "dst": d, "i": i} for s, d, i in edges],
    }
