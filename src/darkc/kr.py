"""Kirillov-Reshetikhin crystals of type A_n^(1) as rectangular tableaux.

Elements of B^{r,s} are r x s semistandard rectangles over {1, ..., n+1}.
Classical operators use the bracketing rule on the row reading word (bottom
row first, rows left to right); the affine operators conjugate node 1 through
Schuetzenberger promotion, which realizes the Dynkin rotation j -> j + 1.

Each B^{r,s} is enumerated once into a KRTable, which interns its tableaux
and holds the crystal structure as integer arrays over their indices.  A row
is its content and a rectangle is the tensor product of its rows (Shimozono,
Affine type A crystal structure on tensor products of rectangles, 2002), so
the table enumerates row contents and builds the classical arrays by the
signature rule over rows, folded in a row at a time with one column pass over
all elements per array; promotion is read off those arrays.  A tableau is its
position in the table, and its rows are built from its contents only when
they are read.  The same fold gives the string lengths, checked against the
arrows.  The walks on the reading word and the jeu-de-taquin slides build
nothing; they stay as oracles for the classical and the promotion arrays.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul, sub

from .cartan import CartanA
from .crystal import ModelConsistencyError, TensorElt

_TABLES: dict = {}
_CARTANS: dict = {}


class RectTableau:
    """An element of B^{r,s}.  Tableaux are interned: the constructor checks
    the rows and returns the one object its KRTable holds, so equality is
    identity.  `table` is that KRTable and `pos` the element's index in it;
    the rows are read off the table's contents.  So building one tableau
    enumerates its whole B^{r,s} on first use, and the table lives for the
    rest of the process."""

    __slots__ = ("cartan", "table", "pos")

    def __new__(cls, cartan: CartanA, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        _check_rows(cartan, rows)
        table = _table(cartan, len(rows), len(rows[0]))
        letters = range(1, cartan.m + 1)
        counts = (row.count(v) for row in rows for v in letters)
        return table.elements[table.index[sum(map(mul, counts, table.powers))]]

    def __setattr__(self, name, value):
        raise AttributeError("RectTableau is immutable")

    def __reduce__(self):
        return RectTableau, (self.cartan, self.rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return _rows(self.table.contents[self.pos], self.cartan.m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape

    def content(self) -> tuple[int, ...]:
        cs, m = self.table.contents[self.pos], self.cartan.m
        return tuple(sum(cs[v::m]) for v in range(m))

    def e(self, i):
        k = self.table.e[i][self.pos]
        return None if k < 0 else self.table.elements[k]

    def f(self, i):
        k = self.table.f[i][self.pos]
        return None if k < 0 else self.table.elements[k]

    def stats(self, i) -> tuple[int, int]:
        return self.table.stats[i][self.pos]

    def text(self) -> str:
        if self.shape[1] == 0:
            return "-"
        sep = "," if self.cartan.m > 9 else ""
        return "/".join(sep.join(str(v) for v in row) for row in self.rows)

    def __repr__(self):
        return f"RectTableau(n={self.cartan.n}, {self.text()!r})"


def _check_rows(c: CartanA, rows) -> None:
    """Raise ValueError unless rows form a semistandard rectangle over
    {1, ..., n+1} with 1 to n rows."""
    r = len(rows)
    if r < 1:
        raise ValueError("tableau needs at least one row")
    if r > c.n:
        raise ValueError(f"{r} rows exceed the rank {c.n}")
    s = len(rows[0])
    if any(len(row) != s for row in rows):
        raise ValueError("ragged tableau")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not 1 <= v <= c.m:
                raise ValueError(f"entry {v} outside 1..{c.m}")
            if j > 0 and row[j - 1] > v:
                raise ValueError(f"row {i} not weakly increasing")
            if i > 0 and rows[i - 1][j] >= v:
                raise ValueError(f"column {j} not strictly increasing")


def _contents(m: int, r: int, s: int) -> list:
    """Every r x s semistandard rectangle over {1, ..., m} as its row
    contents (letter counts per row), top row first, joined into one tuple
    of r*m counts, in the lexicographic order of the rows (more 1s first,
    then more 2s, ...).  Column strictness bounds a row's prefix sums by the
    row above's, shifted by one letter; row a (from 0) uses letters up to
    m - r + 1 + a, so every partial rectangle completes.  No loop runs over
    cells, and none recurses."""

    def rows(caps, top):
        """Row contents over letters 1..top with prefix sums within caps."""
        parts = [((), 0)]
        for cap in caps[:top - 1]:
            parts = [(c + (k,), t + k) for c, t in parts for k in range(cap - t, -1, -1)]
        return [c + (s - t,) + (0,) * (m - top) for c, t in parts]

    out = rows((s,) * m, m - r + 1)
    for a in range(1, r):
        out = [cs + c for cs in out
               for c in rows(tuple(accumulate(cs[-m:], initial=0)), m - r + 1 + a)]
    return out


def _rows(cs, m: int) -> tuple:
    """The weakly increasing rows with the joined row contents cs."""
    return tuple(tuple(chain.from_iterable(map(repeat, range(1, m + 1), cs[a:a + m])))
                 for a in range(0, len(cs), m))


def _demoted(rows, m: int):
    """Inverse promotion: delete the 1s (a prefix of the top row), slide the
    holes to the lower right (rightmost hole first; ties slide the cell
    below), decrement everything else, and fill the holes with n+1."""
    r, s = len(rows), len(rows[0])
    grid = [list(row) for row in rows]
    hole_cols = [j for j in range(s) if grid[0][j] == 1]
    for j in hole_cols:
        grid[0][j] = None
    for j in reversed(hole_cols):
        i, k = 0, j
        while True:
            below = grid[i + 1][k] if i < r - 1 else None
            right = grid[i][k + 1] if k < s - 1 else None
            if below is None and right is None:
                break
            if right is None or (below is not None and below <= right):
                grid[i][k], grid[i + 1][k] = below, None
                i += 1
            else:
                grid[i][k], grid[i][k + 1] = right, None
                k += 1
    return tuple(tuple(m if v is None else v - 1 for v in row) for row in grid)


class _ByNode(dict):
    """Arrays keyed by node; a node out of range raises IndexError."""

    def __missing__(self, i):
        raise IndexError(f"node {i} out of range")


class KRTable:
    """B^{r,s} enumerated once.  `elements` holds the interned tableaux in
    canonical order, `contents` their joined row contents (top row first,
    see _contents), and `index` maps the key of each, the int with those
    counts as digits base s+1 (digit t has the weight powers[t]), to its
    position, keys in position order.  The arrays over positions are built on
    first use:

    - cl_e[i][k], cl_f[i][k]: for classical i, the position of e_i / f_i of
      element k, or -1, both from the signature rule over its rows, folded
      for all elements at once by column passes (no call per element);
    - pr, pr_inv: promotion and its inverse as permutations, from cl_e and
      cl_f alone (no slides);
    - e[i][k], f[i][k], eps[i][k], phi[i][k]: cl_e, cl_f and the lengths of
      the i-string above and below k from the same fold, plus node 0 by pr;
    - stats[i][k]: the pair (eps[i][k], phi[i][k]);
    - wt[k]: its classical weight, the int tuple of its Lambda coefficients;
    - b_rs: the distinguished element b^{r,s}.
    """

    def __init__(self, c: CartanA, r: int, s: int):
        self.cartan = c
        self.shape = (r, s)
        self.name = f"B^{{{r},{s}}}"
        self.contents = _contents(c.m, r, s)
        self.powers = powers = [(s + 1) ** t for t in range(r * c.m)]
        self.index = {sum(map(mul, cs, powers)): k for k, cs in enumerate(self.contents)}
        size = len(self.contents)
        self.elements = tuple(map(object.__new__, repeat(RectTableau, size)))
        # the slot descriptors fill the slots past RectTableau.__setattr__
        for slot, values in ((RectTableau.cartan, repeat(c)), (RectTableau.table, repeat(self)),
                             (RectTableau.pos, range(size))):
            deque(map(slot.__set__, self.elements, values), 0)

    @cached_property
    def wt(self) -> list[tuple[int, ...]]:
        """(c_m - c_1, c_1 - c_2, ..., c_{m-1} - c_m) for the letter counts c_v,
        a letter at a time: c_v is a column of contents, summed over the rows."""
        m = self.cartan.m
        columns = list(zip(*self.contents))
        if self.shape[0] > 1:
            columns = [list(map(sum, zip(*columns[v::m]))) for v in range(m)]
        return list(zip(*(map(sub, columns[v - 1], columns[v]) for v in range(m))))

    @cached_property
    def b_rs(self) -> RectTableau:
        """The unique element with eps_0 = s and eps_i = 0 for classical i,
        located by exhaustive scan.  Non-uniqueness means broken 0-arrows."""
        eps, want = self.eps, (self.shape[1],) + (0,) * self.cartan.n
        hits = [T for T, col in zip(self.elements, zip(*map(eps.get, self.cartan.nodes)))
                if col == want]
        if len(hits) != 1:
            raise ModelConsistencyError(
                f"expected one distinguished element in {self.name}, found {len(hits)}")
        return hits[0]

    @cached_property
    def pr(self) -> list[int]:
        """Promotion from the classical arrays (Shimozono 2002).  Under nodes
        1..n-1 the crystal has one component for each count k of entries n+1,
        and under nodes 2..n one for each count k of entries 1.  Promotion
        sends the first head with k entries n+1 to the second with k entries 1
        and carries f_i to f_{i+1}, so it is fixed on the heads and follows
        the arrows from there.  Anything else is a ModelConsistencyError."""
        n = self.cartan.n
        f = self.cl_f
        size = len(self.elements)
        # entries n+1 lie in the bottom row only, 1s in the top row only
        lows = self._heads(range(1, n), lambda cs: cs[-1])
        highs = self._heads(range(2, n + 1), lambda cs: cs[0])
        if lows.keys() != highs.keys():
            raise ModelConsistencyError(f"promotion heads of {self.name} do not pair up")
        pr = [-1] * size
        stack = []
        for k, b in lows.items():
            pr[b] = highs[k]
            stack.append(b)
        arrows = [(i, f[i], f[i + 1]) for i in range(1, n)]
        while stack:
            b = stack.pop()
            p = pr[b]
            for i, f_i, f_next in arrows:
                c, d = f_i[b], f_next[p]
                if (c < 0) != (d < 0):
                    raise ModelConsistencyError(
                        f"promotion does not carry f_{i} to f_{i + 1} in {self.name}")
                if c < 0:
                    continue
                if pr[c] < 0:
                    pr[c] = d
                    stack.append(c)
                elif pr[c] != d:
                    raise ModelConsistencyError(f"promotion gives two images in {self.name}")
        if -1 in pr:
            raise ModelConsistencyError(f"promotion does not reach all of {self.name}")
        if len(set(pr)) != size:
            raise ModelConsistencyError(f"promotion is not a bijection on {self.name}")
        return pr

    def _heads(self, nodes, count) -> dict[int, int]:
        """The elements killed by e_i for every i in nodes, keyed by count of
        their row contents; two heads with one key are a ModelConsistencyError."""
        dead, heads = (-1,) * len(nodes), {}
        for b, col in enumerate(zip(*map(self.cl_e.get, nodes), self.contents)):
            if col[:-1] == dead:
                key = count(col[-1])
                if key in heads:
                    raise ModelConsistencyError(f"two promotion heads of {self.name} share {key}")
                heads[key] = b
        return heads

    @cached_property
    def pr_inv(self) -> list[int]:
        inv = [0] * len(self.pr)
        for k, j in enumerate(self.pr):
            inv[j] = k
        return inv

    @cached_property
    def pr_powers(self) -> list[list[int]]:
        """pr^k for k = 0, ..., n."""
        powers = [list(range(len(self.elements)))]
        for _ in range(self.cartan.n):
            powers.append([self.pr[j] for j in powers[-1]])
        return powers

    @cached_property
    def _classical(self) -> tuple[_ByNode, _ByNode, _ByNode, _ByNode]:
        """cl_e, cl_f, eps and phi of the classical nodes by the signature rule
        over the rows, one column pass per row and array.  The rows go in top
        row first (the reading word backwards), each as the pair (#(i+1), #i)
        of its eps_i and phi_i.  Row 0 starts the state; each further row is
        folded into all elements at once, as crystal.signature_rule folds one
        element's pairs.  e_i turns one i+1 of the chosen row into i, f_i one i
        into i+1.  A move is one addition to the key of the contents (None for
        no move; every move is 0 at s = 0), looked up in `index` in one pass
        per node."""
        m, r, contents, size = self.cartan.m, self.shape[0], self.contents, len(self.contents)
        powers, index = self.powers, self.index
        keys = list(index)
        e, f, eps, phi = arrays = _ByNode(), _ByNode(), _ByNode(), _ByNode()
        try:
            for i in self.cartan.classical_nodes:
                move = powers[i - 1] - powers[i]
                ep = list(map(itemgetter(i), contents))
                ph = list(map(itemgetter(i - 1), contents))
                up = [move if a else None for a in ep]
                down = [move if b else None for b in ph]
                for j in range(i - 1 + m, r * m, m):  # a, b: the row's #(i+1), #i; p: phi so far
                    move = powers[j] - powers[j + 1]
                    a_col = list(map(itemgetter(j + 1), contents))
                    b_col = list(map(itemgetter(j), contents))
                    up = [move if a > p else u for a, p, u in zip(a_col, ph, up)]
                    down = [d if a < p else move if b else None
                            for a, b, p, d in zip(a_col, b_col, ph, down)]
                    ep = [v + a - p if a > p else v for v, a, p in zip(ep, a_col, ph)]
                    ph = [b + p - a if p > a else b for a, b, p in zip(a_col, b_col, ph)]
                # filled in place: arrays grown by comprehensions raised peak RSS
                e[i], f[i] = up_i, down_i = [-1] * size, [-1] * size
                for k, key, u, d in zip(range(size), keys, up, down):
                    if u is not None:
                        up_i[k] = index[key + u]
                    if d is not None:
                        down_i[k] = index[key - d]
                eps[i], phi[i] = ep, ph
        except KeyError:
            raise ModelConsistencyError(f"a classical arrow left {self.name}") from None
        return arrays

    cl_e = property(lambda self: self._classical[0])
    cl_f = property(lambda self: self._classical[1])

    @cached_property
    def _affine(self) -> tuple[_ByNode, _ByNode, _ByNode, _ByNode]:
        """e, f, eps and phi: the classical arrays plus node 0 through
        promotion, e_0 = pr_inv o e_1 o pr and eps_0 = eps_1 o pr.  Every node
        is checked against its arrows in one pass: a step is -1 exactly where
        the string length is 0, and otherwise lands where it is one less."""
        pr, pr_inv = self.pr, self.pr_inv
        arrays = tuple(map(_ByNode, self._classical))
        for steps, lengths in zip(arrays[:2], arrays[2:]):
            one, length = steps[1], lengths[1]
            steps[0] = [-1 if one[j] < 0 else pr_inv[one[j]] for j in pr]
            lengths[0] = list(map(length.__getitem__, pr))
            for i, row in lengths.items():
                if [-1 if j < 0 else row[j] for j in steps[i]] != [v - 1 for v in row]:
                    raise ModelConsistencyError(
                        f"node {i} string lengths of {self.name} do not match its arrows")
        return arrays

    e = property(lambda self: self._affine[0])
    f = property(lambda self: self._affine[1])
    eps = property(lambda self: self._affine[2])
    phi = property(lambda self: self._affine[3])

    @cached_property
    def stats(self) -> _ByNode:
        return _ByNode((i, list(zip(self.eps[i], self.phi[i]))) for i in self.cartan.nodes)


def _table(c: CartanA, r: int, s: int) -> KRTable:
    """The KRTable of B^{r,s}.  All tables of one rank share one CartanA
    object, so tensors check their factors' Cartan data by identity."""
    key = (c.n, r, s)
    table = _TABLES.get(key)
    if table is None:
        c = _CARTANS.setdefault(c.n, c)
        table = _TABLES[key] = KRTable(c, r, s)
    return table


def promotion(T: RectTableau) -> RectTableau:
    return T.table.elements[T.table.pr[T.pos]]


def promotion_inverse(T: RectTableau) -> RectTableau:
    return T.table.elements[T.table.pr_inv[T.pos]]


def promote_k(T: RectTableau, k: int) -> RectTableau:
    powers = T.table.pr_powers
    return T.table.elements[powers[k % len(powers)][T.pos]]


def promotion_inverse_by_slides(T: RectTableau) -> RectTableau:
    """Inverse promotion by jeu de taquin: the oracle for pr_inv."""
    return RectTableau(T.cartan, _demoted(T.rows, T.cartan.m))


def twist(k: int, x: TensorElt) -> TensorElt:
    """The Dynkin-rotation twist by k: promotion^k on every factor."""
    return TensorElt(tuple([promote_k(b, k) for b in x.factors]))


def generate(c: CartanA, r: int, s: int) -> tuple[RectTableau, ...]:
    """All of B^{r,s}, sorted canonically.  s = 0 gives the trivial crystal."""
    c.check_classical(r)
    if s < 0:
        raise ValueError("s must be nonnegative")
    return _table(c, r, s).elements


def find_b_rs(c: CartanA, r: int, s: int) -> RectTableau:
    """The distinguished element b^{r,s} of B^{r,s}, as its table scans it."""
    return generate(c, r, s)[0].table.b_rs


def parse_tableau(c: CartanA, text: str, r: int | None = None) -> RectTableau:
    """Inverse of RectTableau.text.  '-' is the trivial element (r defaults to 1)."""
    text = text.strip()
    if text == "-":
        return RectTableau(c, ((),) * (r if r is not None else 1))
    rows = []
    for part in text.split("/"):
        if "," in part:
            rows.append(tuple(int(v) for v in part.split(",")))
        else:
            rows.append(tuple(int(ch) for ch in part))
    return RectTableau(c, tuple(rows))


def parse_tensor(c: CartanA, text: str) -> TensorElt:
    """Tensor elements as factor texts joined by '|'."""
    return TensorElt(tuple(parse_tableau(c, part) for part in text.split("|")))
