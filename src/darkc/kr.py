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
signature rule over rows; promotion is read off those arrays.  A tableau is
its position in the table, and its rows are built from its contents only
when they are read.  The walks on the reading word and the jeu-de-taquin
slides build nothing; they stay as oracles for the classical and the
promotion arrays.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, repeat

from .cartan import CartanA
from .crystal import ModelConsistencyError, TensorElt, signature_rule

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
        key = tuple(row.count(v) for row in rows for v in letters)
        return table.elements[table.index[key]]

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

    def clweight(self) -> tuple[int, ...]:
        return self.table.wt[self.pos]

    def e(self, i):
        k = self.table.e[i][self.pos]
        return None if k < 0 else self.table.elements[k]

    def f(self, i):
        k = self.table.f[i][self.pos]
        return None if k < 0 else self.table.elements[k]

    def stats(self, i) -> tuple[int, int]:
        return self.table.stats[i][self.pos]

    def sort_key(self):
        """Positions follow the canonical order of the rows."""
        return (self.shape, self.pos)

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


def _unmatched(rows, i: int):
    """Bracket entries i+1 (as '(') against later entries i (as ')') in the
    reading word; return the leftover (opens, closes) cell lists."""
    opens, closes = [], []
    for a in range(len(rows) - 1, -1, -1):
        for b, v in enumerate(rows[a]):
            if v == i + 1:
                opens.append((a, b))
            elif v == i:
                if opens:
                    opens.pop()
                else:
                    closes.append((a, b))
    return opens, closes


def _with_entry(rows, cell, v):
    a, b = cell
    row = rows[a][:b] + (v,) + rows[a][b + 1:]
    return rows[:a] + (row,) + rows[a + 1:]


def _raised(rows, i: int):
    """The rows with the first unbracketed i+1 raised to i, or None."""
    opens = _unmatched(rows, i)[0]
    return _with_entry(rows, opens[0], i) if opens else None


def _lowered(rows, i: int):
    """The rows with the last unbracketed i lowered to i+1, or None."""
    closes = _unmatched(rows, i)[1]
    return _with_entry(rows, closes[-1], i + 1) if closes else None


def _promoted(rows, m: int):
    """Schuetzenberger promotion on a rectangle: delete the entries equal to
    n+1 (a suffix of the bottom row), slide the holes to the upper left by
    jeu de taquin (leftmost hole first; ties slide the cell above), increment
    everything else, and fill the holes with 1."""
    r, s = len(rows), len(rows[0])
    grid = [list(row) for row in rows]
    hole_cols = [j for j in range(s) if grid[r - 1][j] == m]
    for j in hole_cols:
        grid[r - 1][j] = None
    for j in hole_cols:
        i, k = r - 1, j
        while True:
            above = grid[i - 1][k] if i > 0 else None
            left = grid[i][k - 1] if k > 0 else None
            if above is None and left is None:
                break
            if left is None or (above is not None and above >= left):
                grid[i][k], grid[i - 1][k] = above, None
                i -= 1
            else:
                grid[i][k], grid[i][k - 1] = left, None
                k -= 1
    return tuple(tuple(1 if v is None else v + 1 for v in row) for row in grid)


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


def _string_lengths(step: list[int], i: int) -> list[int]:
    """For each index, how often `step` applies before it gives -1, walking
    each string once and iteratively."""
    out = [-1] * len(step)
    for k in range(len(step)):
        path = []
        j = k
        while j >= 0 and out[j] < 0:
            path.append(j)
            if len(path) > len(step):
                raise ModelConsistencyError(f"node {i} string does not terminate")
            j = step[j]
        length = -1 if j < 0 else out[j]
        for p in reversed(path):
            length += 1
            out[p] = length
    return out


class _ByNode(dict):
    """Arrays keyed by node; a node out of range raises IndexError."""

    def __missing__(self, i):
        raise IndexError(f"node {i} out of range")


class KRTable:
    """B^{r,s} enumerated once.  `elements` holds the interned tableaux in
    canonical order, `contents` their joined row contents (top row first,
    see _contents) and `index` maps those to their position.  The arrays over
    positions are built on first use:

    - cl_e[i][k], cl_f[i][k]: for classical i, the position of e_i / f_i of
      element k, or -1, both from one signature rule over its rows;
    - pr, pr_inv: promotion and its inverse as permutations, from cl_e and
      cl_f alone (no slides);
    - e[i][k], f[i][k]: cl_e / cl_f plus node 0 as pr_inv o (node 1) o pr;
    - eps[i][k], phi[i][k]: the lengths of its i-string above and below it;
    - stats[i][k]: the pair (eps[i][k], phi[i][k]);
    - wt[k]: its classical weight, the int tuple of its Lambda coefficients;
    - b_rs: the distinguished element b^{r,s}.
    """

    def __init__(self, c: CartanA, r: int, s: int):
        self.cartan = c
        self.shape = (r, s)
        self.name = f"B^{{{r},{s}}}"
        self.contents = _contents(c.m, r, s)
        self.index = {cs: k for k, cs in enumerate(self.contents)}
        self.elements = tuple(map(self._intern, range(len(self.contents))))

    def _intern(self, k) -> RectTableau:
        T = object.__new__(RectTableau)
        for name, value in (("cartan", self.cartan), ("table", self), ("pos", k)):
            object.__setattr__(T, name, value)
        return T

    @cached_property
    def wt(self) -> list[tuple[int, ...]]:
        m = self.cartan.m
        out = []
        for T in self.elements:
            c = T.content()
            out.append(tuple(c[i - 1] - c[i % m] for i in range(m)))
        return out

    @cached_property
    def b_rs(self) -> RectTableau:
        """The unique element with eps_0 = s and eps_i = 0 for classical i,
        located by exhaustive scan.  Non-uniqueness means broken 0-arrows."""
        eps, s = self.eps, self.shape[1]
        classical = [eps[i] for i in self.cartan.classical_nodes]
        hits = [T for k, T in enumerate(self.elements)
                if all(row[k] == 0 for row in classical) and eps[0][k] == s]
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
        while stack:
            b = stack.pop()
            p = pr[b]
            for i in range(1, n):
                c, d = f[i][b], f[i + 1][p]
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
        e = self.cl_e
        heads = {}
        for b, cs in enumerate(self.contents):
            if all(e[i][b] < 0 for i in nodes):
                key = count(cs)
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
    def _classical(self) -> tuple[_ByNode, _ByNode]:
        """cl_e and cl_f by one signature rule per element and node.  The
        rows go in top row first (the reading word backwards), each as the
        pair (#(i+1), #i) of its eps_i and phi_i.  e_i turns one i+1 of the
        chosen row into i, f_i one i into i+1, and the moved content is
        looked up in `index`."""
        m = self.cartan.m
        starts = range(0, self.shape[0] * m, m)
        e, f = _ByNode(), _ByNode()
        for i in self.cartan.classical_nodes:
            e[i], f[i] = up_i, down_i = [], []
            for cs in self.contents:
                _, _, up, down = signature_rule([(cs[a + i], cs[a + i - 1]) for a in starts])
                up_i.append(-1 if up is None else self._moved(cs, up * m + i - 1, 1))
                down_i.append(-1 if down is None else self._moved(cs, down * m + i - 1, -1))
        return e, f

    def _moved(self, cs, j: int, d: int) -> int:
        """The position of the contents cs after d counts move from index
        j + 1 to index j; e_i (d = 1) and f_i (d = -1) of row a use j = a*m + i - 1."""
        moved = list(cs)
        moved[j] += d
        moved[j + 1] -= d
        k = self.index.get(tuple(moved))
        if k is None:
            raise ModelConsistencyError(f"a classical arrow left {self.name}")
        return k

    cl_e = property(lambda self: self._classical[0])
    cl_f = property(lambda self: self._classical[1])

    def _affine(self, classical: _ByNode) -> _ByNode:
        """The classical arrays plus node 0 as pr_inv o (node 1) o pr."""
        one, pr_inv = classical[1], self.pr_inv
        arrays = _ByNode(classical)
        arrays[0] = [-1 if one[j] < 0 else pr_inv[one[j]] for j in self.pr]
        return arrays

    @cached_property
    def e(self) -> _ByNode:
        return self._affine(self.cl_e)

    @cached_property
    def f(self) -> _ByNode:
        return self._affine(self.cl_f)

    @cached_property
    def eps(self) -> _ByNode:
        return _ByNode((i, _string_lengths(self.e[i], i)) for i in self.cartan.nodes)

    @cached_property
    def phi(self) -> _ByNode:
        return _ByNode((i, _string_lengths(self.f[i], i)) for i in self.cartan.nodes)

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


def classical_f(i: int, T: RectTableau):
    """Lower the last unbracketed i to i+1, or None; a walk on the tableau."""
    T.cartan.check_classical(i)
    rows = _lowered(T.rows, i)
    return None if rows is None else RectTableau(T.cartan, rows)


def classical_e(i: int, T: RectTableau):
    """Raise the first unbracketed i+1 to i, or None; a walk on the tableau."""
    T.cartan.check_classical(i)
    rows = _raised(T.rows, i)
    return None if rows is None else RectTableau(T.cartan, rows)


def promotion(T: RectTableau) -> RectTableau:
    return T.table.elements[T.table.pr[T.pos]]


def promotion_inverse(T: RectTableau) -> RectTableau:
    return T.table.elements[T.table.pr_inv[T.pos]]


def promote_k(T: RectTableau, k: int) -> RectTableau:
    powers = T.table.pr_powers
    return T.table.elements[powers[k % len(powers)][T.pos]]


def promotion_by_slides(T: RectTableau) -> RectTableau:
    """Promotion by jeu de taquin on the tableau itself: the oracle for pr."""
    return RectTableau(T.cartan, _promoted(T.rows, T.cartan.m))


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


def tableau_text(T: RectTableau) -> str:
    return T.text()


def parse_tableau(c: CartanA, text: str, r: int | None = None) -> RectTableau:
    """Inverse of tableau_text.  '-' is the trivial element (r defaults to 1)."""
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
