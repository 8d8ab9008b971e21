"""Kirillov-Reshetikhin crystals of type A_n^(1) as rectangular tableaux.

Elements of B^{r,s} are r x s semistandard rectangles over {1, ..., n+1}.
Classical operators use the bracketing rule on the row reading word (bottom
row first, rows left to right); the affine operators conjugate node 1 through
Schuetzenberger promotion, which realizes the Dynkin rotation j -> j + 1.

Each B^{r,s} is enumerated once into a KRTable, which interns its tableaux
and holds the crystal structure as integer arrays over their indices.  The
bracketing walks build the classical arrays, and promotion is read off those
arrays (Shimozono, Affine type A crystal structure on tensor products of
rectangles, 2002).  The jeu-de-taquin slides build nothing; they stay as
oracles for the promotion arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache

from .cartan import CartanA, ClWeight
from .crystal import CrystalElt, ModelConsistencyError, TensorElt

_TABLES: dict = {}
_CARTANS: dict = {}


class RectTableau(CrystalElt):
    """An element of B^{r,s}.  Tableaux are interned: the constructor checks
    the rows and returns the one object its KRTable holds, so equality is
    identity.  `table` is that KRTable and `pos` the element's index in it.
    So building one tableau enumerates its whole B^{r,s} on first use, and
    the table lives for the rest of the process."""

    __slots__ = ("cartan", "rows", "table", "pos")

    def __new__(cls, cartan: CartanA, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        _check_rows(cartan, rows)
        table = _table(cartan, len(rows), len(rows[0]))
        return table.elements[table.index[rows]]

    def __setattr__(self, name, value):
        raise AttributeError("RectTableau is immutable")

    def __reduce__(self):
        return RectTableau, (self.cartan, self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape

    def content(self) -> tuple[int, ...]:
        counts = [0] * self.cartan.m
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)

    def clweight(self) -> ClWeight:
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
        return (self.shape, self.rows)

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


def _semistandard_rows(m: int, r: int, s: int) -> list:
    """Every r x s semistandard rectangle over {1, ..., m} as a rows tuple,
    in lexicographic order, filling cells in row-major order with an explicit
    stack of positions (no recursion, so s is not bounded by the stack)."""
    cells = r * s
    grid = [0] * cells  # 0: the cell has no value yet
    out = []
    pos = 0
    while pos >= 0:
        if pos == cells:
            out.append(tuple(tuple(grid[i * s:(i + 1) * s]) for i in range(r)))
            pos -= 1
            continue
        if grid[pos]:
            v = grid[pos] + 1
        else:
            i, j = divmod(pos, s)
            v = 1
            if j > 0:
                v = max(v, grid[pos - 1])
            if i > 0:
                v = max(v, grid[pos - s] + 1)
        if v > m:
            grid[pos] = 0
            pos -= 1
        else:
            grid[pos] = v
            pos += 1
    return out


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
    canonical order and `index` maps rows to their position.  The arrays over
    positions are built on first use:

    - cl_e[i][k], cl_f[i][k]: for classical i, the position of e_i / f_i of
      element k, or -1, each from its own bracketing rule;
    - pr, pr_inv: promotion and its inverse as permutations, from cl_e and
      cl_f alone (no slides);
    - e[i][k], f[i][k]: cl_e / cl_f plus node 0 as pr_inv o (node 1) o pr;
    - eps[i][k], phi[i][k]: the lengths of its i-string above and below it;
    - stats[i][k]: the pair (eps[i][k], phi[i][k]);
    - wt[k]: its classical weight, a ClWeight of an int tuple.
    """

    def __init__(self, c: CartanA, r: int, s: int):
        self.cartan = c
        self.shape = (r, s)
        self.name = f"B^{{{r},{s}}}"
        self.elements = tuple(self._intern(rows, k)
                              for k, rows in enumerate(_semistandard_rows(c.m, r, s)))
        self.index = {T.rows: k for k, T in enumerate(self.elements)}

    def _intern(self, rows, k) -> RectTableau:
        T = object.__new__(RectTableau)
        for name, value in (("cartan", self.cartan), ("rows", rows),
                            ("table", self), ("pos", k)):
            object.__setattr__(T, name, value)
        return T

    def _position(self, rows) -> int:
        k = self.index.get(rows)
        if k is None:
            raise ModelConsistencyError(f"a classical arrow left {self.name}")
        return k

    @cached_property
    def wt(self) -> list[ClWeight]:
        m = self.cartan.m
        out = []
        for T in self.elements:
            c = T.content()
            out.append(ClWeight(tuple(c[i - 1] - c[i % m] for i in range(m))))
        return out

    @cached_property
    def pr(self) -> list[int]:
        """Promotion from the classical arrays (Shimozono 2002).  Under nodes
        1..n-1 the crystal has one component for each count k of entries n+1,
        and under nodes 2..n one for each count k of entries 1.  Promotion
        sends the first head with k entries n+1 to the second with k entries 1
        and carries f_i to f_{i+1}, so it is fixed on the heads and follows
        the arrows from there.  Anything else is a ModelConsistencyError."""
        n, m, s = self.cartan.n, self.cartan.m, self.shape[1]
        f = self.cl_f
        size = len(self.elements)
        # rows are weakly increasing: entries n+1 end the bottom row, 1s start the top
        lows = self._heads(range(1, n), lambda rows: s - bisect_left(rows[-1], m))
        highs = self._heads(range(2, n + 1), lambda rows: bisect_right(rows[0], 1))
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
        their rows; two heads with one key are a ModelConsistencyError."""
        e = self.cl_e
        heads = {}
        for b, T in enumerate(self.elements):
            if all(e[i][b] < 0 for i in nodes):
                key = count(T.rows)
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

    def _classical(self, move) -> _ByNode:
        return _ByNode((i, [-1 if rows is None else self._position(rows)
                            for rows in (move(T.rows, i) for T in self.elements)])
                       for i in self.cartan.classical_nodes)

    @cached_property
    def cl_e(self) -> _ByNode:
        return self._classical(_raised)

    @cached_property
    def cl_f(self) -> _ByNode:
        return self._classical(_lowered)

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


@lru_cache(maxsize=None)
def find_b_rs(c: CartanA, r: int, s: int) -> RectTableau:
    """The unique element with eps_0 = s and eps_i = 0 for classical i,
    located by exhaustive scan.  Non-uniqueness means broken 0-arrows."""
    elements = generate(c, r, s)
    eps = elements[0].table.eps
    classical = [eps[i] for i in c.classical_nodes]
    hits = [T for k, T in enumerate(elements)
            if all(row[k] == 0 for row in classical) and eps[0][k] == s]
    if len(hits) != 1:
        raise ModelConsistencyError(
            f"expected one distinguished element in B^{{{r},{s}}}, found {len(hits)}")
    return hits[0]


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
