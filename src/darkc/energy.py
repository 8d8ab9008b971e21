"""Combinatorial R-matrix and energy on tensor products of KR crystals.

R and H are keyed by the code x = a*len(B2) + b of the pair (a, b) of table
positions in B1 (x) B2, and computed per pair on first lookup from the
classical highest element u of the pair's classical component (Shimozono
2002):

- R is the unique classical isomorphism.  It sends u to the highest element
  of the same weight in the swapped product (products of two rectangles are
  multiplicity free; violations raise), and the rest of the component along
  the lowering word that leads from u back to the pair.
- The local energy H is constant on classical components.  The content of u
  is a partition lambda, and H = -(number of boxes of lambda below row
  max(r, r')) for rectangles with r and r' rows.  So H = 0 on the pair of
  classical highest elements.

Pairs are raised and lowered on their codes by the steps of
`crystal.ProductTable`, as `dark.build` closes its sets, and R's values are
codes of the swapped pair; `total_D` takes a code of a whole product.
`comb_R` converts tensor elements at the boundary.  The independent oracle
`selftest.EnergyOracle` fills whole tables, lists over the same codes, by
breadth-first propagation of H over the arrays of `crystal.ProductTable`,
the rule in its row shape, sharing no tensor-rule code with these steps.
"""

from __future__ import annotations

from operator import add

from .cartan import CartanA
from .crystal import ModelConsistencyError, ProductTable, TensorElt
from .kr import generate

_TABLES: dict = {}


class EnergyTable:
    """R and H for one ordered pair of rectangle crystals, keyed by the codes
    of `pair`; R's values are codes of `swapped`, the swapped product.  R and
    H hold the entries known so far: the classical highest elements from
    construction, and every pair a lookup has passed through since."""

    def __init__(self, c: CartanA, shape_left: tuple[int, int],
                 shape_right: tuple[int, int]):
        self.cartan = c
        left = generate(c, *shape_left)[0].table
        right = generate(c, *shape_right)[0].table
        self.pair = ProductTable(left, right)
        self.swapped = ProductTable(right, left)
        # the steps of entry's walks, made once per table
        self.ups = [(i, self.pair.raising(i)) for i in c.classical_nodes]
        self.downs = {i: self.swapped.lowering(i) for i in c.classical_nodes}
        highest = self._hw_by_weight(self.pair)
        swapped = self._hw_by_weight(self.swapped)
        if set(highest) != set(swapped):
            raise ModelConsistencyError("highest weights of swapped pair differ")
        rows = max(shape_left[0], shape_right[0])
        self.R = {u: swapped[w] for w, u in highest.items()}
        self.H = {u: -sum(_content(self.pair, u)[rows:]) for u in highest.values()}

    def _hw_by_weight(self, space: ProductTable) -> dict:
        """Classical highest elements of a pair by weight, as codes.  Their
        left factor is the highest element of its table, position 0 (contents
        sort with more 1s first, so its row a holds only a+1): its '-' signs
        come first, so nothing can cancel them, and only the pairs (0, b),
        whose code is b, are scanned."""
        ups = [space.raising(i) for i in self.cartan.classical_nodes]
        top = space.left.wt[0]
        out = {}
        for b, v in enumerate(space.right.wt):
            if all(up(b) < 0 for up in ups):
                w = tuple(map(add, top, v))
                if w in out:
                    raise ModelConsistencyError(
                        "classical multiplicity in a rectangle pair")
                out[w] = b
        return out

    def entry(self, x: int) -> tuple[int, int]:
        """(R(x) as a code of swapped, H(x)) for the code x of a pair.  A new
        pair is raised along classical nodes, smallest index first, until it
        meets a known entry; R is carried back down the same word and H is
        copied, which sets the entry of every pair on the way."""
        if x not in self.H:
            y, steps = x, []
            while y not in self.H:
                for i, up in self.ups:
                    z = up(y)
                    if z >= 0:
                        steps.append((y, i))
                        y = z
                        break
                else:
                    raise ModelConsistencyError("highest element missed by the scan")
            img, h = self.R[y], self.H[y]
            for y, i in reversed(steps):
                img = self.downs[i](img)
                if img < 0:
                    raise ModelConsistencyError("R transport left the crystal")
                self.R[y] = img
                self.H[y] = h
        return self.R[x], self.H[x]


def _content(space: ProductTable, x: int) -> list[int]:
    """How often each letter occurs in the element of code x; a partition
    when x is classical highest."""
    return [sum(col) for col in zip(*(t.elements[k].content()
                                      for t, k in zip(space.tables, space.factors(x))))]


def energy_table(c: CartanA, shape_left, shape_right) -> EnergyTable:
    key = (c.n, tuple(shape_left), tuple(shape_right))
    if key not in _TABLES:
        _TABLES[key] = EnergyTable(c, tuple(shape_left), tuple(shape_right))
    return _TABLES[key]


def comb_R(x: TensorElt) -> TensorElt:
    """The combinatorial R-matrix image in the swapped product."""
    if len(x.factors) != 2:
        raise ValueError("expected a two-factor tensor element")
    a, b = x.factors
    table = energy_table(x.cartan, a.shape, b.shape)
    return table.swapped.element(table.entry(table.pair.code(x))[0])


def pair_energies(space: ProductTable, x: int) -> list[tuple[int, int, int]]:
    """(i, j, H) for each pair of factor positions i < j of the code x over
    space, counted from 0: H(b_i, b_j pulled next to b_i), moving factor j
    left with successive R applications."""
    tables = space.tables
    c = tables[0].cartan
    x = space.factors(x)
    out = []
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            shape, t = tables[j].shape, x[j]
            for k in range(j - 1, i, -1):
                table = energy_table(c, tables[k].shape, shape)
                t = table.entry(x[k] * table.pair.width + t)[0] // table.swapped.width
            table = energy_table(c, tables[i].shape, shape)
            out.append((i, j, table.entry(x[i] * table.pair.width + t)[1]))
    return out


def total_D(space: ProductTable, x: int) -> int:
    """Total energy of the code x over space: the sum of pair_energies.
    Rectangle crystals are classically irreducible, so there are no
    single-factor terms."""
    return sum(h for _, _, h in pair_energies(space, x))
