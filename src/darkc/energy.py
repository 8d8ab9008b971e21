"""Combinatorial R-matrix and energy on tensor products of KR crystals.

R and H are keyed by the pair (a, b) of table positions, and computed per
pair on first lookup from the classical highest element u of the pair's
classical component (Shimozono 2002):

- R is the unique classical isomorphism.  It sends u to the highest element
  of the same weight in the swapped product (products of two rectangles are
  multiplicity free; violations raise), and the rest of the component along
  the lowering word that leads from u back to the pair.
- The local energy H is constant on classical components.  The content of u
  is a partition lambda, and H = -(number of boxes of lambda below row
  max(r, r')) for rectangles with r and r' rows.  So H = 0 on the pair of
  classical highest elements.

Pairs are raised and lowered on int codes by the steps of
`crystal.ProductTable`, as `dark.build` closes its sets, and `total_D` takes
such a code.  `comb_R` converts tensor elements at the boundary.
The independent oracle `selftest.EnergyOracle` fills whole tables by
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
    """R and H for one ordered pair of rectangle crystals, keyed by the pair
    (a, b) of positions in their tables; R's values are position pairs in the
    swapped product.  R and H hold the entries known so far: the classical
    highest elements from construction, and every pair a lookup has passed
    through since."""

    def __init__(self, c: CartanA, shape_left: tuple[int, int],
                 shape_right: tuple[int, int]):
        self.cartan = c
        self.shape_left = shape_left
        self.shape_right = shape_right
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
        self.R = {(0, u): (0, swapped[w]) for w, u in highest.items()}
        self.H = {(0, u): -sum(_content(self.pair, u)[rows:]) for u in highest.values()}

    def _hw_by_weight(self, space: ProductTable) -> dict:
        """Classical highest elements of a pair by weight, as codes.  Their
        left factor is the highest element of its table, position 0 (contents
        sort with more 1s first, so its row a holds only a+1): its '-' signs
        come first, so nothing can cancel them, and only the codes b of the
        pairs (0, b) are scanned."""
        ups = [space.raising(i) for i in self.cartan.classical_nodes]
        top = space.left.wt[0]
        out = {}
        for b, v in enumerate(space.right.wt):
            if all(up(b) is None for up in ups):
                w = tuple(map(add, top, v))
                if w in out:
                    raise ModelConsistencyError(
                        "classical multiplicity in a rectangle pair")
                out[w] = b
        return out

    def entry(self, a: int, b: int) -> tuple[tuple[int, int], int]:
        """(R(a (x) b) as a position pair, H(a (x) b)).  A new pair is raised
        along classical nodes, smallest index first, until it meets a known
        entry; R is carried back down the same word and H is copied, which
        sets the entry of every pair on the way.  The walk runs on the codes
        of the pair and of the swapped pair."""
        key = (a, b)
        if key not in self.H:
            n = self.pair.width
            x, steps = a * n + b, []
            while (pair := divmod(x, n)) not in self.H:
                for i, up in self.ups:
                    y = up(x)
                    if y is not None:
                        steps.append((pair, i))
                        x = y
                        break
                else:
                    raise ModelConsistencyError("highest element missed by the scan")
            (ra, rb), h = self.R[pair], self.H[pair]
            n = self.swapped.width
            img = ra * n + rb
            for pair, i in reversed(steps):
                img = self.downs[i](img)
                if img is None:
                    raise ModelConsistencyError("R transport left the crystal")
                self.R[pair] = divmod(img, n)
                self.H[pair] = h
        return self.R[key], self.H[key]


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
    img = table.entry(a.pos, b.pos)[0]
    return TensorElt(t.elements[k] for t, k in zip(table.swapped.tables, img))


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
                t = energy_table(c, tables[k].shape, shape).entry(x[k], t)[0][0]
            out.append((i, j, energy_table(c, tables[i].shape, shape).entry(x[i], t)[1]))
    return out


def total_D(space: ProductTable, x: int) -> int:
    """Total energy of the code x over space: the sum of pair_energies.
    Rectangle crystals are classically irreducible, so there are no
    single-factor terms."""
    return sum(h for _, _, h in pair_energies(space, x))
