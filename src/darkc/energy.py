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

Pairs are raised and lowered by the signature rule of `crystal.Codes`, the
one `dark.build` runs on, and `total_D` takes a code.  `comb_R` and `local_H`
convert tensor elements at the boundary.  The breadth-first propagation of H
over all arrows, which fills whole tables, is kept as the independent oracle
`selftest.EnergyOracle`.
"""

from __future__ import annotations

from .cartan import CartanA
from .crystal import Codes, ModelConsistencyError, TensorElt
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
        self.pair = Codes((left, right))
        self.swapped = Codes((right, left))
        highest = self._hw_by_weight(self.pair)
        swapped = self._hw_by_weight(self.swapped)
        if set(highest) != set(swapped):
            raise ModelConsistencyError("highest weights of swapped pair differ")
        rows = max(shape_left[0], shape_right[0])
        self.R = {u: swapped[w] for w, u in highest.items()}
        self.H = {u: -sum(_content(self.pair, u)[rows:]) for u in highest.values()}

    def _hw_by_weight(self, space: Codes) -> dict:
        """Classical highest elements of a pair by weight.  Their left factor
        is the highest element of its table, position 0 (contents sort with
        more 1s first, so its row a holds only a+1): its '-' signs come first,
        so nothing can cancel them, and only the pairs (0, b) are scanned."""
        nodes = [space.node(i) for i in self.cartan.classical_nodes]
        out = {}
        for b in range(len(space.tables[1].elements)):
            x = (0, b)
            if all(node(x)[0] == 0 for node in nodes):
                w = space.weight(x)
                if w in out:
                    raise ModelConsistencyError(
                        "classical multiplicity in a rectangle pair")
                out[w] = x
        return out

    def entry(self, a: int, b: int) -> tuple[tuple[int, int], int]:
        """(R(a (x) b) as a position pair, H(a (x) b)).  A new pair is raised
        along classical nodes, smallest index first, until it meets a known
        entry; R is carried back down the same word and H is copied, which
        sets the entry of every pair on the way."""
        key = (a, b)
        if key not in self.H:
            x, steps = key, []
            up = [(i, self.pair.node(i)) for i in self.cartan.classical_nodes]
            while x not in self.H:
                for i, node in up:
                    y = node(x)[2]
                    if y is not None:
                        steps.append((x, i))
                        x = y
                        break
                else:
                    raise ModelConsistencyError("highest element missed by the scan")
            img, h = self.R[x], self.H[x]
            for pair, i in reversed(steps):
                img = self.swapped.f(i)(img)
                if img is None:
                    raise ModelConsistencyError("R transport left the crystal")
                self.R[pair] = img
                self.H[pair] = h
        return self.R[key], self.H[key]


def _content(space: Codes, x) -> list[int]:
    """How often each letter occurs in the element of code x; a partition
    when x is classical highest."""
    return [sum(col) for col in zip(*(t.elements[k].content()
                                      for t, k in zip(space.tables, x)))]


def energy_table(c: CartanA, shape_left, shape_right) -> EnergyTable:
    key = (c.n, tuple(shape_left), tuple(shape_right))
    if key not in _TABLES:
        _TABLES[key] = EnergyTable(c, tuple(shape_left), tuple(shape_right))
    return _TABLES[key]


def _pair_entry(x: TensorElt) -> tuple[EnergyTable, tuple[tuple[int, int], int]]:
    if len(x.factors) != 2:
        raise ValueError("expected a two-factor tensor element")
    a, b = x.factors
    table = energy_table(x.cartan, a.shape, b.shape)
    return table, table.entry(a.pos, b.pos)


def comb_R(x: TensorElt) -> TensorElt:
    """The combinatorial R-matrix image in the swapped product."""
    table, (img, _) = _pair_entry(x)
    return table.swapped.element(img)


def local_H(x: TensorElt) -> int:
    return _pair_entry(x)[1][1]


def pair_energies(space: Codes, x) -> list[tuple[int, int, int]]:
    """(i, j, H) for each pair of factor positions i < j of the code x over
    space, counted from 0: H(b_i, b_j pulled next to b_i), moving factor j
    left with successive R applications."""
    tables = space.tables
    c = tables[0].cartan
    out = []
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            shape, t = tables[j].shape, x[j]
            for k in range(j - 1, i, -1):
                t = energy_table(c, tables[k].shape, shape).entry(x[k], t)[0][0]
            out.append((i, j, energy_table(c, tables[i].shape, shape).entry(x[i], t)[1]))
    return out


def total_D(space: Codes, x) -> int:
    """Total energy of the code x over space: the sum of pair_energies.
    Rectangle crystals are classically irreducible, so there are no
    single-factor terms."""
    return sum(h for _, _, h in pair_energies(space, x))
