"""Combinatorial R-matrix and energy on tensor products of KR crystals.

Both are computed per pair on first lookup, from the classical highest
element u of the pair's classical component (Shimozono 2002):

- R is the unique classical isomorphism.  It sends u to the highest element
  of the same weight in the swapped product (products of two rectangles are
  multiplicity free; violations raise), and the rest of the component along
  the lowering word that leads from u back to the pair.
- The local energy H is constant on classical components.  The content of u
  is a partition lambda, and H = -(number of boxes of lambda below row
  max(r, r')) for rectangles with r and r' rows.  So H = 0 on the pair of
  classical highest elements.

The breadth-first propagation of H over all arrows, which fills whole tables,
is kept as the independent oracle `selftest.EnergyOracle`.
"""

from __future__ import annotations

from .cartan import CartanA
from .crystal import ModelConsistencyError, TensorElt, classical_highest_path, eps
from .kr import generate

_TABLES: dict = {}


class EnergyTable:
    """R and H for one ordered pair of rectangle crystals.  R and H hold the
    entries known so far: the classical highest elements from construction,
    and every pair a lookup has passed through since."""

    def __init__(self, c: CartanA, shape_left: tuple[int, int],
                 shape_right: tuple[int, int]):
        self.cartan = c
        self.shape_left = shape_left
        self.shape_right = shape_right
        left = generate(c, *shape_left)
        right = generate(c, *shape_right)
        highest = self._hw_by_weight(left, right)
        swapped = self._hw_by_weight(right, left)
        if set(highest) != set(swapped):
            raise ModelConsistencyError("highest weights of swapped pair differ")
        rows = max(shape_left[0], shape_right[0])
        self.R = {u.factors: swapped[w].factors for w, u in highest.items()}
        self.H = {u.factors: -sum(_content(u)[rows:]) for u in highest.values()}

    def _hw_by_weight(self, A, B):
        """Classical highest elements of A (x) B by weight.  Their left factor
        is the highest element of A: its '-' signs come first, so nothing can
        cancel them, and only the |B| tensors with that left factor are
        scanned."""
        top, _ = classical_highest_path(A[0])
        out = {}
        for b in B:
            t = TensorElt((top, b))
            if all(eps(t, i) == 0 for i in self.cartan.classical_nodes):
                w = t.clweight()
                if w in out:
                    raise ModelConsistencyError(
                        "classical multiplicity in a rectangle pair")
                out[w] = t
        return out

    def entry(self, a, b) -> tuple[tuple, int]:
        """(R(a (x) b) as a factor pair, H(a (x) b)).  A new pair is raised
        along classical nodes, smallest index first, until it meets a known
        entry; R is carried back down the same word and H is copied, which
        sets the entry of every pair on the way."""
        key = (a, b)
        if key not in self.H:
            x, steps = TensorElt(key), []
            while x.factors not in self.H:
                for i in self.cartan.classical_nodes:
                    y = x.e(i)
                    if y is not None:
                        steps.append((x.factors, i))
                        x = y
                        break
                else:
                    raise ModelConsistencyError("highest element missed by the scan")
            img, h = TensorElt(self.R[x.factors]), self.H[x.factors]
            for pair, i in reversed(steps):
                img = img.f(i)
                if img is None:
                    raise ModelConsistencyError("R transport left the crystal")
                self.R[pair] = img.factors
                self.H[pair] = h
        return self.R[key], self.H[key]


def _content(x: TensorElt) -> list[int]:
    """How often each letter occurs in x; a partition when x is classical
    highest."""
    return [sum(col) for col in zip(*(f.content() for f in x.factors))]


def energy_table(c: CartanA, shape_left, shape_right) -> EnergyTable:
    key = (c.n, tuple(shape_left), tuple(shape_right))
    if key not in _TABLES:
        _TABLES[key] = EnergyTable(c, tuple(shape_left), tuple(shape_right))
    return _TABLES[key]


def _pair_entry(x: TensorElt) -> tuple[tuple, int]:
    if len(x.factors) != 2:
        raise ValueError("expected a two-factor tensor element")
    a, b = x.factors
    return energy_table(x.cartan, a.shape, b.shape).entry(a, b)


def comb_R(x: TensorElt) -> TensorElt:
    """The combinatorial R-matrix image in the swapped product."""
    return TensorElt(_pair_entry(x)[0])


def local_H(x: TensorElt) -> int:
    return _pair_entry(x)[1]


def pair_energies(x: TensorElt) -> list[tuple[int, int, int]]:
    """(i, j, H) for each pair of factor positions i < j, counted from 0:
    H(b_i, b_j pulled next to b_i), moving factor j left with successive R
    applications."""
    fs = x.factors
    c = x.cartan
    out = []
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            t = fs[j]
            for k in range(j - 1, i, -1):
                t = energy_table(c, fs[k].shape, t.shape).entry(fs[k], t)[0][0]
            out.append((i, j, energy_table(c, fs[i].shape, t.shape).entry(fs[i], t)[1]))
    return out


def total_D(x: TensorElt) -> int:
    """Total energy: the sum of pair_energies.  Rectangle crystals are
    classically irreducible, so there are no single-factor terms."""
    return sum(h for _, _, h in pair_energies(x))
