"""Fraction oracles for the Lie layer's integer-row closures, and helpers
that only the tests use.

`FractionSpan` grows a reduced echelon basis on Fraction rows, and the
closure oracles run the bracket-closure procedures on it with
`LieElement.bracket`, each vector first scaled to leading coefficient 1:
an independent route to the bases `liealg` computes on integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from cohomkit.liealg import LieAlgebra, LieElement


def from_structure_constants(labels, constants, name: str = "",
                             validate: bool = True) -> LieAlgebra:
    """Build from a dense table c[i][j][k], read once into the sparse table."""
    n = len(labels)
    rows = [[tuple((k, c) for k, c in enumerate(map(Fraction, constants[i][j])) if c)
             for j in range(n)] for i in range(n)]
    alg = LieAlgebra(tuple(str(l) for l in labels), tuple(map(tuple, rows)), name)
    if validate:
        alg.validate()
    return alg


def is_bracket_closed(span) -> bool:
    b = span.basis()
    return all(span.contains(x.bracket(y)) for x in b for y in b)


class FractionSpan:
    """The reduced echelon basis of a span on dense Fraction rows, pivots
    ascending; `add` scales each vector to leading coefficient 1 first."""

    def __init__(self, g: LieAlgebra, vectors=()):
        self.g = g
        self.pivots: list[int] = []
        self.rows: list[list[Fraction]] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, elem: LieElement) -> bool:
        lead = next((c for c in elem.coeffs if c), None)
        if lead is None:
            return False
        out = [Fraction(c) / lead for c in elem.coeffs]
        for c, row in zip(self.pivots, self.rows):
            f = out[c]
            if f:
                out = [x - f * y for x, y in zip(out, row)]
        c = next((j for j, x in enumerate(out) if x), None)
        if c is None:
            return False
        out = [x / out[c] for x in out]
        self.rows = [[x - row[c] * y for x, y in zip(row, out)] for row in self.rows]
        i = sum(p < c for p in self.pivots)
        self.pivots.insert(i, c)
        self.rows.insert(i, out)
        return True

    def basis(self) -> list[LieElement]:
        return [LieElement(self.g, tuple(row)) for row in self.rows]


def derived_oracle(g: LieAlgebra) -> FractionSpan:
    span = FractionSpan(g)
    for i, j in combinations(range(g.dim), 2):
        span.add(g.basis_element(i).bracket(g.basis_element(j)))
    return span


def generated_oracle(g: LieAlgebra, gens) -> FractionSpan:
    span = FractionSpan(g, gens)
    while True:
        before = span.dim
        current = span.basis()
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                span.add(a.bracket(b))
        if span.dim == before:
            return span


def ideal_oracle(g: LieAlgebra, x: LieElement) -> FractionSpan:
    span = FractionSpan(g)
    pending = [x] if span.add(x) else []
    while pending:
        b = pending.pop()
        for e in g.basis():
            v = e.bracket(b)
            if span.add(v):
                pending.append(v)
    return span
