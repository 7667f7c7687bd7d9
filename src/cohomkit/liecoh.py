"""Chevalley-Eilenberg cohomology H^n(g, R) with trivial coefficients.

Cochains in degree k are alternating k-linear forms, identified with
coefficient vectors on the wedge basis {e_T : T a strictly increasing index
tuple}, ordered lexicographically.  The trivial-coefficient differential is

    (d w)(x_0, ..., x_k) =
        sum_{i<j} (-1)^{i+j} w([x_i, x_j], x_0, ..., ^x_i, ..., ^x_j, ..., x_k)

and d_{k+1} d_k = 0 exactly.  Everything is computed over Q, so the reported
dimensions are the real-coefficient Betti numbers of the algebra.

`cohomology_report` eliminates only the weight-0 part of the complex.  In
the eigenbasis f_a of `LieAlgebra.grading` (ad(x) f_a = w_a f_a with integer
w_a; x is the wedge boost J_01 on poincare(d)), the dual wedge f^T has
weight w(T) = sum_{a in T} w_a, d preserves w, and the Lie derivative L_x
acts on the weight-w block C^*_w by -w.  Cartan's formula
L_x = d i_x + i_x d makes every block with w != 0 acyclic, so H^k(g) is the
cohomology of C^*_0 and the other blocks have the ranks

    rank d_(k,w) = sum_(j<=k) (-1)^(k-j) dim C^j_w,

with dim C^j_w read off the weight-count polynomial prod_a (1 + y z^(w_a))
(Hochschild-Serre 1953; Fuks 1986, ch. 1).  An algebra with no grading basis
element gets the trivial grading, whose weight-0 block is the whole complex.
The weight-0 blocks are written on ints, from the grading's
`integer_brackets` (D times the table, D the lcm of its denominators, so of
the same rank), and ranked by `RationalMatrix.rank`'s fraction-free
elimination.  `_differential` writes every block; the full d_k is the
weight-0 block of the zero weights.  `ce_differential(g, k)` reads it over Q
in the original basis, the oracle the tests hold the weight-0 route against,
and `LieCocycle2.closure_defect` evaluates a 2-cochain on the rows of d_2.

A 2-cocycle w yields the central extension g + R z with
[x, y]_new = [x, y] + w(x, y) z; the Jacobi identity of the extension is
equivalent to d_2 w = 0 (derived at `lie_central_extension`), decided once.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb

from .exactmat import RationalMatrix, _primitive_rank, check_dense
from .liealg import LieAlgebra, LieElement, StructureConstantError

__all__ = [
    "LieCocycle2",
    "ce_differential",
    "lie_central_extension",
    "splitting_cochain",
    "cohomology_report",
]


def _pair_index(n: int, i: int, j: int) -> int:
    """Position of (i, j), 0 <= i < j < n, in `combinations(range(n), 2)`."""
    if not 0 <= i < j < n:
        raise ValueError(f"basis pair ({i}, {j}) out of range for dimension {n}")
    return i * (2 * n - i - 1) // 2 + j - i - 1


@lru_cache
def _weight_counts(weights: tuple[int, ...]) -> tuple[Counter, ...]:
    """Coefficients of prod_a (1 + y z^weights[a]): entry k maps each weight
    w to dim C^k_w, the number of k-subsets T with sum_{a in T} weights[a] = w.
    Cached per weight tuple; callers only read the counts."""
    counts = [Counter({0: 1})]
    for w in weights:
        counts.append(Counter())
        for k in range(len(counts) - 1, 0, -1):
            for total, c in counts[k - 1].items():
                counts[k][total + w] += c
    return tuple(counts)


@lru_cache(maxsize=256)
def _weight_tuples(weights: tuple[int, ...], k: int, w: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets T of range(len(weights)) with sum_{a in T} weights[a] =
    w, as increasing tuples in lexicographic order.

    Each such T is a union of combinations within the weight classes, so
    only the class counts (c_x) with sum c_x = k are listed, and only those
    with sum c_x x = w are expanded; no subset outside the block is formed.
    Cached per (weights, k, w) like `_weight_counts`: d_k and d_(k-1) both
    need the degree-k tuples, and callers only read them."""
    classes: dict[int, list[int]] = {}
    for a, x in enumerate(weights):
        classes.setdefault(x, []).append(a)
    # (indices still to pick, weight so far, count per class so far)
    partial = [(k, 0, ())]
    room = len(weights)  # indices in the classes not yet counted
    for x, idx in classes.items():
        room -= len(idx)
        partial = [(r - j, s + j * x, counts + (j,)) for r, s, counts in partial
                   for j in range(max(0, r - room), min(len(idx), r) + 1)]
    tuples = []
    for r, s, counts in partial:
        if r == 0 and s == w:
            tuples.extend(map(tuple, map(sorted, map(chain.from_iterable, product(
                *map(combinations, classes.values(), counts))))))
    tuples.sort()
    return tuple(tuples)


def _differential(weights: tuple[int, ...], k: int, weight: int, brackets):
    """(rows, cols): the block of d_k on the wedges e_T of weight `weight`
    (sum_{a in T} weights[a]), its rows as {column: entry} maps of their
    nonzeros, written from `brackets`, a sparse table of Fractions or ints in
    the basis the weights belong to; refused when too large.  The full d_k is
    the weight-0 block of the zero weights."""
    n = len(weights)
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} out of range 0..{n}")
    counts = _weight_counts(weights)
    rows = counts[k + 1][weight] if k < n else 0
    cols = counts[k][weight]
    what = f"the weight-{weight} block of d_{k}" if any(weights) else f"d_{k}"
    check_dense(f"{what} of a {n}-dimensional algebra is a {rows} x {cols} matrix",
                rows * cols)
    target, source = _weight_tuples(weights, k + 1, weight), _weight_tuples(weights, k, weight)
    col_index = {t: c for c, t in enumerate(source)}
    out = []
    for tup in target:
        row = {}
        for i in range(len(tup)):
            for j in range(i + 1, len(tup)):
                support = brackets[tup[i]][tup[j]]
                if not support:
                    continue
                rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                for m, coef in support:
                    if m in rest:
                        continue
                    pos = bisect(rest, m)
                    col = col_index[rest[:pos] + (m,) + rest[pos:]]
                    x = -coef if (i + j + pos) % 2 else coef
                    row[col] = row[col] + x if col in row else x
        out.append({c: x for c, x in row.items() if x})
    return tuple(out), cols


def ce_differential(g: LieAlgebra, k: int, weight: int | None = None) -> RationalMatrix:
    """Matrix of d_k from degree-k to degree-(k+1) cochains, in the
    lexicographic wedge bases: shape C(n, k+1) x C(n, k).

    With `weight`, the block of d_k on the span of the e_T of weight
    `weight` in the eigenbasis of `g.grading`, in the same order.  A matrix
    of more than DENSE_CELL_LIMIT cells is refused before anything is built."""
    rows, cols = (_differential((0,) * g.dim, k, 0, g.brackets) if weight is None
                  else _differential(g.grading.weights, k, weight, g.grading.brackets))
    return RationalMatrix(len(rows), cols, rows)


def cohomology_report(g: LieAlgebra, k: int) -> dict:
    """dim Z^k, B^k and H^k from the weight-0 blocks of d_k and d_(k-1).

    Every block of nonzero weight w is acyclic (the grading element acts on
    it by -w, and by Cartan's formula that action is null-homotopic), so
    rank d_(j,w) = sum_(i<=j) (-1)^(j-i) dim C^i_w, and summed over w != 0
    this needs only dim C^i - dim C^i_0."""
    n, grading = g.dim, g.grading
    zero_counts = [c[0] for c in _weight_counts(grading.weights)]

    def rank(j: int) -> int:
        block, _ = _differential(grading.weights, j, 0, grading.integer_brackets)
        graded = sum((-1) ** (j - i) * (comb(n, i) - zero_counts[i]) for i in range(j + 1))
        return _primitive_rank(block) + graded

    rank_k = rank(k)  # first, so that a degree out of range is refused
    dim_z = comb(n, k) - rank_k
    dim_b = rank(k - 1) if k > 0 else 0
    return {
        "algebra": g.name or "custom",
        "degree": k,
        "dim_Z": dim_z,
        "dim_B": dim_b,
        "dim_H": dim_z - dim_b,
    }


@dataclass(frozen=True)
class LieCocycle2:
    """Antisymmetric bilinear form on the algebra, given on basis pairs i < j."""

    algebra: LieAlgebra
    coeffs: tuple[Fraction, ...]  # lexicographic Lambda^2 coordinates

    @classmethod
    def from_pairs(cls, g: LieAlgebra, pairs: dict) -> "LieCocycle2":
        n = g.dim
        vec = [Fraction(0)] * comb(n, 2)
        for (i, j), val in pairs.items():
            if i == j:
                if Fraction(val):
                    raise ValueError("an alternating form vanishes on equal arguments")
                continue
            if i < j:
                vec[_pair_index(n, i, j)] += Fraction(val)
            else:
                vec[_pair_index(n, j, i)] -= Fraction(val)
        return cls(g, tuple(vec))

    @classmethod
    def zero(cls, g: LieAlgebra) -> "LieCocycle2":
        return cls(g, tuple(Fraction(0) for _ in range(comb(g.dim, 2))))

    def value(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        n = self.algebra.dim
        return self.coeffs[_pair_index(n, i, j)] if i < j else -self.coeffs[_pair_index(n, j, i)]

    def evaluate(self, x: LieElement, y: LieElement) -> Fraction:
        total = Fraction(0)
        for c, (i, j) in zip(self.coeffs, combinations(range(self.algebra.dim), 2)):
            if c:
                total += c * (x.coeffs[i] * y.coeffs[j] - x.coeffs[j] * y.coeffs[i])
        return total

    def closure_defect(self) -> tuple[int, int, int] | None:
        """First basis triple i < j < k with (d_2 w)(x_i, x_j, x_k) != 0, or
        None when closed: w evaluated on the rows of d_2 in turn."""
        n, w = self.algebra.dim, self.coeffs
        rows, _ = _differential((0,) * n, 2, 0, self.algebra.brackets)
        return next((t for t, row in zip(combinations(range(n), 3), rows)
                     if sum(x * w[c] for c, x in row.items())), None)

    def is_closed(self) -> bool:
        return self.closure_defect() is None


def lie_central_extension(g: LieAlgebra, omega: LieCocycle2,
                          central_label: str = "Z", validate: bool = True) -> LieAlgebra:
    """Algebra of dimension dim(g) + 1 with [x, y] += omega(x, y) * z, z central,
    built from the brackets [x_i, x_j], i < j, of g.

    The table is not validated again.  It is antisymmetric by construction,
    and its Jacobi sum on a basis triple is that of g plus z times
    omega(x_i, [x_j, x_k]) + omega(x_j, [x_k, x_i]) + omega(x_k, [x_i, x_j]),
    which is (d_2 omega)(x_i, x_j, x_k); a triple containing z sums to 0.  So
    for a Lie algebra g it is one iff omega is closed, which `closure_defect`
    decides once: a non-closed omega is rejected with its first violating
    basis triple, the first Jacobi violation of the table validate=False builds.
    """
    if omega.algebra is not g:
        raise ValueError("cocycle belongs to a different algebra")
    if validate:
        bad = omega.closure_defect()
        if bad is not None:
            i, j, k = bad
            raise StructureConstantError(
                "2-cochain is not closed: d2 fails at basis triple "
                f"({g.labels[i]}, {g.labels[j]}, {g.labels[k]})", bad)
    n = g.dim
    label = central_label
    while label in g.labels:
        label += "'"
    brackets = {(i, j): dict(g.brackets[i][j]) | {n: omega.value(i, j)}
                for i, j in combinations(range(n), 2)}
    return LieAlgebra.from_brackets(
        tuple(g.labels) + (label,), brackets,
        name=(g.name + "+R" if g.name else "central extension"), validate=False)


def splitting_cochain(g: LieAlgebra, omega: LieCocycle2):
    """Linear form phi with d_1 phi = omega, or None when omega is not exact.

    Existence for every closed omega is the computational content of
    H^2(g, R) = 0; the returned phi splits the central extension through the
    change of basis x -> x - phi(x) z.
    """
    if omega.algebra is not g:
        raise ValueError("cocycle belongs to a different algebra")
    return ce_differential(g, 1).solve(omega.coeffs)
