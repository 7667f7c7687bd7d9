"""Finite-dimensional Lie algebras over Q presented by structure constants.

An algebra stores one canonical sparse table: `brackets[i][j]` holds the
nonzero (k, c_ijk) of [x_i, x_j] = sum_k c_ijk x_k, k ascending, for both
orders of i and j, and the dense view `constants` is built only on request.
Antisymmetry and the Jacobi identity are validated on construction (unless
validate=False), skipping every basis triple whose pair brackets all vanish,
so the cost follows the nonzero brackets.  The module provides the
bracket-closure procedures the rest of the toolkit leans on: the derived
subalgebra, the subalgebra generated by a finite family, and the ideal
generated by a single element.

The relativistic builtins lorentz(d) and poincare(d) are defined once, by
the integer affine matrices of `poincare_basis_matrices` (metric
`metric_signs`): their structure constants are the commutators of those
matrices, read back by `affine_coefficients`.  The bracket formulas of
CONVENTIONS.md are consequences of that definition; the physics boost
generator with [K_i, P_0] = P_i is K_i = J_i0 = -J_0i.

Element coefficients are `fractions.Fraction` throughout.  A `Subspace`
keeps the reduced echelon basis of an `exactmat.Echelon` (on primitive
integer rows), refusing a coefficient that is not exact.  Closures need only
directions, so they bracket those rows through `integer_brackets`, the
table times the lcm of its denominators, cleared once per algebra.  An
algebra of dimension n > 161, whose dense view would exceed the 2^22-cell
budget (n^3 cells), is refused before anything sized by n is built.

`LieAlgebra.grading` is the eigenbasis of ad(x) for the first basis element
x whose adjoint is diagonalizable over Q with integer eigenvalues, not all
zero (on poincare(d) and lorentz(d) that is the wedge boost J_01; on sl2,
h).  It is computed on first use and kept on the algebra object; the
Chevalley-Eilenberg layer reads its cohomology off the weight-0 part.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from math import isqrt, lcm
from typing import Iterable, Sequence

from .exactmat import Echelon, RationalMatrix, check_dense

__all__ = [
    "LieAlgebra",
    "LieElement",
    "Grading",
    "Subspace",
    "StructureConstantError",
    "derived_subalgebra",
    "is_perfect",
    "generated_subalgebra",
    "ideal_closure",
    "builtin",
    "metric_signs",
    "poincare_basis_matrices",
    "affine_coefficients",
    "algebra_to_json",
    "algebra_from_json",
]

Support = tuple[tuple[int, Fraction], ...]


def _check_table(n: int) -> None:
    """Refuse dimension n when its n^3 structure constants exceed the dense
    budget (n > 161), before anything sized by n is built."""
    check_dense(f"a {n}-dimensional algebra has a {n} x {n} x {n} table of structure "
                f"constants", n ** 3)


def _negated(support: Support) -> Support:
    return tuple((k, -c) for k, c in support)


def _bracket(table, x, y, out: list) -> list:
    """Add sum a_i b_j [x_i, x_j] over the pairs (i, a) of x and (j, b) of y
    into the dense `out`, for a sparse bracket table of Fractions or ints."""
    for i, a in x:
        row = table[i]
        for j, b in y:
            ab = a * b
            for k, c in row[j]:
                out[k] += ab * c
    return out


class _BracketTable:
    """The integer view of `LieAlgebra.brackets` and `Grading.brackets`."""

    @cached_property
    def integer_brackets(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """`brackets` times the lcm of its denominators: the same bracket
        directions, on ints.  Built on first use."""
        den = lcm(*(c.denominator for row in self.brackets for s in row for _, c in s))
        return tuple(tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in s)
                           for s in row) for row in self.brackets)


class StructureConstantError(ValueError):
    """Raised when a structure-constant table fails validation.

    `triple` carries the offending basis indices: a pair for an
    antisymmetry violation, a triple for a Jacobi violation.
    """

    def __init__(self, message: str, triple: tuple[int, ...]):
        super().__init__(message)
        self.triple = triple


@dataclass(frozen=True)
class LieAlgebra(_BracketTable):
    labels: tuple[str, ...]
    brackets: tuple[tuple[Support, ...], ...]
    name: str = ""

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def from_brackets(cls, labels: Sequence[str], brackets: dict, name: str = "",
                      validate: bool = True) -> "LieAlgebra":
        """Build from a sparse {(i, j): {k: coeff}} table; the antisymmetric
        completion is filled in automatically.  Giving both (i, j) and
        (j, i) is allowed only when they agree: [x_j, x_i] = -[x_i, x_j]."""
        n = len(labels)
        _check_table(n)
        given: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), coeffs in brackets.items():
            if i == j:
                raise ValueError("diagonal brackets are identically zero")
            if not all(0 <= m < n for m in (i, j, *coeffs)):
                raise ValueError(f"bracket ({i}, {j}) has an index outside 0..{n - 1}")
            row = {k: c for k, val in coeffs.items() if (c := Fraction(val))}
            if given.setdefault((i, j), row) != row:
                raise ValueError(f"inconsistent bracket given for pair ({min(i, j)}, {max(i, j)})")
            given[j, i] = {k: -c for k, c in row.items()}
        rows = [[()] * n for _ in range(n)]
        for (i, j), coeffs in given.items():
            rows[i][j] = tuple(sorted(coeffs.items()))
        alg = cls(tuple(str(l) for l in labels), tuple(map(tuple, rows)), name)
        if validate:
            alg.validate()
        return alg

    @cached_property
    def constants(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The dense table c[i][j][k], built from `brackets` on first use."""
        zero, rows = Fraction(0), [list(map(dict, row)) for row in self.brackets]
        return tuple(tuple(tuple(c.get(k, zero) for k in range(self.dim)) for c in row)
                     for row in rows)

    # -- element construction ------------------------------------------------

    def zero(self) -> "LieElement":
        return LieElement(self, tuple(Fraction(0) for _ in range(self.dim)))

    def basis_element(self, index: int) -> "LieElement":
        coeffs = [Fraction(0)] * self.dim
        coeffs[index] = Fraction(1)
        return LieElement(self, tuple(coeffs))

    def basis(self) -> list["LieElement"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def element(self, coeffs) -> "LieElement":
        """Vector of coefficients, or {label: coeff} mapping."""
        if isinstance(coeffs, dict):
            vec = [Fraction(0)] * self.dim
            for label, val in coeffs.items():
                vec[self.labels.index(label)] = Fraction(val)
            return LieElement(self, tuple(vec))
        vec = tuple(Fraction(x) for x in coeffs)
        if len(vec) != self.dim:
            raise ValueError("coefficient vector length does not match dimension")
        return LieElement(self, vec)

    def by_label(self, label: str) -> "LieElement":
        return self.basis_element(self.labels.index(label))

    # -- validation ----------------------------------------------------------

    @cached_property
    def grading(self) -> "Grading":
        """The ad-eigenbasis of the first grading basis element; see `Grading`."""
        return Grading.of(self)

    def antisymmetry_defect(self) -> Fraction:
        """Max |c_ijk + c_jik| over all i, j, k."""
        total = defaultdict(Fraction)
        for i, j in combinations_with_replacement(range(self.dim), 2):
            for k, c in self.brackets[i][j] + self.brackets[j][i]:
                total[i, j, k] += c
        return max(map(abs, total.values()), default=Fraction(0))

    def jacobi_defect(self) -> Fraction:
        """Max |coefficient| of [x_i,[x_j,x_k]] + [x_j,[x_k,x_i]] + [x_k,[x_i,x_j]]
        over basis triples i < j < k; zero iff the table is a Lie algebra."""
        return max((abs(c) for _, s in self._jacobi_sums() for c in s.values()),
                   default=Fraction(0))

    def _jacobi_sums(self):
        """(triple, {t: coefficient}) of the Jacobi sum of each basis triple
        i < j < k in order, skipping the triples whose three inner brackets
        vanish (their sum is 0)."""
        b = self.brackets
        for i, j, k in combinations(range(self.dim), 3):
            if not (b[j][k] or b[k][i] or b[i][j]):
                continue
            out = defaultdict(Fraction)
            for a, inner in ((i, b[j][k]), (j, b[k][i]), (k, b[i][j])):
                for m, coef in inner:
                    for t, c in b[a][m]:
                        out[t] += coef * c
            yield (i, j, k), out

    def first_jacobi_violation(self) -> tuple[int, int, int] | None:
        return next((t for t, s in self._jacobi_sums() if any(s.values())), None)

    def validate(self) -> None:
        b = self.brackets
        for i in range(self.dim):
            for j in range(self.dim):
                if b[i][j] != _negated(b[j][i]):
                    raise StructureConstantError(
                        f"antisymmetry fails at basis pair "
                        f"({self.labels[i]}, {self.labels[j]})", (i, j))
        bad = self.first_jacobi_violation()
        if bad is not None:
            i, j, k = bad
            raise StructureConstantError(
                f"Jacobi identity fails at basis triple "
                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})", bad)


@dataclass(frozen=True)
class Grading(_BracketTable):
    """A basis of eigenvectors f_a of ad(x) with integer weights, ascending.

    `element` is the index of the grading element x, or None for the trivial
    grading (f_a = x_a, every weight 0) of an algebra where no basis element
    grades.  `vectors[a]` holds f_a in the original basis, and `brackets[a][b]`
    the nonzero (c, coefficient) of [f_a, f_b] in the eigenbasis, exact (for
    the trivial grading, the algebra's own table).  A bracket [f_a, f_b] has
    weight weights[a] + weights[b].
    """

    element: int | None
    weights: tuple[int, ...]
    vectors: tuple[tuple[Fraction, ...], ...]
    brackets: tuple[tuple[Support, ...], ...]

    @classmethod
    def of(cls, g: LieAlgebra) -> "Grading":
        n = g.dim
        for x in range(n):
            # cols[j][i] is the entry (i, j) of ad(x): column j is [x, x_j]
            cols = [dict(support) for support in g.brackets[x]]
            # integer weights w of a diagonalizable ad(x) have sum w^2 =
            # tr(ad(x)^2): an integer, 0 only for ad(x) = 0 (no nonzero
            # weight), and a bound on every w^2
            square = sum((c * cols[i].get(j, 0) for j, col in enumerate(cols)
                          for i, c in col.items()), Fraction(0))
            if square <= 0 or square.denominator != 1:
                continue
            ad = [{j: col[i] for j, col in enumerate(cols) if i in col} for i in range(n)]
            bound = isqrt(square.numerator)
            spaces = []
            for lam in sorted(range(-bound, bound + 1), key=abs):
                shifted = RationalMatrix(n, n, tuple(
                    {j: c for j, c in {**row, i: row.get(i, Fraction(0)) - lam}.items() if c}
                    for i, row in enumerate(ad)))
                spaces += [(lam, v) for v in shifted.kernel_basis()]
                if len(spaces) == n:
                    break
            if len(spaces) == n:
                break
        else:
            return cls(None, (0,) * n, tuple(g.basis_element(a).coeffs for a in range(n)),
                       g.brackets)
        spaces.sort(key=lambda space: space[0])
        weights = tuple(lam for lam, _ in spaces)
        vectors = tuple(v for _, v in spaces)
        # a kernel basis vector is the only one of its eigenspace that is
        # nonzero at its last nonzero entry, a 1: that entry of a vector in
        # the eigenspace is its coordinate there
        lead = [max(i for i, c in enumerate(v) if c) for v in vectors]
        supports = [[(k, c) for k, c in enumerate(v) if c] for v in vectors]
        brackets = [[()] * n for _ in range(n)]
        for a, b in combinations(range(n), 2):
            vec = _bracket(g.brackets, supports[a], supports[b], [Fraction(0)] * n)
            # [f_a, f_b] lies in the eigenspace of weight weights[a] + weights[b]
            total = weights[a] + weights[b]
            support = tuple((c, vec[lead[c]]) for c in range(n)
                            if weights[c] == total and vec[lead[c]])
            brackets[a][b] = support
            brackets[b][a] = _negated(support)
        return cls(x, weights, vectors, tuple(map(tuple, brackets)))


@dataclass(frozen=True)
class LieElement:
    algebra: LieAlgebra
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise ValueError("coefficient vector length does not match dimension")

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check_parent(other)
        return LieElement(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LieElement") -> "LieElement":
        self._check_parent(other)
        return LieElement(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LieElement":
        return LieElement(self.algebra, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar) -> "LieElement":
        s = Fraction(scalar)
        return LieElement(self.algebra, tuple(s * a for a in self.coeffs))

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.algebra is other.algebra and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs))

    def bracket(self, other: "LieElement") -> "LieElement":
        self._check_parent(other)
        x, y = ([(i, a) for i, a in enumerate(v.coeffs) if a] for v in (self, other))
        return LieElement(self.algebra, tuple(_bracket(
            self.algebra.brackets, x, y, [Fraction(0)] * self.algebra.dim)))

    def _check_parent(self, other: "LieElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __repr__(self):
        terms = [f"{c}*{l}" for c, l in zip(self.coeffs, self.algebra.labels) if c]
        return " + ".join(terms) if terms else "0"


class Subspace:
    """Subspace of a Lie algebra held as a reduced echelon basis.

    The basis (an `Echelon`) does not depend on the insertion order, and two
    subspaces compare equal iff they contain each other's basis vectors.  An
    element of another algebra, or with a coefficient that is not a Fraction
    or an int (a float has no exact direction to recover), is refused.
    """

    def __init__(self, algebra: LieAlgebra, vectors: Iterable[LieElement] = ()):
        self.algebra = algebra
        self._echelon = Echelon(algebra.dim)
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._echelon.pivots)

    def _coeffs(self, elem: LieElement) -> tuple:
        if elem.algebra is not self.algebra:
            raise ValueError("element belongs to a different algebra")
        for c in elem.coeffs:
            if not isinstance(c, (Fraction, int)):
                raise ValueError(f"coefficient {c!r} is not exact; "
                                 "supply generators with Fraction or int coefficients")
        return elem.coeffs

    def add(self, elem: LieElement) -> bool:
        """Insert an element; returns True when the dimension grew."""
        return self._echelon.add(self._coeffs(elem))

    def contains(self, elem: LieElement) -> bool:
        return not any(self._echelon.reduce(self._coeffs(elem)))

    def basis(self) -> list[LieElement]:
        return [LieElement(self.algebra, row) for row in self._echelon.rows()]

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.algebra is other.algebra
                and self.contains_subspace(other) and other.contains_subspace(self))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.name or 'algebra'})"


# ---------------------------------------------------------------------------
# closure procedures


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    """Span of all brackets of basis pairs, [g, g]."""
    span, table = Subspace(g), g.integer_brackets
    for i, j in combinations(range(g.dim), 2):
        if table[i][j]:
            span._echelon.add(_bracket(table, ((i, 1),), ((j, 1),), [0] * g.dim))
    return span


def is_perfect(g: LieAlgebra) -> bool:
    return derived_subalgebra(g).dim == g.dim


def generated_subalgebra(g: LieAlgebra, gens: Sequence[LieElement]) -> Subspace:
    """Smallest bracket-closed subspace containing the generators.

    Span-closure iteration: brackets of every pair of the span's integer
    rows through `integer_brackets`, repeated until the dimension stabilizes
    (at most dim(g) rounds); the generators' brackets are among them.  A
    span that reaches dim(g) is returned at once, since g itself is closed.
    A generator with an inexact coefficient raises ValueError.
    """
    if not gens:
        raise ValueError("generator list is empty")
    span, table = Subspace(g, gens), g.integer_brackets
    ech = span._echelon
    while span.dim < g.dim:
        before = span.dim
        current = [row.items() for row in ech.integer_rows()]
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                if ech.add(_bracket(table, a, b, [0] * g.dim)) and span.dim == g.dim:
                    return span
        if span.dim == before:
            break
    return span


def ideal_closure(g: LieAlgebra, x: LieElement) -> Subspace:
    """Smallest subspace containing x with [g, I] contained in I.

    Worklist closure on integer rows: every spanning direction is bracketed
    against the whole basis of g exactly once, which suffices by linearity.
    """
    span, table = Subspace(g), g.integer_brackets
    ech = span._echelon
    pending = [ech.integer_rows()[0].items()] if not x.is_zero() and span.add(x) else []
    while pending:
        b = pending.pop()
        for i in range(g.dim):
            v = _bracket(table, ((i, 1),), b, [0] * g.dim)
            if ech.add(v):
                pending.append([(k, c) for k, c in enumerate(v) if c])
                if span.dim == g.dim:
                    return span
    return span


# ---------------------------------------------------------------------------
# builtins


def metric_signs(d: int) -> tuple[int, ...]:
    """The diagonal of the Minkowski metric eta = diag(+1, -1, ..., -1)."""
    return (1,) + (-1,) * (d - 1)


def poincare_basis_matrices(d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The basis of poincare(d) in builtin order as integer (d+1)x(d+1)
    affine matrices: J_ab for a < b, acting by J_ab e_s = eta_bs e_a - eta_as e_b,
    then P_a, the translation by e_a.  lorentz(d) is the first C(d, 2)."""
    eta = metric_signs(d)
    mats = []
    for a, b in combinations(range(d), 2):
        m = [[0] * (d + 1) for _ in range(d + 1)]
        m[a][b], m[b][a] = eta[b], -eta[a]
        mats.append(m)
    for a in range(d):
        m = [[0] * (d + 1) for _ in range(d + 1)]
        m[a][d] = 1
        mats.append(m)
    return tuple(tuple(map(tuple, m)) for m in mats)


def affine_coefficients(m) -> list:
    """Coefficients in the poincare(d) basis of an affine matrix in its span:
    J_ab <- m[a][b] * eta_bb (only J_ab has an entry at (a, b)), P_a <- m[a][d]."""
    d = len(m) - 1
    eta = metric_signs(d)
    return ([m[a][b] * eta[b] for a, b in combinations(range(d), 2)]
            + [m[a][d] for a in range(d)])


def matmul(x, y) -> list[list]:
    """Matrix product, skipping the zero entries of x."""
    out = [[0] * len(y[0]) for _ in x]
    for row, acc in zip(x, out):
        for a, yrow in zip(row, y):
            if a:
                for j, b in enumerate(yrow):
                    acc[j] += a * b
    return out


@lru_cache(maxsize=None)
def _relativistic_brackets(d: int, dim: int) -> dict:
    """Sparse bracket table on the first `dim` basis matrices of poincare(d):
    their commutators, read back into coefficients."""
    mats = poincare_basis_matrices(d)[:dim]
    brackets = {}
    for i, j in combinations(range(dim), 2):
        xy, yx = matmul(mats[i], mats[j]), matmul(mats[j], mats[i])
        comm = [[p - q for p, q in zip(r, s)] for r, s in zip(xy, yx)]
        coeffs = {k: c for k, c in enumerate(affine_coefficients(comm)) if c}
        if coeffs:
            brackets[(i, j)] = coeffs
    return brackets


_BUILTIN_RE = re.compile(r"^(abelian|poincare|lorentz)\(?(\d+)\)?$")


def builtin(name: str) -> LieAlgebra:
    """Named algebras: sl2, heisenberg, abelian(n), poincare(d), lorentz(d)
    with spacetime dimension d in {2, 3, 4}.  `poincare4` is accepted as a
    spelling of `poincare(4)`."""
    key = name.strip().lower().replace(" ", "")
    if key == "sl2":
        return LieAlgebra.from_brackets(
            ("h", "e", "f"),
            {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
            name="sl2",
        )
    if key == "heisenberg":
        return LieAlgebra.from_brackets(
            ("x", "y", "z"), {(0, 1): {2: 1}}, name="heisenberg")
    m = _BUILTIN_RE.match(key)
    if m:
        kind, num = m.group(1), int(m.group(2))
        if kind == "abelian":
            if num < 1:
                raise ValueError("abelian(n) needs n >= 1")
            _check_table(num)
            return LieAlgebra.from_brackets(
                tuple(f"x{i+1}" for i in range(num)), {}, name=f"abelian({num})")
        if num not in (2, 3, 4):
            raise ValueError(f"{kind}(d) supports spacetime dimension d in {{2, 3, 4}}")
        labels = [f"J_{a}{b}" for a, b in combinations(range(num), 2)]
        if kind == "poincare":
            labels += [f"P_{mu}" for mu in range(num)]
        return LieAlgebra.from_brackets(
            labels, _relativistic_brackets(num, len(labels)), name=f"{kind}({num})")
    raise ValueError(f"unknown algebra name: {name!r}")


# ---------------------------------------------------------------------------
# JSON structure-constant format


def algebra_to_json(g: LieAlgebra) -> str:
    brackets = [{"i": i, "j": j, "coeffs": {g.labels[k]: str(c) for k, c in g.brackets[i][j]}}
                for i, j in combinations(range(g.dim), 2) if g.brackets[i][j]]
    return json.dumps(
        {"dim": g.dim, "labels": list(g.labels), "brackets": brackets},
        sort_keys=True)


def algebra_from_json(text: str | dict, name: str = "", validate: bool = True) -> LieAlgebra:
    """Load {"dim": n, "labels": [...], "brackets": [{"i", "j", "coeffs"}]}.

    Coefficient keys may be labels or stringified basis indices; rationals are
    "p/q" strings.  Omitted brackets are zero and the antisymmetric completion
    is applied; giving both (i, j) and (j, i) inconsistently is an error.
    """
    obj = json.loads(text) if isinstance(text, str) else text
    n = int(obj["dim"])
    _check_table(n)
    labels = [str(x) for x in obj.get("labels", [f"x{i+1}" for i in range(n)])]
    if len(labels) != n:
        raise ValueError("label count does not match dim")
    given: dict[tuple[int, int], dict[int, Fraction]] = {}
    for item in obj.get("brackets", []):
        i, j = int(item["i"]), int(item["j"])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bracket index ({i}, {j}) out of range")
        coeffs: dict[int, Fraction] = {}
        for key, val in item.get("coeffs", {}).items():
            if isinstance(key, str) and not key.lstrip("-").isdigit():
                k = labels.index(key) if key in labels else -1
            else:
                k = int(key)
            if not 0 <= k < n:
                raise ValueError(
                    f"unknown label {key!r} in the coeffs of bracket ({i}, {j}); "
                    f"known labels: {', '.join(labels)} (or indices 0..{n - 1})")
            coeffs[k] = Fraction(val)
        # a pair listed twice must agree; (i, j) against (j, i) is from_brackets' check
        if given.setdefault((i, j), coeffs) != coeffs:
            raise ValueError(f"inconsistent bracket given for pair ({min(i, j)}, {max(i, j)})")
    return LieAlgebra.from_brackets(labels, given, name=name, validate=validate)
