"""Minkowski wedges, their boost one-parameter groups, and the Lie-algebra
generators those boosts sweep out.

The standard wedge is W1 = {x in R^4 : |x_0| < x_1}, with the metric of
`liealg.metric_signs`.  Its boosts act on the (x_0, x_1) coordinates through

    [ cosh 2 pi t   -sinh 2 pi t ]
    [ -sinh 2 pi t   cosh 2 pi t ]

and leave x_2, x_3 alone; boosts of any other wedge W = g W1 are defined by
conjugation, Lambda_W(t) = g Lambda_{W1}(t) g^{-1}.  Differentiating at t = 0
gives BOOST_SCALE * X with BOOST_SCALE = 2 pi (the Bisognano-Wichmann
normalization, named once here) and X an element of the Poincare algebra:
the affine J_01 of `liealg.poincare_basis_matrices` conjugated by the affine
frame [[g_Lambda, g_a], [0, 1]] of W, read back by `liealg.affine_coefficients`,
the same matrices the builtin brackets come from.  For W1, X is exactly J_01.
The frame is Lorentz, so X lies in the algebra; the tests re-expand it.

Every entry is exact (int and Fraction become Fraction) or a float; any
other value is refused when an element is built.  Exact frames give X with
`Fraction` coefficients, which feed `liealg.generated_subalgebra` directly;
a float frame has no generator.  Boost matrices are float numpy arrays.
numpy is imported only by `boost_matrix` and by `Wedge.sample_points`, so
exact frames and their boost generators never load it.

Every Lambda here is Lorentz (Lambda^T eta Lambda = eta), so the inverse is
closed form: (Lambda, a)^{-1} = (eta Lambda^T eta, -eta Lambda^T eta a).  Since
that is no inverse of a non-Lorentz Lambda, exact entries are checked against
the metric exactly before inverting; float entries are trusted.  Once the
metric holds, Lambda = B diag(s, R) with B a pure boost, s = sign Lambda_00
and R in O(3); the spatial 3x3 block of Lambda is (1 + (gamma - 1) n n^T) R,
whose determinant has the sign of det R.  Hence det Lambda = s det R is
sign(Lambda_00) times the sign of the spatial block's determinant, and no 4x4
determinant is needed.

The causal complement W' is the rotation-by-pi image of W in the x_1 x_2
plane; it satisfies Lambda_{W'}(t) = Lambda_W(-t) exactly.  A wedge is its
boost: every frame is checked proper orthochronous when the wedge is built,
and in that group the stabilizer of W1 is exactly the centralizer of the
affine J_01 (boosts along x_1, rotations about it, translations in the edge
{x_0 = x_1 = 0}).  So g W1 = g' W1 iff g J_01 g^{-1} = g' J_01 g'^{-1}, and
wedge equality compares these two exact 5x5 conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Sequence

from .liealg import (LieAlgebra, LieElement, affine_coefficients, builtin,
                     generated_subalgebra, matmul, metric_signs, poincare_basis_matrices)

__all__ = [
    "BOOST_SCALE",
    "METRIC_SIGNS",
    "PoincareElement",
    "Wedge",
    "boost_matrix",
    "wedge_boost",
    "wedge_boost_generator",
    "wedge_complement",
    "six_wedge_family",
    "coordinate_wedge_family",
    "boost_generation_check",
    "poincare4_algebra",
    "minkowski_form",
]

METRIC_SIGNS = metric_signs(4)

# d/dt Lambda_W(t) at t = 0 is BOOST_SCALE times the rational generator
BOOST_SCALE = 2 * math.pi
# how far float entries may miss the Lorentz conditions in PoincareElement.validate
_FLOAT_TOL = 1e-10

_POINCARE4: LieAlgebra | None = None


def poincare4_algebra() -> LieAlgebra:
    """The shared poincare(4) instance that wedge-boost generators live in."""
    global _POINCARE4
    if _POINCARE4 is None:
        _POINCARE4 = builtin("poincare(4)")
    return _POINCARE4


def minkowski_form(x: Sequence, y: Sequence):
    return sum(s * a * b for s, a, b in zip(METRIC_SIGNS, x, y))


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


@dataclass(frozen=True)
class PoincareElement:
    """Affine map x -> Lambda x + a with Lambda proper orthochronous Lorentz.

    Entries are exact (Fraction) or floats.  Inversion requires a Lorentz
    Lambda; exact entries are checked exactly, float entries are trusted.
    """

    lorentz: tuple[tuple, ...]
    translation: tuple

    @classmethod
    def from_parts(cls, lorentz, translation=(0, 0, 0, 0)) -> "PoincareElement":
        mat = tuple(tuple(_coerce(v) for v in row) for row in lorentz)
        vec = tuple(_coerce(v) for v in translation)
        if len(mat) != 4 or any(len(r) != 4 for r in mat) or len(vec) != 4:
            raise ValueError("a Poincare element is a 4x4 matrix and a 4-vector")
        return cls(mat, vec)

    @classmethod
    def identity(cls) -> "PoincareElement":
        return cls.from_parts(tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))

    @classmethod
    def translation_by(cls, vec) -> "PoincareElement":
        return cls.from_parts(
            tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)), vec)

    @classmethod
    def plane_rotation_pi(cls, i: int, j: int) -> "PoincareElement":
        """Rotation by pi in the x_i x_j plane (spatial indices)."""
        if not (1 <= i < j <= 3):
            raise ValueError("rotation plane must use two spatial axes")
        mat = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        mat[i][i] = -1
        mat[j][j] = -1
        return cls.from_parts(mat)

    @classmethod
    def axis_swap_rotation(cls, j: int) -> "PoincareElement":
        """Quarter turn taking e_1 to e_j (j spatial); identity for j = 1."""
        if j == 1:
            return cls.identity()
        if j not in (2, 3):
            raise ValueError("target axis must be spatial")
        mat = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        mat[1][1] = 0
        mat[j][j] = 0
        mat[j][1] = 1
        mat[1][j] = -1
        return cls.from_parts(mat)

    def is_exact(self) -> bool:
        return _is_exact(sum(self.lorentz, self.translation))

    def compose(self, other: "PoincareElement") -> "PoincareElement":
        """(self o other)(x) = self(other(x))."""
        l1, l2 = self.lorentz, other.lorentz
        mat = tuple(tuple(sum(l1[i][k] * l2[k][j] for k in range(4)) for j in range(4))
                    for i in range(4))
        vec = tuple(sum(l1[i][k] * other.translation[k] for k in range(4))
                    + self.translation[i] for i in range(4))
        return PoincareElement(mat, vec)

    def inverse(self) -> "PoincareElement":
        """(eta Lambda^T eta, -eta Lambda^T eta a).  Exact entries must pass
        Lambda^T eta Lambda = eta exactly (ValueError otherwise); float
        entries are taken to be Lorentz."""
        if _is_exact(sum(self.lorentz, ())):
            _check_metric(self.lorentz, 0)
        g = METRIC_SIGNS
        inv = tuple(tuple(g[i] * self.lorentz[j][i] * g[j] for j in range(4)) for i in range(4))
        vec = tuple(-sum(inv[i][k] * self.translation[k] for k in range(4)) for i in range(4))
        return PoincareElement(inv, vec)

    def apply(self, x: Sequence):
        return tuple(sum(self.lorentz[i][k] * x[k] for k in range(4))
                     + self.translation[i] for i in range(4))

    def validate(self) -> None:
        """Metric preservation, det = +1, orthochronous (checked in that order),
        exactly for exact entries.  Float rounding grows with the entries, so
        for floats the metric allows _FLOAT_TOL * max(1, max|Lambda|)^2."""
        m = self.lorentz
        tol = 0 if self.is_exact() else _FLOAT_TOL
        _check_metric(m, tol * max(1, *(abs(v) for row in m for v in row)) ** 2)
        # det Lambda = sign(Lambda_00) * sign(det of the spatial block); see the module doc
        if (m[0][0] > 0) != (_det3(tuple(row[1:] for row in m[1:])) > 0):
            raise ValueError("determinant is not +1 (improper)")
        if not m[0][0] >= 1 - tol:
            raise ValueError("time orientation reversed (Lambda_00 < 1)")


def _coerce(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, Real):
        return float(v)
    raise ValueError(f"entry {v!r} is not a real number")


def _check_metric(m, tol) -> None:
    """Lambda^T eta Lambda = eta within tol (exactly for tol = 0 on exact
    entries).  The product is symmetric, so the upper triangle names the
    first failing entry."""
    g = METRIC_SIGNS
    for i in range(4):
        for j in range(i, 4):
            s = sum(g[k] * m[k][i] * m[k][j] for k in range(4) if m[k][i] and m[k][j])
            s -= g[i] if i == j else 0
            if not abs(s) <= tol:
                raise ValueError(f"metric preservation fails at ({i}, {j})")


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# ---------------------------------------------------------------------------
# boosts


def boost_matrix(t):
    """The W1 boost at parameter t as a float numpy array: the
    cosh/sinh(BOOST_SCALE t) block on (x_0, x_1).

    A t whose cosh(2 pi t) is not a finite float (|t| above about 113, or t
    not finite) raises ValueError.  It keeps numpy's cosh/sinh, whose last
    bit differs from `math`'s on many t.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh = np.cosh(BOOST_SCALE * float(t)), np.sinh(BOOST_SCALE * float(t))
    if not np.isfinite(ch):
        raise ValueError(f"cosh(2 pi t) is not a finite float at t = {t}")
    m = np.eye(4)
    m[0, 0] = ch
    m[0, 1] = -sh
    m[1, 0] = -sh
    m[1, 1] = ch
    return m


# ---------------------------------------------------------------------------
# wedges


@dataclass(frozen=True)
class Wedge:
    """A Poincare image g W1 of the standard wedge, carried by g, which must be
    proper orthochronous; two wedges are equal when their boosts are."""

    frame: PoincareElement

    def __post_init__(self):
        self.frame.validate()

    @classmethod
    def standard(cls) -> "Wedge":
        return cls(PoincareElement.identity())

    @classmethod
    def coordinate(cls, axis: int) -> "Wedge":
        """The wedge {|x_0| < x_axis} for a spatial axis 1, 2, 3."""
        return cls(PoincareElement.axis_swap_rotation(axis))

    @classmethod
    def from_frame(cls, lorentz, translation=(0, 0, 0, 0)) -> "Wedge":
        """The wedge of x -> lorentz x + translation, entries as in `from_parts`."""
        return cls(PoincareElement.from_parts(lorentz, translation))

    def translate(self, vec) -> "Wedge":
        return Wedge(PoincareElement.translation_by(vec).compose(self.frame))

    def transform(self, g: PoincareElement) -> "Wedge":
        return Wedge(g.compose(self.frame))

    def contains(self, x: Sequence, margin: float = 0.0) -> bool:
        y = self.frame.inverse().apply(x)
        y0, y1 = float(y[0]), float(y[1])
        return abs(y0) < y1 - margin

    def sample_points(self, count: int = 8, seed: int = 0) -> list[tuple]:
        """Interior points, mapped from a seeded sample of W1."""
        import numpy as np

        rng = np.random.default_rng(seed)
        pts = []
        for _ in range(count):
            x1 = 0.2 + 2.0 * rng.random()
            x0 = (2.0 * rng.random() - 1.0) * 0.9 * x1
            x2, x3 = rng.standard_normal(2)
            pts.append(self.frame.apply((x0, x1, float(x2), float(x3))))
        return pts

    def __eq__(self, other) -> bool:
        if not isinstance(other, Wedge):
            return NotImplemented
        return _conjugated_j01(self.frame) == _conjugated_j01(other.frame)

    def __hash__(self):
        return 0  # wedges with distinct frames may still be equal


def wedge_boost(w: Wedge, t) -> PoincareElement:
    """Lambda_W(t) = g Lambda_{W1}(t) g^{-1} for W = g W1, in floats;
    ValueError when t leaves the finite floats."""
    m = boost_matrix(t)
    boost = PoincareElement.from_parts([[m[i, j] for j in range(4)] for i in range(4)])
    g = w.frame.compose(boost).compose(w.frame.inverse())
    if not all(map(math.isfinite, sum(g.lorentz, g.translation))):
        raise ValueError(f"the boost of this wedge is not finite at t = {t}")
    return g


def _affine(g: PoincareElement) -> list[list]:
    """g as the (4+1)x(4+1) matrix [[Lambda, a], [0, 1]]."""
    return [list(row) + [t] for row, t in zip(g.lorentz, g.translation)] + [[0, 0, 0, 0, 1]]


def _conjugated_j01(frame: PoincareElement) -> list[list]:
    """g J_01 g^{-1} as a 5x5 affine matrix for an exact frame g; a float
    frame raises ValueError, since its generator has no exact direction."""
    if not frame.is_exact():
        raise ValueError("wedge frame is not exact; its boost generator needs exact entries")
    return matmul(matmul(_affine(frame), poincare_basis_matrices(4)[0]), _affine(frame.inverse()))


def wedge_boost_generator(w: Wedge) -> LieElement:
    """The element X of poincare(4) with d/dt Lambda_W(t) at t = 0 equal to
    BOOST_SCALE * X: the affine J_01 conjugated by the affine frame of W.

    X has `Fraction` coefficients; a float frame raises ValueError.  A
    Lorentz frame (checked exactly when the wedge is built) conjugates the
    algebra into itself, so `affine_coefficients` reads X off the conjugate.
    """
    coeffs = affine_coefficients(_conjugated_j01(w.frame))
    return LieElement(poincare4_algebra(), tuple(map(Fraction, coeffs)))


def wedge_complement(w: Wedge) -> "Wedge":
    """The causal complement W' = (g R) W1 with R the x_1 x_2 rotation by pi;
    satisfies Lambda_{W'}(t) = Lambda_W(-t) and (W')' = W."""
    return Wedge(w.frame.compose(PoincareElement.plane_rotation_pi(1, 2)))


# ---------------------------------------------------------------------------
# the boost-generation check


def coordinate_wedge_family() -> list[Wedge]:
    return [Wedge.coordinate(axis) for axis in (1, 2, 3)]


def six_wedge_family() -> list[Wedge]:
    """Three coordinate wedges plus their translates by the unit timelike
    vector; their boost generators span the full Poincare algebra."""
    base = coordinate_wedge_family()
    return base + [w.translate((1, 0, 0, 0)) for w in base]


def boost_generation_check(wedges: Sequence[Wedge] | None = None) -> dict:
    """Closure dimension of the boost generators of a wedge family inside
    poincare(4); success means the full 10-dimensional algebra."""
    family = list(wedges) if wedges is not None else six_wedge_family()
    alg = poincare4_algebra()
    gens = [wedge_boost_generator(w) for w in family]
    span = generated_subalgebra(alg, gens)
    return {
        "wedge_count": len(family),
        "closure_dim": span.dim,
        "algebra_dim": alg.dim,
        "success": span.dim == alg.dim,
    }
