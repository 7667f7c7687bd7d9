"""Finite-dimensional Tomita-Takesaki theory.

For a unital *-closed matrix algebra M on C^d with a cyclic separating unit
vector Omega, the closable antilinear map

    S : x Omega -> x* Omega,   x in M,

is here an honest antilinear operator on all of C^d (cyclic + separating
forces dim M = d).  Its polar decomposition S = J Delta^{1/2} yields the
modular operator Delta = S* S (positive, invertible) and the modular
conjugation J (antiunitary involution).  Tomita's theorem --
Delta^{it} M Delta^{-it} = M and J M J = M' -- and the finite-dimensional
KMS identity <Omega, x Delta y Omega> = <Omega, y x Omega> are verified
numerically by the defect functions below.

Antilinear operators are represented as (matrix, conjugation) pairs acting as
v -> U conj(v); with S = S_mat o conj one gets Delta = S_mat^T conj(S_mat)
and J = S_mat conj(Delta^{-1/2}) o conj.

Everything is double precision with named tolerances (DEFAULT_TOL, 1e-10,
for membership, _RANK_TOL for the frame {b_i Omega}); polar decomposition is
numeric, so the triple's identities are bounded relative to their
conditioning.  The dense kernels are a few BLAS calls each, and no hot path
runs an einsum over the basis stack: `commutant` solves only on the
eigenspaces of one Hermitian element of M (M' lies inside its commutant;
eigenvalues within the relative gap _CLUSTER_GAP = 1e-3 share an eigenspace)
and builds only the block of its Gram matrix on those eigenspaces, from
GEMMs; every distance to an algebra is a batched residual x - (x B^H) B
against its basis B; Gram-Schmidt projects each input off the stacked rows
kept so far twice over ("CGS2"), two matrix-vector products a pass; and
`kms_defect` draws and evaluates its samples in chunks of at most
_PRODUCT_CHUNK matrix entries, one tensordot and a few matrix-vector
products per chunk.

Every algebra has its products checked once, at _BASIS_TOL or tighter:
`MatrixAlgebra(d, basis)` checks all k^2 of them, row a @ B after row in
work arrays allocated once per call; `algebra_closure` relies on its last
screening round, which found every product of the span within
_ORTHONORMAL_CUTOFF of it; `commutant` checks them block by block on the
eigenspaces of h, where its null vectors live.  Both build the result
through `MatrixAlgebra._products_checked`, which still checks
orthonormality, the unit and adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "IdentityDefect",
    "MatrixAlgebra",
    "StateVector",
    "ModularTriple",
    "Frame",
    "algebra_closure",
    "commutant",
    "is_cyclic",
    "is_separating",
    "separating_violation",
    "tomita",
    "modular_flow_defect",
    "kms_defect",
    "qubit_factor",
    "schmidt_state",
    "diagonal_algebra",
]

DEFAULT_TOL = 1e-10
_BASIS_TOL = 1e-8  # how far a stored basis may miss orthonormality and closure
_ORTHONORMAL_CUTOFF = 1e-12  # Gram-Schmidt drops a remainder with a smaller norm
_CLUSTER_GAP = 1e-3  # commutant: relative eigenvalue gap of h that splits two blocks
_NULL_TOL = 1e-12  # commutant: Gram eigenvalues this small, relative to the largest, are null
_STATE_TOL = 1e-12  # how far a state vector's norm may miss 1
_RANK_TOL = 1e-10  # frame singular values at or below this count as zero
# complex entries per chunk of commutant's blockwise products and of
# kms_defect's sample pairs; at 128 KB a chunk's work arrays are reused from
# the heap, while on M5 (x) 1_5 chunks of 1 MB were mapped and faulted in
# again on every call and took twice as long
_PRODUCT_CHUNK = 1 << 13
_NOT_CLOSED = "algebra is not closed under products"
# validate's c: valid triples gave residuals up to 5.1e-15 kappa(B)
# sqrt(kappa(Delta)) ||rhs||, and c eps = 5.1e-13 is 100x that
_IDENTITY_C = 2300


def _as_matrix_list(mats) -> list[np.ndarray]:
    out = []
    for m in mats:
        a = np.asarray(m, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("generators must be square matrices")
        out.append(a)
    if not out:
        raise ValueError("generator list is empty")
    d = out[0].shape[0]
    if any(a.shape[0] != d for a in out):
        raise ValueError("generators act on different spaces")
    return out


@dataclass(frozen=True)
class StateVector:
    """Unit vector of C^d; the finite stand-in for a vacuum vector."""

    data: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.data, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > _STATE_TOL:
            raise ValueError(f"state vector has norm {norm!r}, "
                             f"not 1 to within {_STATE_TOL:g}")
        object.__setattr__(self, "data", v)

    @classmethod
    def normalized(cls, values) -> "StateVector":
        v = np.asarray(values, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / n)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def _as_state(omega) -> np.ndarray:
    if isinstance(omega, StateVector):
        return omega.data
    return StateVector(np.asarray(omega, dtype=complex)).data


class MatrixAlgebra:
    """Unital *-closed subalgebra of M_d(C), stored through a basis
    orthonormal under the trace pairing <a, b> = tr(a* b).

    The constructor runs every check of `verify_closure` on the basis it is
    given.  `algebra_closure` and `commutant` build theirs through
    `_products_checked`, which skips only the k^2 product rows: each has
    already checked the products of its span at _BASIS_TOL or tighter."""

    def __init__(self, dim: int, basis: np.ndarray):
        self._store(dim, basis)
        self.verify_closure()

    @classmethod
    def _products_checked(cls, dim: int, basis: np.ndarray) -> "MatrixAlgebra":
        """The algebra on `basis`, whose products the caller has checked;
        orthonormality, the unit and adjoints are checked here."""
        m = cls.__new__(cls)
        m._store(dim, basis)
        m._verify_unit_and_adjoints()
        return m

    def _store(self, dim: int, basis: np.ndarray) -> None:
        self.dim = int(dim)
        self.basis = np.asarray(basis, dtype=complex)
        if self.basis.ndim != 3 or self.basis.shape[1:] != (self.dim, self.dim):
            raise ValueError("basis must be a stack of d x d matrices")
        self._check_orthonormal()

    @property
    def size(self) -> int:
        """Linear dimension of the algebra."""
        return self.basis.shape[0]

    def _check_orthonormal(self):
        flat = self.basis.reshape(self.size, -1)
        gram = flat.conj() @ flat.T
        if np.max(np.abs(gram - np.eye(self.size))) > _BASIS_TOL:
            raise ValueError("basis is not orthonormal under the trace pairing")

    def distance(self, x: np.ndarray):
        """Frobenius distance from x to the algebra: a float for one matrix,
        an array of them for a stack."""
        x = np.asarray(x, dtype=complex)
        stack = x.reshape(-1, self.dim, self.dim)
        dist = _Distances(self.basis, stack.shape[0])(stack)
        return float(dist[0]) if x.ndim == 2 else dist

    def contains(self, x: np.ndarray) -> bool:
        return self.distance(x) <= DEFAULT_TOL

    def verify_closure(self) -> None:
        """Unit, adjoints, and products of basis elements must stay inside.
        Adjoints are measured in one batched distance, products one row
        a @ basis at a time."""
        self._verify_unit_and_adjoints()
        for _, dist in _product_residuals(self.basis):
            if np.max(dist) > _BASIS_TOL:
                raise ValueError(_NOT_CLOSED)

    def _verify_unit_and_adjoints(self) -> None:
        if self.distance(np.eye(self.dim)) > _BASIS_TOL:
            raise ValueError("algebra does not contain the identity")
        if np.max(self.distance(self.basis.conj().transpose(0, 2, 1))) > _BASIS_TOL:
            raise ValueError("algebra is not closed under adjoints")

    def contains_algebra(self, other: "MatrixAlgebra") -> bool:
        return bool(np.max(self.distance(other.basis)) <= DEFAULT_TOL)

    def equals(self, other: "MatrixAlgebra") -> bool:
        return (self.size == other.size and self.contains_algebra(other)
                and other.contains_algebra(self))


def _product_residuals(basis: np.ndarray):
    """Yield, for each a in the trace-orthonormal stack `basis`, the stack
    a @ basis and the distance of each of its matrices from the span.  Every
    step reuses the same arrays, so both are overwritten by the next one:
    fresh k x d^2 temporaries per row are mapped from the system and faulted
    in again on every call once d is large."""
    distances = _Distances(basis, basis.shape[0])
    prods = np.empty_like(basis)
    for a in basis:
        np.matmul(a, basis, out=prods)
        yield prods, distances(prods)


class _Distances:
    """Frobenius distance of each matrix in a stack of `rows` matrices from
    the span of the trace-orthonormal stack `basis`: the row norms of
    x - (x B^H) B with x and B the stacks flattened to rows, with the
    arithmetic of np.linalg.norm(..., axis=1) but in work arrays allocated
    once; each call overwrites the array the previous one returned."""

    def __init__(self, basis: np.ndarray, rows: int):
        self.flat = basis.reshape(basis.shape[0], -1)
        self.flat_h = self.flat.conj().T
        self.coef = np.empty((rows, self.flat.shape[0]), dtype=complex)
        self.res = np.empty((rows, self.flat.shape[1]), dtype=complex)
        self.sq = np.empty_like(self.res)
        self.dist = np.empty(rows)

    def __call__(self, mats: np.ndarray) -> np.ndarray:
        x = mats.reshape(self.res.shape)
        np.matmul(x, self.flat_h, out=self.coef)
        np.matmul(self.coef, self.flat, out=self.res)
        np.subtract(x, self.res, out=self.res)
        np.multiply(np.conjugate(self.res, out=self.sq), self.res, out=self.sq)
        np.add.reduce(self.sq.real, axis=1, out=self.dist)
        return np.sqrt(self.dist, out=self.dist)


def _orthonormalize(dim: int, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Gram-Schmidt on vectorized matrices under the trace pairing, run
    twice per input ("CGS2"): each input is projected off the rows kept so
    far by v -= (conj(K) v) K, two matrix-vector products against the
    stacked rows K, and then once more, which leaves it as orthogonal to
    them as modified Gram-Schmidt would.

    Each input is first scaled by the power of two 2^-e with e the binary
    exponent of its largest |entry|.  That is exact, so ordinary inputs keep
    their bits, and no squared norm under- or overflows.  A remainder is
    dropped when its norm is at most _ORTHONORMAL_CUTOFF times that of its
    input, so the roundoff left from a large input (about eps ||m||) never
    becomes a basis direction of its own; once dim^2 rows are kept they span
    everything and the rest is not looked at."""
    kept = np.empty((min(len(mats), dim * dim), dim * dim), dtype=complex)
    kept_conj = np.empty_like(kept)
    v = np.empty(dim * dim, dtype=complex)
    square = v.reshape(dim, dim)
    k = 0
    for m in mats:
        if k == kept.shape[0]:
            break
        _, e = np.frexp(np.max(np.abs(m)))
        np.ldexp(np.real(m), -e, out=square.real)
        np.ldexp(np.imag(m), -e, out=square.imag)
        floor = _ORTHONORMAL_CUTOFF * np.linalg.norm(v)
        for _ in range(2):
            v -= (kept_conj[:k] @ v) @ kept[:k]
        n = np.linalg.norm(v)
        if n > floor:
            np.divide(v, n, out=kept[k])
            np.conjugate(kept[k], out=kept_conj[k])
            k += 1
    return kept[:k].reshape(k, dim, dim)


def algebra_closure(generators) -> MatrixAlgebra:
    """Smallest unital *-closed algebra containing the generators.

    Span closure under adjoints and products; terminates because the
    dimension is bounded by d^2.  Each round screens the products a @ basis
    against the current basis one row at a time and hands Gram-Schmidt only
    those farther than `_ORTHONORMAL_CUTOFF` from it: a product Gram-Schmidt
    would drop leaves its basis unchanged, so the result is the same as
    orthonormalizing all k^2 products.

    The round that adds no direction is the product check: every product
    of the span (each of norm at most 1) lies within _ORTHONORMAL_CUTOFF of
    it, 10^4 below _BASIS_TOL, so the result is built without repeating the
    k^2 product rows.
    """
    gens = _as_matrix_list(generators)
    d = gens[0].shape[0]
    seed = [np.eye(d, dtype=complex)]
    for g in gens:
        seed.append(g)
        seed.append(g.conj().T)
    basis = _orthonormalize(d, seed)
    while True:
        outside = [p for prods, dist in _product_residuals(basis)
                   for p in prods[dist > _ORTHONORMAL_CUTOFF]]
        new_basis = _orthonormalize(d, list(basis) + outside)
        if new_basis.shape[0] == basis.shape[0]:
            return MatrixAlgebra._products_checked(d, new_basis)
        basis = new_basis


def commutant(m: MatrixAlgebra) -> MatrixAlgebra:
    """M' = {x : [x, b] = 0 for all b in M}: the null space of the stacked
    commutator operators op_b = 1 (x) b - b^T (x) 1 on vec(x), searched only
    on the eigenspaces of one Hermitian h in M.

    M' lies inside {h}', the matrices block diagonal on the eigenspaces
    E_lambda of h, a space of dimension sum n_lambda^2 rather than d^2.  Here
    h = sum_b w_b b + conj(w_b) b^H with fixed weights w_b = exp(i b^2):
    complex, so anti-Hermitian basis elements count, and quadratic, since
    exp(i b) factors over the matrix units of M_n (x) 1 and leaves h of rank
    2.  Eigenvalues closer than `_CLUSTER_GAP` times max |lambda| share a
    block; merging is safe, it only enlarges the space searched.

    In the eigenbasis U of h, `_kept_gram` builds the Gram matrix G of the
    op_b only on the block-diagonal coordinates, and only that block is
    diagonalized.  That is exact: G is positive semidefinite, so for x in
    that space x^H G x = 0 exactly when G x = 0.

    The null vectors eigh returns are orthonormal and vanish off the kept
    coordinates, so their products are checked block by block in U
    (`_check_block_products`), at sum n_lambda^3 per product and
    sum n_lambda^2 coordinates per residual instead of d^3 and d^2."""
    d = m.dim
    u, keep, gram, groups = _kept_gram(m)
    vals, vecs = np.linalg.eigh(gram)
    null = vecs[:, vals <= _NULL_TOL * max(np.max(vals), 1.0)]
    # the Gram and its eigenvectors are not needed again: freed before the
    # check allocates its work arrays, they do not add to the peak memory
    del gram, vecs
    _check_block_products([null[kept_s].T.reshape(null.shape[1], -1, s, s)
                           for s, kept_s in groups])
    vec = np.zeros((null.shape[1], d * d), dtype=complex)
    vec[:, keep] = null.T
    # vec convention: vec(x)[i*d+j] = x[j, i]; transpose restores x
    x = u @ vec.reshape(-1, d, d).transpose(0, 2, 1) @ u.conj().T
    return MatrixAlgebra._products_checked(d, _orthonormalize(d, x))


def _check_block_products(groups: list[np.ndarray]) -> None:
    """Raise unless the span of k trace-orthonormal block-diagonal matrices
    is closed under products.  `groups` holds one array (k, blocks, s, s)
    per block size s; each matrix is its blocks, a product is blockwise, and
    its distance from the span is a residual on the block coordinates alone.

    Rows a @ basis go in chunks of at most _PRODUCT_CHUNK entries (one row
    when a row alone is larger).  For each block, one (rows*s x s) @
    (s x k*s) product of the stacked blocks gives that block of all of a
    chunk's products, which are copied in place to one row per product."""
    k = groups[0].shape[0]
    flat = np.concatenate([g.reshape(k, -1) for g in groups], axis=1)
    rows = max(1, min(k, _PRODUCT_CHUNK // max(k * flat.shape[1], 1)))
    factors = []  # per group: the blocks of the chunk's left factors and of all right factors
    for g in groups:
        n, s = g.shape[1], g.shape[2]
        factors.append((n, s, g.transpose(1, 0, 2, 3).reshape(n, k * s, s),
                        g.transpose(1, 2, 0, 3).reshape(n, s, k * s)))
    prods = np.empty((rows, k, flat.shape[1]), dtype=complex)
    distances = _Distances(flat, rows * k)
    for start in range(0, k, rows):
        a = min(start, k - rows)  # the last chunk ends at row k, overlapping the one before
        col = 0
        for n, s, left, right in factors:
            x = left[:, a * s:(a + rows) * s] @ right  # x[block, (a, i), (b, j)]
            np.copyto(prods[:, :, col:col + n * s * s].reshape(rows, k, n, s, s),
                      x.reshape(n, rows, s, k, s).transpose(1, 3, 0, 2, 4))
            col += n * s * s
        if np.max(distances(prods)) > _BASIS_TOL:
            raise ValueError(_NOT_CLOSED)


def _kept_gram(m: MatrixAlgebra):
    """h's eigenbasis U (columns), the block-diagonal coordinates `keep`
    (vec index i*d + k for i, k in one eigenspace, ascending), the principal
    block on `keep` of the Gram matrix of the op_b in that basis,

        G = 1 (x) (sum_b b^H b) + (sum_b conj(b) b^T) (x) 1 - X - X^H,
        X[(i, k), (j, l)] = sum_b b[j, i] conj(b[l, k]).

    The whole of G is never formed.  For (i, k) in block beta and (j, l) in
    block gamma, X reads only the tile b[gamma, beta], so the kept part of X
    costs k (sum n_lambda^2)^2 multiply-adds against k d^4 for all of it:
    one batched product over the tiles for each pair of block sizes (one
    product in all when the blocks are equal, as on M_n (x) 1_m).  Last come
    the pairs (s, positions in `keep` of the blocks of size s, block by
    block and row-major within each)."""
    d = m.dim
    h = np.tensordot(np.exp(1j * np.arange(1, m.size + 1) ** 2.0), m.basis, axes=1)
    lam, u = np.linalg.eigh(h + h.conj().T)
    split = np.diff(lam) > _CLUSTER_GAP * np.max(np.abs(lam))
    block = np.concatenate(([0], np.cumsum(split)))
    keep = np.flatnonzero(block[:, None] == block[None, :])  # symmetric: either vec order
    rotated = u.conj().T @ m.basis @ u
    by_index = rotated.transpose(1, 2, 0)  # by_index[j, i] = (b[j, i] for each b)
    # eigenvalues are sorted, so block beta holds the indices starts[beta] +
    # 0..sizes[beta]-1, and its kept coordinates (i, k) sit at offsets[beta]
    # + i*sizes[beta] + k in `keep`
    sizes = np.bincount(block)
    starts = np.cumsum(sizes) - sizes
    offsets = np.cumsum(sizes * sizes) - sizes * sizes
    groups = []  # per block size s: that size, the indices (beta, 0..s-1), the kept positions
    for s in sorted(set(sizes.tolist())):
        blocks = np.flatnonzero(sizes == s)
        groups.append((s, starts[blocks, None] + np.arange(s),
                       (offsets[blocks, None] + np.arange(s * s)).ravel()))
    gram = np.empty((keep.size, keep.size), dtype=complex)
    for s, beta, kept_s in groups:
        for t, gamma, kept_t in groups:
            # tiles[gamma, beta, j*s + i] = (b[j, i] for each b) over gamma x beta
            tiles = by_index[gamma[:, None, :, None], beta[None, :, None, :]].reshape(
                gamma.shape[0], beta.shape[0], t * s, m.size)
            # cross[gamma, beta, j, i, l, k] = X[(i, k), (j, l)]
            cross = (tiles @ tiles.conj().swapaxes(2, 3)).reshape(
                gamma.shape[0], beta.shape[0], t, s, t, s)
            gram[np.ix_(kept_s, kept_t)] = cross.transpose(1, 3, 5, 0, 2, 4).reshape(
                kept_s.size, kept_t.size)
    gram += gram.conj().T
    np.negative(gram, out=gram)
    # sum b^H b and sum conj(b) b^T, each one (k d x d)^H (k d x d) product:
    # the rows (b, j) hold b[j, :] and, transposed, b[:, j]
    stacked = rotated.reshape(-1, d)
    left = stacked.conj().T @ stacked
    stacked = rotated.transpose(0, 2, 1).reshape(-1, d)
    right = stacked.conj().T @ stacked
    row, col = np.divmod(keep, d)  # keep[p] = i*d + k holds (i, k)
    gram += np.where(row[:, None] == row, left[col[:, None], col], 0)
    gram += np.where(col[:, None] == col, right[row[:, None], row], 0)
    return u, keep, gram, [(s, kept_s) for s, _, kept_s in groups]


@dataclass(frozen=True)
class Frame:
    """The d x k frame B = [b_1 Omega ... b_k Omega] of (M, Omega), its
    singular values and right singular vectors from one SVD, and its rank
    (values above _RANK_TOL): Omega is cyclic for M when the rank is d and
    separating when it is k."""

    algebra: MatrixAlgebra
    matrix: np.ndarray
    svals: np.ndarray
    vh: np.ndarray
    rank: int

    @classmethod
    def of(cls, m: MatrixAlgebra, omega) -> "Frame":
        b = (m.basis @ _as_state(omega)).T
        _, svals, vh = np.linalg.svd(b)
        return cls(m, b, svals, vh, int(np.sum(svals > _RANK_TOL)))

    @property
    def cyclic(self) -> bool:
        return self.rank == self.algebra.dim

    def annihilator(self) -> np.ndarray | None:
        """A unit x in M with x Omega = 0, or None when Omega separates M."""
        if self.rank == self.algebra.size:
            return None
        x = np.einsum("a,aij->ij", self.vh[-1].conj(), self.algebra.basis)
        return x / np.linalg.norm(x)


def is_cyclic(m: MatrixAlgebra, omega) -> bool:
    """{x Omega : x in M} spans C^d (numerical rank test)."""
    return Frame.of(m, omega).cyclic


def separating_violation(m: MatrixAlgebra, omega) -> np.ndarray | None:
    """A nonzero x in M with x Omega = 0, or None when Omega separates M."""
    return Frame.of(m, omega).annihilator()


def is_separating(m: MatrixAlgebra, omega) -> bool:
    """x Omega = 0 forces x = 0; checked directly and, independently, as
    cyclicity for the commutant.  The two answers must agree."""
    direct = separating_violation(m, omega) is None
    via_commutant = is_cyclic(commutant(m), omega)
    if direct != via_commutant:
        raise RuntimeError(
            "separating tests disagree (kernel test vs commutant cyclicity); "
            "the example is too ill-conditioned to trust")
    return direct


class IdentityDefect(ValueError):
    """An identity of the modular triple misses its bound: a mathematical
    failure of the computed data, not a malformed input."""

    def __init__(self, identity: str, residual: float, bound: float):
        super().__init__(f"{identity} fails: residual {residual:.3e} exceeds the bound {bound:.3e}")
        self.identity, self.residual, self.bound = identity, residual, bound


@dataclass(frozen=True)
class ModularTriple:
    """Modular data (S, Delta, J) of (M, Omega).

    `s_matrix` and `j_matrix` are the linear parts of the antilinear
    operators: S v = s_matrix conj(v), J v = j_matrix conj(v).
    `basis_conditioning` is the condition number of the frame {x_i Omega}
    that S was solved on; large values mean the defects below are limited
    by roundoff rather than by the theory.
    """

    omega: np.ndarray
    delta: np.ndarray
    j_matrix: np.ndarray
    s_matrix: np.ndarray
    eigenvalues: np.ndarray   # spectrum of Delta, ascending
    eigenvectors: np.ndarray  # unitary, columns matching `eigenvalues`
    basis_conditioning: float = 1.0

    @property
    def dim(self) -> int:
        return self.delta.shape[0]

    def apply_s(self, v: np.ndarray) -> np.ndarray:
        return self.s_matrix @ np.conj(v)

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        return self.j_matrix @ np.conj(v)

    def conjugate_by_j(self, x: np.ndarray) -> np.ndarray:
        """J x J as a linear operator."""
        return self.j_matrix @ np.conj(x) @ np.conj(self.j_matrix)

    def delta_power(self, t: complex) -> np.ndarray:
        """Delta^t through the eigendecomposition; t = i s gives the
        modular unitaries."""
        powers = np.power(self.eigenvalues.astype(complex), t)
        return (self.eigenvectors * powers) @ self.eigenvectors.conj().T

    def validate(self, m: MatrixAlgebra) -> None:
        """Each identity to within _IDENTITY_C eps kappa(B) sqrt(kappa(Delta))
        max(||rhs||, 1) in the Frobenius norm; IdentityDefect for the first miss."""
        scale = (_IDENTITY_C * np.finfo(float).eps * self.basis_conditioning
                 * np.sqrt(np.max(self.eigenvalues) / np.min(self.eigenvalues)))
        j, om = self.j_matrix, self.omega
        for name, lhs, rhs in (
                ("J^2 = 1", j @ np.conj(j), np.eye(self.dim)),
                ("J Delta J = Delta^{-1}", self.conjugate_by_j(self.delta),
                 np.linalg.inv(self.delta)),
                ("Delta Omega = Omega", self.delta @ om, om),
                ("J Omega = Omega", self.apply_j(om), om),
                ("S = J Delta^{1/2}", j @ np.conj(self.delta_power(0.5)), self.s_matrix),
                ("S x Omega = x* Omega on the algebra", self.apply_s((m.basis @ om).T),
                 (m.basis.conj().transpose(0, 2, 1) @ om).T)):
            residual = float(np.linalg.norm(lhs - rhs))
            bound = float(scale * max(np.linalg.norm(rhs), 1.0))
            if not residual <= bound:
                raise IdentityDefect(name, residual, bound)


def tomita(m: MatrixAlgebra, omega, frame: Frame | None = None) -> ModularTriple:
    """Modular triple of (M, Omega); Omega must be cyclic and separating.
    `frame` is Frame.of(m, omega) when the caller has already taken it.

    With basis {b_i} and B = [b_1 Omega ... b_k Omega],
    C = [b_1* Omega ... b_k* Omega], the antilinear S has linear part
    C conj(B)^{-1}; Delta = S^T conj(S) and J = S conj(Delta^{-1/2}).
    """
    v = _as_state(omega)
    if v.shape[0] != m.dim:
        raise ValueError("state vector dimension does not match the algebra")
    if frame is None:
        frame = Frame.of(m, v)
    b_cols, svals, rank = frame.matrix, frame.svals, frame.rank
    if rank < m.dim:
        raise ValueError("state is not cyclic for the algebra")
    if rank < m.size:
        raise ValueError("state is not separating for the algebra; "
                         "an annihilating element exists")
    c_cols = (m.basis.conj().transpose(0, 2, 1) @ v).T
    s_mat = c_cols @ np.conj(np.linalg.inv(b_cols))  # rank d = k: B is invertible
    delta = s_mat.T @ np.conj(s_mat)
    delta = 0.5 * (delta + delta.conj().T)
    vals, vecs = np.linalg.eigh(delta)
    if np.min(vals) <= 0:
        raise ValueError("modular operator is not positive definite; "
                         "the state is numerically degenerate")
    inv_sqrt = (vecs * np.power(vals, -0.5)) @ vecs.conj().T
    j_mat = s_mat @ np.conj(inv_sqrt)
    triple = ModularTriple(v, delta, j_mat, s_mat, vals, vecs,
                           basis_conditioning=float(svals[0] / svals[-1]))
    triple.validate(m)
    return triple


def modular_flow_defect(triple: ModularTriple, m: MatrixAlgebra,
                        t_samples: Sequence[float]) -> float:
    """max over t and basis x of dist(Delta^{it} x Delta^{-it}, M);
    Tomita's theorem makes this vanish for a correct triple."""
    worst = 0.0
    for t in t_samples:
        u = triple.delta_power(1j * t)
        u_inv = triple.delta_power(-1j * t)
        worst = max(worst, float(np.max(m.distance(u @ m.basis @ u_inv))))
    return worst


def kms_defect(m: MatrixAlgebra, omega, samples: int = 100, seed: int = 0,
               triple: ModularTriple | None = None) -> float:
    """max |<Omega, x Delta y Omega> - <Omega, y x Omega>| over `samples`
    (at least 1) seeded random unit-norm pairs x, y in M.

    Each of x and y is sum_a c_a b_a / ||.|| over the basis, with the real
    parts of the c_a drawn before their imaginary parts, x before y and
    sample after sample.  The samples go in chunks of at most
    _PRODUCT_CHUNK matrix entries: one standard_normal((n, 2, 2, k)) draw,
    one tensordot for all n pairs, and both sides as the matrix-vector
    products (Omega^H x) (Delta y Omega) and (Omega^H y) (x Omega)."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    v = _as_state(omega)
    if triple is None:
        triple = tomita(m, v)
    rng = np.random.default_rng(seed)
    chunk = max(1, _PRODUCT_CHUNK // (2 * m.dim * m.dim))
    worst = 0.0
    for start in range(0, samples, chunk):
        z = rng.standard_normal((min(chunk, samples - start), 2, 2, m.size))
        xy = np.tensordot(z[:, :, 0] + 1j * z[:, :, 1], m.basis, axes=1)
        xy /= np.linalg.norm(xy, axis=(2, 3))[:, :, None, None]
        right = xy @ v  # x Omega, y Omega
        left = v.conj() @ xy  # Omega^H x, Omega^H y
        lhs = np.sum(left[:, 0] * (right[:, 1] @ triple.delta.T), axis=1)
        rhs = np.sum(left[:, 1] * right[:, 0], axis=1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---------------------------------------------------------------------------
# shipped examples


def qubit_factor() -> MatrixAlgebra:
    """M_2 tensor 1 on C^2 x C^2: the smallest factor with nonscalar
    commutant, the workhorse example."""
    eye2 = np.eye(2)
    gens = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            gens.append(np.kron(e, eye2))
    return algebra_closure(gens)


def schmidt_state(p: float) -> StateVector:
    """sqrt(p) e1 x e1 + sqrt(1-p) e2 x e2 on C^4; cyclic and separating for
    M_2 x 1 whenever 0 < p < 1, tracial at p = 1/2."""
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(p)      # e1 x e1
    v[3] = np.sqrt(1 - p)  # e2 x e2
    return StateVector(v)


def diagonal_algebra(d: int) -> MatrixAlgebra:
    """The maximal abelian algebra of diagonal matrices on C^d."""
    basis = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        basis[i, i, i] = 1.0
    return MatrixAlgebra(d, basis)
