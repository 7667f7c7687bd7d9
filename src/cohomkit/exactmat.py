"""Exact linear algebra over the rationals, prime fields, and the integers.

Every rank, kernel, and quotient computation in the toolkit bottoms out here,
so nothing in this module touches floating point.  Over Q a matrix is sparse
rows, {column: Fraction} maps of the nonzeros, and a vector is a dense
tuple; prime-field matrices carry reduced residues; integer matrices carry
arbitrary-precision ints and support Smith normal form (the presentation of
finitely generated abelian groups as divisor chains).

Rational rank clears each row of denominators into a {column: int} map and
runs a sparse fraction-free elimination over Z, `_primitive_rank`: the
sparsest row is the next pivot, only rows with a nonzero in its column are
updated, and each updated row is divided by its content, so rows stay
primitive multiples of Gaussian-elimination rows (Hadamard's bound holds
their entries) and a matrix costs about its nonzeros per pivot.  Reduced
echelon forms are another algorithm on purpose: `Echelon` grows the unique
RREF basis of a subspace one dense vector at a time, pivots leftmost, on
primitive integer rows (a vector's denominators are cleared as it comes
in; Fractions are formed only when the RREF is read), and
`RationalMatrix.rref` (so `kernel_basis` and `solve`) and `liealg.Subspace`
run on it.

Over Z/p^e, `kernel_mod`, `solve_mod` and `local_smith_exponents` read a
matrix through two conversions only: GF(2) column words (bit i of word c
is entry (i, c) mod 2) and lane columns mod p^e (lane i of word c, a
field of bits whose width depends on p^e alone, holds entry (i, c) mod
p^e).  Dense matrices derive both from their entries.  An
`IncidenceMatrix`, the signed face columns of a coboundary (row j =
sum_i (-1)^i e_{columns[i][j]}), derives them with no dense matrix: each
face XORs bit j into word columns[i][j], so repeated faces cancel mod 2,
or adds its sign into lane j of that word, after which p^e is added to
every lane and the words are reduced.  For p^e > 2, `_local_eliminate` on
lane columns, where no entry grows, gives the elementary divisors; a
pivot updates each column it meets with one multiply-add and one lane
reduction (a mask when p = 2, a SWAR Barrett step otherwise), and an
identity block in the lanes past the rows takes the column operations,
so kernels and solutions read V off it.  At p^e = 2 (the 2-part of
6 or 10 too) one column echelon serves all three: each column, carrying
its combination bits, is reduced at its lowest row bit against the
independent columns before it.  The output is the dense sweep's byte for
byte: a column reduces to zero iff it lies in the span of those before
it, so the free columns are the RREF's non-pivot columns; a free column's
combination, 1 there and otherwise on held columns only, is the unique
kernel vector that is 1 there and 0 at the other free columns; and a
right-hand side that reduces to zero leaves a combination on held columns
only, the unique solution that is 0 on every free column.  `kernel_mod`
and `solve_mod` share one factorization per (matrix, modulus) for the
last SOLVE_CACHE_SIZE pairs, `_factored`: the column echelon at p^e = 2,
otherwise the pivots and the final lane words.  Pivots are chosen on the
matrix alone, so a right-hand side reduced against the pivot columns
takes the steps an appended column would have taken, and nothing else
of the elimination is kept.
Smith form with transforms over Z, `smith_transforms`, has no caller left
in the package.

All matrix values are immutable after construction (no code writes to a row
map; an incidence only fills its `entries` once) and safe to share; an
`Echelon` is mutable and belongs to its owner.
`check_dense` refuses a dense object of more than DENSE_CELL_LIMIT cells
before it is built.
"""

from __future__ import annotations

import operator
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Sequence

__all__ = [
    "Echelon",
    "RationalMatrix",
    "PrimeFieldMatrix",
    "IntegerMatrix",
    "IncidenceMatrix",
    "SmithDecomposition",
    "local_smith_exponents",
    "prime_power_factors",
    "smith_transforms",
    "solve_mod",
    "kernel_mod",
    "SizeLimitExceeded",
    "check_dense",
]

DENSE_CELL_LIMIT = 2 ** 22  # cells of one dense matrix a caller may build


class SizeLimitExceeded(ValueError):
    """A computation was requested beyond its documented size bound."""

    def __init__(self, message: str, bound: int, requested: int):
        super().__init__(message)
        self.bound = bound
        self.requested = requested


def check_dense(what: str, cells: int) -> None:
    """Refuse `what`, a dense object of `cells` cells, before it is built
    when it exceeds DENSE_CELL_LIMIT."""
    if cells > DENSE_CELL_LIMIT:
        raise SizeLimitExceeded(
            f"{what}: {cells} cells exceed the dense bound of {DENSE_CELL_LIMIT} (2^22)",
            DENSE_CELL_LIMIT, cells)


def prime_power_factors(n: int) -> list[tuple[int, int]]:
    """The pairs (p, e) with p^e exactly dividing n ([] for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _as_int(x, what: str) -> int:
    """x as an int; a value `operator.index` refuses is a ValueError naming `what`."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what}: {x!r} is not an integer") from None


def _as_ints(values: Iterable, where: str) -> tuple[int, ...]:
    """values as ints; one `operator.index` refuses is a ValueError naming it."""
    out = []
    for j, x in enumerate(values):
        try:
            out.append(operator.index(x))
        except TypeError:
            raise ValueError(f"{where} {j}: {x!r} is not an integer") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# rational matrices


def _cleared(row: dict) -> tuple[dict[int, int], int]:
    """A {column: Fraction or int} row times the lcm D of its denominators, and D."""
    den = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}, den


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by its content."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _combine(fu: int, u: dict[int, int], fv: int, v: dict[int, int]) -> dict[int, int]:
    """fu u - fv v, its zero entries dropped."""
    out = {j: fu * x for j, x in u.items()} if fu != 1 else dict(u)
    for j, x in v.items():
        out[j] = out.get(j, 0) - fv * x
    return {j: y for j, y in out.items() if y}


class Echelon:
    """The reduced row echelon basis of a subspace of Q^n, grown one vector
    at a time.  Row i is held as its primitive integer multiple, a {column:
    int} map of its nonzeros, positive at its pivot `pivots[i]` and 0 at the
    other pivots; pivots ascend.  The basis is unique for the subspace,
    whatever the insertion order, and so are these rows."""

    def __init__(self, n: int):
        self.n = n
        self.pivots: list[int] = []
        self._rows: list[dict[int, int]] = []

    def _reduce(self, vec: Sequence) -> tuple[dict[int, int], int]:
        """(r, s) with r / s = vec minus its projection along the basis: vec
        cleared of denominators, then each pivot column cleared fraction-free
        with s tracking the scale."""
        out, s = _cleared({j: x for j, x in enumerate(vec) if x})
        for c, row in zip(self.pivots, self._rows):
            a = out.get(c)
            if a:
                g = gcd(a, row[c])
                out = _combine(row[c] // g, out, a // g, row)
                s *= row[c] // g
        return out, s

    def reduce(self, vec: Sequence) -> list[Fraction]:
        """vec minus its projection along the basis; zero iff vec is in the span."""
        out, s = self._reduce(vec)
        return [Fraction(out.get(j, 0), s) for j in range(len(vec))]

    def add(self, vec: Sequence) -> bool:
        """Insert vec; True when the dimension grew.  The new row is 0 at the
        held pivots, so only its own pivot column is cleared from the rows."""
        out = self._reduce(vec)[0]
        if not out:
            return False
        c = min(out)
        g = gcd(*out.values()) if out[c] > 0 else -gcd(*out.values())
        new = {j: x // g for j, x in out.items()}
        for i, row in enumerate(self._rows):
            b = row.get(c)
            if b:
                g = gcd(b, new[c])
                self._rows[i] = _primitive(_combine(new[c] // g, row, b // g, new))
        i = bisect(self.pivots, c)
        self.pivots.insert(i, c)
        self._rows.insert(i, new)
        return True

    def integer_rows(self) -> list[dict[int, int]]:
        """The held primitive integer rows; callers only read them."""
        return list(self._rows)

    def _fractions(self) -> list[dict[int, Fraction]]:
        return [{j: Fraction(x, row[c]) for j, x in row.items()}
                for c, row in zip(self.pivots, self._rows)]

    def rows(self) -> list[tuple[Fraction, ...]]:
        """The reduced echelon basis: each row divided by its pivot entry."""
        zero = Fraction(0)
        return [tuple(row.get(j, zero) for j in range(self.n)) for row in self._fractions()]


@dataclass(frozen=True)
class RationalMatrix:
    """Matrix over Q, immutable.  Row i is a {column: Fraction} map of its
    nonzero entries, columns in 0..cols-1; a zero row is an empty map."""

    rows: int
    cols: int
    entries: tuple[dict[int, Fraction], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match the stored rows")
        for row in self.entries:
            if row and not (0 <= min(row) and max(row) < self.cols):
                raise ValueError(f"column index outside 0..{self.cols - 1}")
            if not all(row.values()):
                raise ValueError("a sparse row stores a zero entry")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        """The matrix of dense rows of equal length."""
        data = [[Fraction(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("rows differ in length")
        return cls(len(data), ncols,
                   tuple({j: x for j, x in enumerate(row) if x} for row in data))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product over Q."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        v = [Fraction(x) for x in vec]
        return tuple(sum((x * v[j] for j, x in row.items()), Fraction(0))
                     for row in self.entries)

    def rank(self) -> int:
        """Rank over Q: the rows cleared of denominators, then `_primitive_rank`."""
        return _primitive_rank([_primitive(_cleared(row)[0]) for row in self.entries if row])

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns; the rows past
        the rank are empty."""
        ech = Echelon(self.cols)
        for row in self.entries:
            ech.add([row.get(j, 0) for j in range(self.cols)])
        rows = ech._fractions() + [{} for _ in range(self.rows - len(ech.pivots))]
        return RationalMatrix(self.rows, self.cols, tuple(rows)), tuple(ech.pivots)

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right null space; len == cols - rank.  Each vector
        ends in a 1 at its own free column, where every other vector is 0."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for row, c in zip(red.entries, pivots):
                if f in row:
                    v[c] = -row[f]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence) -> tuple[Fraction, ...] | None:
        """One solution of M x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match row count")
        n = self.cols
        aug = RationalMatrix(self.rows, n + 1, tuple(
            {**row, n: b} if b else row for row, b in zip(self.entries, map(Fraction, rhs))))
        red, pivots = aug.rref()
        if n in pivots:
            return None
        x = [Fraction(0)] * n
        for row, c in zip(red.entries, pivots):
            x[c] = row.get(n, x[c])
        return tuple(x)


def _primitive_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of sparse integer rows (empty ones allowed) by fraction-free
    elimination over Z; every updated row is made primitive again, so it is
    the primitive multiple of a Gaussian-elimination row and Hadamard's
    bound on the minors bounds its entries."""
    live = [row for row in rows if row]
    r = 0
    while live:
        piv = min(live, key=len)  # the first sparsest row: no earlier row equals it
        live.remove(piv)
        r += 1
        c = min(piv, key=lambda j: abs(piv[j]))
        p = piv[c]
        kept = []
        for row in live:
            a = row.get(c)
            if a is None:
                kept.append(row)
                continue
            g = gcd(a, p)
            new = _combine(p // g, row, a // g, piv)
            if new:
                kept.append(_primitive(new))
        live = kept
    return r


# ---------------------------------------------------------------------------
# prime field matrices


class _Lanes:
    """Residues mod q packed into Python ints, `width` bits a lane: lane i
    of a word is its bits i*width .. (i+1)*width - 1.  A lane may reach
    q^2 - 1 between reductions; `reduce` brings every lane of a word back
    below q at once.  For q a power of 2 it is a mask.  Otherwise it is a
    SWAR Barrett step: with shift = bits of (q^2 - 1)(q - 1) and mul =
    ceil(2^shift / q), (x mul) >> shift is exactly floor(x / q) for
    x < q^2, so x - q floor(x / q) needs neither a division nor a second
    subtraction, and the lane is wide enough that x mul never carries out
    of it.  The constants come from q alone; the masks span the first n
    lanes, and words may use fewer."""

    def __init__(self, q: int, n: int):
        top = q * q - 1
        self.q = q
        if q & (q - 1) == 0:
            self.width = max(top.bit_length(), 1)
            self.reduce = self.fill(q - 1, n).__and__
        else:
            shift = (top * (q - 1)).bit_length()
            mul = -(-(1 << shift) // q)
            self.width = (top * mul).bit_length()
            low = self.fill((1 << self.width - shift) - 1, n)
            self.reduce = lambda x: x - ((x * mul >> shift) & low) * q
        self.lane = (1 << self.width) - 1

    def fill(self, x: int, n: int) -> int:
        """The word with x in each of its first n lanes."""
        return ((1 << n * self.width) - 1) // ((1 << self.width) - 1) * x

    def unpack(self, w: int, n: int) -> list[int]:
        """The first n lanes of word w."""
        return [w >> s & self.lane for s in range(0, n * self.width, self.width)]


class _DenseRows:
    """The two readings of a matrix that `kernel_mod`, `solve_mod` and
    `local_smith_exponents` take, derived from dense `entries`."""

    def _gf2_columns(self) -> list[int]:
        """Column words: bit i of word c is entry (i, c) mod 2."""
        if not self.rows:
            return [0] * self.cols
        return [sum(1 << i for i, x in enumerate(col) if x % 2) for col in zip(*self.entries)]

    def _lane_columns(self, lanes: _Lanes) -> list[int]:
        """Lane columns: lane i of word c is entry (i, c) mod q."""
        if not self.rows:
            return [0] * self.cols
        q, shifts = lanes.q, range(0, self.rows * lanes.width, lanes.width)
        return [sum(x % q << s for x, s in zip(col, shifts)) for col in zip(*self.entries)]


@dataclass(frozen=True)
class PrimeFieldMatrix(_DenseRows):
    """Dense matrix over GF(p); entries stored as reduced residues."""

    modulus: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if prime_power_factors(self.modulus) != [(self.modulus, 1)]:
            raise ValueError(f"modulus {self.modulus} is not prime")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entry grid")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count does not match entry grid")
            for x in row:
                if not 0 <= x < self.modulus:
                    raise ValueError("entry not reduced modulo the field order")

    @classmethod
    def from_rows(cls, modulus: int, rows: Iterable[Iterable[int]]) -> "PrimeFieldMatrix":
        data = tuple(tuple(x % modulus for x in _as_ints(row, f"row {i}, column"))
                     for i, row in enumerate(rows))
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return cls(modulus, nrows, ncols, data)

    def rank(self) -> int:
        return len(local_smith_exponents(self, self.modulus, 1))


def _gf2_reduce(held: dict[int, tuple[int, int]], w: int, x: int) -> tuple[int, int]:
    """Column word w with combination bits x, reduced at its lowest row bit
    by the held column there, one XOR each, until no held column has it."""
    while w:
        h = held.get((w & -w).bit_length() - 1)
        if h is None:
            break
        w ^= h[0]
        x ^= h[1]
    return w, x


def _gf2_column_echelon(words: Sequence[int]) -> tuple[dict, list[tuple[int, int]]]:
    """The GF(2) column echelon of packed columns (bit i of word c is entry
    (i, c) mod 2): (held, free).  Column c comes in with combination bits
    1 << c and is reduced against the independent columns before it; held
    maps the lowest row bit of each column that stays nonzero to (word,
    combination), and free lists (c, combination) for each column that
    reduces to zero, its combination being a kernel vector."""
    held: dict[int, tuple[int, int]] = {}
    free = []
    for c, w in enumerate(words):
        w, x = _gf2_reduce(held, w, 1 << c)
        if w:
            held[(w & -w).bit_length() - 1] = w, x
        else:
            free.append((c, x))
    return held, free


def _local_eliminate(cols: list[int], rows: int, lanes: _Lanes, p: int, e: int) -> list[tuple]:
    """The one elimination over Z/p^e, p^e > 2, behind exponents, kernels
    and solves, on lane columns: word c holds entry (i, c) mod p^e in lane
    i (`lanes`), and `cols` is updated in place.

    Level v = 0..e-1 pivots, column by column, on the lowest live lane of
    valuation exactly v, clears that column in every other live row and
    drops the pivot row; afterwards every live entry is divisible by
    p^(v+1).  Lanes stay reduced mod p^e, so nothing grows.  A column, once
    pivoted, is zero in every live row from then on, so only the columns
    not yet pivoted are searched and read, and a pivot column is never
    written again.

    Pivots come back as (c, v, inv, support, i), inv = (x_c / p^v)^-1,
    support the nonzero (j, x_j) of the pivot row and i its lane.  The row
    operations row -= (row[c] / p^v) inv pivot row and the column
    operations col_j -= (x_j / p^v) inv col_c, j != c, are one multiply-add
    per support column: col_j += (q - x_j / p^v) G with G = col_c inv, no
    lane divided (every live x is divisible by p^v).  On live rows that is
    the row operation, and the column operations change no live row
    (column c is zero there once it is cleared), so an identity block in
    the lanes past `rows` ends as V, and m V is zero but for the pivots.
    """
    q, width, lane, reduce = p ** e, lanes.width, lanes.lane, lanes.reduce
    live = (1 << rows * width) - 1  # every lane of the rows not yet pivots
    unpivoted = list(range(len(cols)))
    pivots = []
    for v in range(e):
        pv, scale = p ** v, p ** (e - 1 - v)  # x scale != 0 mod q iff x has valuation v
        for c in unpivoted[:]:
            w = cols[c]
            hit = reduce(w * scale) & live
            if not hit:
                continue
            i = ((hit & -hit).bit_length() - 1) // width
            s = i * width
            at = lane << s
            live ^= at
            support = [(j, cols[j] >> s & lane) for j in unpivoted if cols[j] & at]
            inv = pow((w >> s & lane) // pv, -1, q)
            g = reduce(w * inv)
            for j, x in support:
                if j != c:
                    cols[j] = reduce(cols[j] + (q - x // pv) * g)
            unpivoted.remove(c)
            pivots.append((c, v, inv, support, i))
    return pivots


def local_smith_exponents(m: IntegerMatrix | PrimeFieldMatrix | IncidenceMatrix,
                          p: int, e: int) -> list[int]:
    """Exponents a < e of the elementary divisors p^a of m over Z/p^e.

    Divisors vanishing mod p^e are not listed, so for e = 1 the length is
    the rank over GF(p).  At p^e = 2 they are the held columns of the
    column echelon of m's GF(2) column words, otherwise the pivots of
    `_local_eliminate` on m's lane columns.  A p or e that `operator.index`
    refuses, a p that is not prime or a negative e is a ValueError.
    """
    p, e = _as_int(p, "p"), _as_int(e, "e")
    if prime_power_factors(p) != [(p, 1)]:
        raise ValueError(f"p: {p} is not prime")
    if e < 0:
        raise ValueError(f"e: {e} is negative")
    if p ** e == 2:
        return [0] * len(_gf2_column_echelon(m._gf2_columns())[0])
    lanes = _Lanes(p ** e, m.rows)
    return [v for _, v, *_ in _local_eliminate(m._lane_columns(lanes), m.rows, lanes, p, e)]


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


@dataclass(frozen=True)
class IntegerMatrix(_DenseRows):
    """Dense matrix over Z with arbitrary-precision entries, its rows
    stored as tuples, so every matrix is hashable."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entry grid")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count does not match entry grid")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        data = tuple(_as_ints(row, f"row {i}, column") for i, row in enumerate(rows))
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return cls(nrows, ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(row[j] * vec[j] for j in range(self.cols)) for row in self.entries)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Sparse integer matrix of signed face columns: row j is
    sum_i (-1)^i e_{columns[i][j]}, so a repeated index adds up (or cancels)
    in its row.  Equal and hashed by its fields, so `_factored` keys its
    factorizations by them; the dense `entries` are built on first read."""

    rows: int
    cols: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for col in self.columns:
            if len(col) != self.rows:
                raise ValueError("face column length does not match the row count")
            if col and not (0 <= min(col) and max(col) < self.cols):
                raise ValueError(f"column index outside 0..{self.cols - 1}")

    def _signed_rows(self) -> list[list[int]]:
        rows = [[0] * self.cols for _ in range(self.rows)]
        for i, col in enumerate(self.columns):
            sign = -1 if i & 1 else 1
            for row, c in zip(rows, col):
                row[c] += sign
        return rows

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows."""
        return tuple(map(tuple, self._signed_rows()))

    def _gf2_columns(self) -> list[int]:
        """Column words: each face XORs bit j into word columns[i][j], so a
        repeated index cancels mod 2."""
        words = [0] * self.cols
        bits = [1 << j for j in range(self.rows)]
        for col in self.columns:
            for c, bit in zip(col, bits):
                words[c] ^= bit
        return words

    def _lane_columns(self, lanes: _Lanes) -> list[int]:
        """Lane columns: each face adds its sign into lane j of word
        columns[i][j]; after every q faces, q is added to each lane and the
        words reduced, so no lane goes negative or past what `reduce` takes."""
        words = [0] * self.cols
        bits = [1 << s for s in range(0, self.rows * lanes.width, lanes.width)]
        signed = (bits, [-bit for bit in bits])
        offset = lanes.fill(lanes.q, self.rows)
        for start in range(0, len(self.columns), lanes.q):
            for i in range(start, min(start + lanes.q, len(self.columns))):
                for c, bit in zip(self.columns[i], signed[i & 1]):
                    words[c] += bit
            words = [lanes.reduce(w + offset) for w in words]
        return words


@dataclass(frozen=True)
class SmithDecomposition:
    """U m V = diag(factors) with U, V unimodular; factors divide in order."""

    factors: tuple[int, ...]
    u: IntegerMatrix | None
    v: IntegerMatrix | None


def smith_transforms(m: IntegerMatrix, want_u: bool = True, want_v: bool = True) -> SmithDecomposition:
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if want_u else None
    v = [[int(i == j) for j in range(cols)] for i in range(cols)] if want_v else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        if u is not None:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        for row in a:
            row[i] += q * row[j]
        if v is not None:
            for row in v:
                row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # smallest-magnitude nonzero pivot keeps coefficient growth down
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if a[t][t] < 0:
                negate_row(t)
            if dirty:
                continue
            if all(a[i][t] == 0 for i in range(t + 1, rows)) and all(
                a[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        # divisor-chain condition: pivot must divide the remaining block
        p = a[t][t]
        violator = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % p:
                    violator = i
                    break
            if violator is not None:
                break
        if violator is not None:
            add_row(t, violator, 1)
            continue
        t += 1

    factors = tuple(a[i][i] for i in range(limit) if a[i][i] != 0)
    return SmithDecomposition(
        factors,
        IntegerMatrix.from_rows(u) if u is not None else None,
        IntegerMatrix.from_rows(v) if v is not None else None,
    )


SOLVE_CACHE_SIZE = 32  # (matrix, modulus) factorizations `kernel_mod` and `solve_mod` share


@lru_cache(maxsize=SOLVE_CACHE_SIZE)
def _factored(m: IntegerMatrix | IncidenceMatrix, modulus: int) -> tuple:
    """m eliminated once per p^e exactly dividing the modulus, as (p, e,
    factor) per prime power, for `kernel_mod` and `solve_mod` alike.

    At p^e = 2 the factor is the column echelon (held, free) of m's GF(2)
    column words.  Otherwise it is (pivots, lanes, words): the pivots of
    `_local_eliminate` on m's lane columns with an identity block in the
    lanes past m's rows, and the final words, whose lanes past the rows
    are V.  A pivot column keeps the word it was pivoted on; every other
    column ends zero on the rows, so its word is its column of V."""
    parts = []
    for p, e in prime_power_factors(modulus):
        if p ** e == 2:
            parts.append((p, e, _gf2_column_echelon(m._gf2_columns())))
            continue
        lanes = _Lanes(p ** e, m.rows + m.cols)
        base = m.rows * lanes.width
        words = [w | 1 << base + j * lanes.width for j, w in enumerate(m._lane_columns(lanes))]
        parts.append((p, e, (_local_eliminate(words, m.rows, lanes, p, e), lanes, words)))
    return tuple(parts)


def _positive_modulus(modulus) -> int:
    modulus = _as_int(modulus, "modulus")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return modulus


def solve_mod(m: IntegerMatrix | IncidenceMatrix, rhs: Sequence[int],
              modulus: int) -> list[int] | None:
    """One solution of m x = rhs (mod modulus), or None.

    Per p^e exactly dividing the modulus, the packed right-hand side is
    reduced against m's factorization (`_factored`), as one more column
    would have been.  At p^e = 2 it is reduced against the held columns of
    the column echelon; a bit left over means no solution, otherwise the
    combination carried along is the solution, on held columns only.
    Otherwise b mod p^e is one lane word, zero past the rows, taken through
    the pivots in order: with y its lane at the pivot's row, a pivot
    (c, v, inv) needs p^v | y and adds (q - y / p^v) G_c, G_c = col_c inv,
    which clears that lane.  A pivot column is not written once pivoted,
    so col_c is the word the pivot took.  Every lane on the rows must then
    be 0, and the lanes past them, the same combination of V's columns,
    hold -x.  The prime-power solutions are combined by CRT.  A modulus or
    rhs entry that `operator.index` refuses is a ValueError.
    """
    modulus = _positive_modulus(modulus)
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    rhs = _as_ints(rhs, "right-hand side position")
    n = m.cols
    x = [0] * n
    for p, e, factor in _factored(m, modulus):
        q = p ** e
        if q == 2:
            b, comb = _gf2_reduce(factor[0], sum(1 << i for i, y in enumerate(rhs) if y & 1), 0)
            if b:
                return None
            local = [comb >> j & 1 for j in range(n)]
        else:
            pivots, lanes, words = factor
            width, lane, reduce = lanes.width, lanes.lane, lanes.reduce
            base = m.rows * width
            b = sum(y % q << s for y, s in zip(rhs, range(0, base, width)))
            for c, v, inv, _, i in pivots:
                y = b >> i * width & lane
                if y:
                    if y % p ** v:
                        return None
                    b = reduce(b + (q - y // p ** v) * reduce(words[c] * inv))
            if b & (1 << base) - 1:
                return None
            local = [-y % q for y in lanes.unpack(b >> base, n)]
        w = modulus // q
        crt = w * pow(w, -1, q)  # 1 mod q, 0 mod the other prime powers
        x = [(a + crt * b) % modulus for a, b in zip(x, local)]
    return x


def kernel_mod(m: IntegerMatrix | IncidenceMatrix,
               modulus: int) -> list[tuple[tuple[int, ...], int]]:
    """Generators of {x mod modulus : m x = 0 (mod modulus)} with their orders.

    Per p^e exactly dividing the modulus, m's factorization (`_factored`,
    shared with `solve_mod`) gives m's pivots over Z/p^e and the columns
    of V: a pivot of valuation a yields V e_c p^(e-a) of order p^a, and an
    unpivoted column V e_c of order p^e.
    At p^e = 2 the columns that reduce to zero in m's column echelon are
    the unpivoted ones, and each one's combination is the same V e_c: the
    one kernel vector that is 1 at c and 0 at the other free columns.  The
    p-parts, scaled into Z/modulus, are summed largest with largest, so the
    orders are the invariant factors in ascending order, each dividing the
    next; they multiply to the solution-group size and order-1 generators
    are omitted.  A modulus that `operator.index` refuses is a ValueError.
    """
    modulus = _positive_modulus(modulus)
    chains = []
    for p, e, factor in _factored(m, modulus):
        step = modulus // p ** e
        if p ** e == 2:
            chains.append([(2, [step if x >> j & 1 else 0 for j in range(m.cols)])
                           for _, x in factor[1]])
            continue
        pivots, lanes, words = factor
        base = m.rows * lanes.width
        level = {c: v for c, v, *_ in pivots}
        part = []
        for c in range(m.cols):
            a = level.get(c, e)
            if a:
                gen = lanes.reduce((words[c] >> base) * p ** (e - a))
                part.append((p ** a, [x * step for x in lanes.unpack(gen, m.cols)]))
        chains.append(sorted(part, key=lambda g: -g[0]))
    gens = []
    for i in range(max(map(len, chains), default=0)):
        links = [chain[i] for chain in chains if i < len(chain)]
        vec = tuple([s % modulus for s in map(sum, zip(*(x for _, x in links)))])
        gens.append((vec, prod(order for order, _ in links)))
    return gens[::-1]
