import random
import re
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest

from cohomkit import exactmat
from cohomkit.exactmat import (
    DENSE_CELL_LIMIT,
    SOLVE_CACHE_SIZE,
    Echelon,
    IncidenceMatrix,
    IntegerMatrix,
    PrimeFieldMatrix,
    RationalMatrix,
    SizeLimitExceeded,
    check_dense,
    kernel_mod,
    local_smith_exponents,
    prime_power_factors,
    smith_transforms,
    solve_mod,
)
from cohomkit.grpcoh import _NAMED_GROUPS, _light_coboundary_matrix, group_by_name
from sweep_oracle import local_eliminate, sweep_exponents, sweep_kernel, sweep_solve


def smith_normal_form(m: IntegerMatrix) -> list[int]:
    return list(smith_transforms(m, want_u=False, want_v=False).factors)


# ---------------------------------------------------------------------------
# oracles


def minor_gcd_invariants(m: IntegerMatrix) -> list[int]:
    """Independent Smith-form oracle: d_1 ... d_k from gcds of k x k minors,
    d_k = gcd_k / gcd_{k-1}."""

    def det(rows, cols):
        if not rows:
            return 1
        sub = [[m.entries[r][c] for c in cols] for r in rows]
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            sign = -1 if j % 2 else 1
            total += sign * sub[0][0 + j] * _det_list(minor)
        return total

    def _det_list(sub):
        n = len(sub)
        if n == 0:
            return 1
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            sign = -1 if j % 2 else 1
            total += sign * sub[0][j] * _det_list(minor)
        return total

    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, det(rows, cols))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def naive_rank(rows) -> int:
    """Plain fraction Gaussian elimination, as a second route for rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# rational matrices


def _dense(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """The rows of a sparse RationalMatrix as dense tuples."""
    return [tuple(row.get(j, Fraction(0)) for j in range(m.cols)) for row in m.entries]


def _transpose(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix.from_rows(zip(*_dense(m)))


def _identity(n: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def _zeros(rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[0] * cols for _ in range(rows)])


def test_sparse_rows_hold_only_nonzeros_in_range():
    m = RationalMatrix.from_rows([[0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, -1]])
    assert m.entries == ({1: Fraction(1, 2)}, {}, {0: 3, 2: -1})
    assert (m.rows, m.cols) == (3, 3)
    with pytest.raises(ValueError, match="column index outside 0..1"):
        RationalMatrix(1, 2, ({2: Fraction(1)},))
    with pytest.raises(ValueError, match="column index outside 0..1"):
        RationalMatrix(1, 2, ({-1: Fraction(1)},))
    with pytest.raises(ValueError, match="zero entry"):
        RationalMatrix(1, 2, ({0: Fraction(0)},))
    with pytest.raises(ValueError, match="row count"):
        RationalMatrix(2, 2, ({},))
    with pytest.raises(ValueError, match="differ in length"):
        RationalMatrix.from_rows([[1, 2], [3]])


def test_rank_identity():
    assert _identity(3).rank() == 3


def test_rank_zero():
    assert _zeros(2, 2).rank() == 0


def test_rank_proportional_rows():
    assert RationalMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity_empty():
    assert _identity(4).kernel_basis() == []


def test_kernel_forced_direction():
    (v,) = RationalMatrix.from_rows([[1, -1]]).kernel_basis()
    assert v[0] == v[1] != 0


def test_kernel_zero_matrix():
    basis = _zeros(2, 2).kernel_basis()
    assert len(basis) == 2
    assert RationalMatrix.from_rows(basis).rank() == 2


def test_rank_nullity_random():
    rng = random.Random(424)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
             for _ in range(nrows)])
        r = m.rank()
        basis = m.kernel_basis()
        assert r + len(basis) == ncols
        assert r == naive_rank(_dense(m))
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def _sparse_rational_rows(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    """Sparse ±1/±2/±3 rows over small denominators, with zero rows and rows
    that are combinations of earlier ones mixed in."""
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.4 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            t = rng.choice([-2, -1, 1, 3])
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3, 5]))
                         if rng.random() < 0.3 else Fraction(0) for _ in range(ncols)])
    return rows


def test_sparse_rank_matches_rref_pivots():
    rng = random.Random(905)
    for trial in range(400):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 2:  # alternate tall and wide
            nrows, ncols = max(nrows, ncols), min(nrows, ncols)
        else:
            nrows, ncols = min(nrows, ncols), max(nrows, ncols)
        m = RationalMatrix.from_rows(_sparse_rational_rows(rng, nrows, ncols))
        assert m.rank() == len(m.rref()[1]), _dense(m)


def _gauss_jordan(rows: list[list[Fraction]], ncols: int):
    """Dense Gauss-Jordan oracle: the reduced echelon rows and pivots."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[:len(pivots)]], pivots


def test_echelon_in_any_order_is_the_unique_rref():
    rng = random.Random(1818)
    for trial in range(240):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        rows = _sparse_rational_rows(rng, nrows, ncols)
        red, pivots = RationalMatrix.from_rows(rows).rref()
        expected, oracle_pivots = _gauss_jordan(rows, ncols)
        assert list(pivots) == oracle_pivots
        assert _dense(red)[:len(pivots)] == expected
        assert red.rows == nrows and red.entries[len(pivots):] == ({},) * (nrows - len(pivots))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        ech = Echelon(ncols)
        grew = [ech.add(row) for row in shuffled]
        assert sum(grew) == len(pivots)
        basis = ech.rows()
        assert ech.pivots == oracle_pivots and basis == expected
        for i, row in enumerate(basis):  # 1 at its own pivot, 0 at the others
            assert [row[c] for c in ech.pivots] == [int(k == i) for k in range(len(basis))]
        assert not any(any(ech.reduce(row)) for row in rows)


def test_integer_echelon_matches_gauss_jordan_with_exact_residuals():
    rng = random.Random(2727)
    for trial in range(200):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _sparse_rational_rows(rng, nrows, ncols)
        expected, pivots = _gauss_jordan(rows, ncols)
        ech = Echelon(ncols)
        for row in rows:
            ech.add(row)
        assert ech.pivots == pivots and ech.rows() == expected
        # each held row is the primitive integer multiple of its RREF row,
        # positive at its pivot
        for held, c, want in zip(ech.integer_rows(), pivots, expected):
            assert all(type(x) is int for x in held.values())
            assert gcd(*held.values()) == 1 and held[c] > 0
            assert tuple(Fraction(held.get(j, 0), held[c]) for j in range(ncols)) == want
        for vec in _sparse_rational_rows(rng, 4, ncols):
            residual = list(vec)
            for c, row in zip(pivots, expected):
                residual = [x - residual[c] * y for x, y in zip(residual, row)]
            got = ech.reduce(vec)
            assert got == residual and all(type(x) is Fraction for x in got)


def test_echelon_reduce_leaves_the_part_outside_the_span():
    ech = Echelon(3)
    assert ech.add([0, 2, 4]) and not ech.add([0, -1, -2])
    assert ech.reduce([5, 1, 7]) == [5, 0, 5]
    assert ech.add([1, 0, 1]) and ech.pivots == [0, 1]
    assert ech.rows() == [(1, 0, 1), (0, 1, 2)]
    assert not any(ech.reduce([3, -2, -1]))


def test_dense_budget_boundary():
    check_dense("at the bound", DENSE_CELL_LIMIT)
    with pytest.raises(SizeLimitExceeded) as err:
        check_dense("one past", DENSE_CELL_LIMIT + 1)
    assert str(err.value) == "one past: 4194305 cells exceed the dense bound of 4194304 (2^22)"
    assert (err.value.bound, err.value.requested) == (DENSE_CELL_LIMIT, DENSE_CELL_LIMIT + 1)
    # the largest sizes accepted: n = 161 for n^3 structure constants, 2048 for n x n tables
    assert 161 ** 3 <= DENSE_CELL_LIMIT < 162 ** 3
    assert 2048 ** 2 == DENSE_CELL_LIMIT


def test_rank_of_hilbert_matrix_and_its_stack():
    hilbert = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    assert RationalMatrix.from_rows(hilbert).rank() == 8
    doubled = hilbert + [[2 * x for x in row] for row in hilbert]
    stacked = RationalMatrix.from_rows(doubled)
    assert stacked.rank() == len(stacked.rref()[1]) == 8


def test_rref_preserves_row_space():
    rng = random.Random(77)
    for _ in range(15):
        m = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
        red, pivots = m.rref()
        assert red.rank() == m.rank() == len(pivots)
        # every original row solves against the reduced rows and vice versa
        for row in _dense(m):
            assert _transpose(red).solve(row) is not None
        for row in _dense(red):
            if any(row):
                assert _transpose(m).solve(row) is not None


def test_solve_consistency():
    m = RationalMatrix.from_rows([[1, 1], [1, -1]])
    assert m.solve([2, 0]) == (Fraction(1), Fraction(1))
    inconsistent = RationalMatrix.from_rows([[1, 1], [2, 2]])
    assert inconsistent.solve([1, 3]) is None


# ---------------------------------------------------------------------------
# prime fields


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeFieldMatrix.from_rows(4, [[1]])


def _assert_gfp_kernel(rows, ncols: int, p: int, r: int) -> None:
    """The GF(p) kernel from `kernel_mod` has order p^(cols - rank), and
    every generator is annihilated mod p."""
    gens = kernel_mod(IntegerMatrix.from_rows(rows), p)
    assert prod(order for _, order in gens) == p ** (ncols - r)
    for v, _ in gens:
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)


def test_gf2_matches_generic_route():
    rng = random.Random(5)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        m2 = PrimeFieldMatrix.from_rows(2, rows)
        r = m2.rank()
        # second route: rank over GF(2) = #invariant factors odd
        snf = smith_normal_form(IntegerMatrix.from_rows(rows))
        assert r == sum(1 for d in snf if d % 2)
        _assert_gfp_kernel(rows, ncols, 2, r)


def test_gfp_rank_and_kernel():
    rng = random.Random(6)
    for p in (3, 5, 7):
        for _ in range(10):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(0, p - 1) for _ in range(ncols)] for _ in range(nrows)]
            m = PrimeFieldMatrix.from_rows(p, rows)
            r = m.rank()
            snf = smith_normal_form(IntegerMatrix.from_rows(rows))
            assert r == sum(1 for d in snf if d % p)
            _assert_gfp_kernel(rows, ncols, p, r)


# ---------------------------------------------------------------------------
# elementary divisors over Z/p^e


def _valuation(d: int, p: int) -> int:
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def test_local_smith_exponents_match_smith_valuations():
    # over Z/p^e the elementary divisors are p^min(v_p(d), e) for the Smith
    # factors d; those with v_p(d) >= e vanish and are not listed
    rng = random.Random(2024)
    for p, e in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-4, 4) * rng.choice((1, 1, p, p * p)) for _ in range(ncols)]
                 for _ in range(nrows)])
            expected = sorted(v for v in (_valuation(d, p) for d in smith_normal_form(m))
                              if v < e)
            assert local_smith_exponents(m, p, e) == expected, (p, e, m.entries)


# ---------------------------------------------------------------------------
# Smith normal form


def test_smith_already_diagonal():
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 4]])) == [2, 4]


def test_smith_coprime_diagonal_vs_minor_oracle():
    m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    assert smith_normal_form(m) == [1, 6]
    assert smith_normal_form(m) == minor_gcd_invariants(m)


def test_smith_zero_matrix():
    assert smith_normal_form(IntegerMatrix.zeros(3, 2)) == []


def test_smith_against_minor_gcd_oracle_random():
    rng = random.Random(99)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntegerMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)])
        factors = smith_normal_form(m)
        assert factors == minor_gcd_invariants(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert all(d > 0 for d in factors)


def test_smith_transforms_reconstruct():
    rng = random.Random(123)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = IntegerMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)])
        dec = smith_transforms(m)
        umv = [[sum(dec.u.entries[i][k] * m.entries[k][l] * dec.v.entries[l][j]
                    for k in range(nrows) for l in range(ncols))
                for j in range(ncols)] for i in range(nrows)]
        for i in range(nrows):
            for j in range(ncols):
                expected = dec.factors[i] if i == j and i < len(dec.factors) else 0
                assert umv[i][j] == expected
        assert abs(_int_det(dec.u.entries)) == 1
        assert abs(_int_det(dec.v.entries)) == 1


def _int_det(entries):
    rows = [[Fraction(x) for x in r] for r in entries]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


# ---------------------------------------------------------------------------
# modular solving


def _brute_solutions(m: IntegerMatrix, rhs, modulus: int) -> list[tuple[int, ...]]:
    return [cand for cand in product(range(modulus), repeat=m.cols)
            if all((x - b) % modulus == 0 for x, b in zip(m.apply(cand), rhs))]


def test_solve_mod_brute_force():
    rng = random.Random(31)
    for modulus, count, size in ((2, 20, 3), (3, 20, 3), (4, 20, 3), (6, 20, 3),
                                 (8, 12, 4), (9, 12, 4), (12, 8, 4)):
        for trial in range(count):
            nrows, ncols = rng.randint(1, size), rng.randint(1, size)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) * rng.choice((1, 1, 2, 3)) for _ in range(ncols)]
                 for _ in range(nrows)])
            if trial % 2:  # a right-hand side in the image, so solutions exist
                rhs = [x % modulus for x in m.apply(
                    [rng.randint(0, modulus - 1) for _ in range(ncols)])]
            else:
                rhs = [rng.randint(0, modulus - 1) for _ in range(nrows)]
            sol = solve_mod(m, rhs, modulus)
            if not _brute_solutions(m, rhs, modulus):
                assert sol is None, (modulus, m.entries, rhs)
            else:
                assert sol is not None, (modulus, m.entries, rhs)
                assert all(0 <= x < modulus for x in sol)
                assert all((x - b) % modulus == 0 for x, b in zip(m.apply(sol), rhs))


def _span(gens, ncols: int, modulus: int) -> set[tuple[int, ...]]:
    spanned = {(0,) * ncols}
    frontier = [(0,) * ncols]
    while frontier:
        cur = frontier.pop()
        for vec, _ in gens:
            nxt = tuple((a + b) % modulus for a, b in zip(cur, vec))
            if nxt not in spanned:
                spanned.add(nxt)
                frontier.append(nxt)
    return spanned


def test_kernel_mod_generates_all_solutions():
    rng = random.Random(17)
    for modulus, count, size in ((2, 10, 3), (3, 10, 3), (4, 10, 3),
                                 (8, 8, 4), (9, 8, 4), (12, 6, 4)):
        for _ in range(count):
            nrows, ncols = rng.randint(1, size), rng.randint(1, size)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-2, 2) * rng.choice((1, 1, 2, 3)) for _ in range(ncols)]
                 for _ in range(nrows)])
            gens = kernel_mod(m, modulus)
            brute = set(_brute_solutions(m, [0] * nrows, modulus))
            assert _span(gens, ncols, modulus) == brute, (modulus, m.entries)
            orders = [order for _, order in gens]
            assert prod(orders) == len(brute)
            # the orders are gcd(d_i, modulus) over the Smith factors, zero
            # factors padded up to the column count, order-1 terms dropped
            snf = smith_normal_form(m)
            assert orders == [g for g in (gcd(d, modulus) for d in
                                          snf + [0] * (ncols - len(snf))) if g > 1]
            for vec, order in gens:
                assert all(order * x % modulus == 0 for x in vec)


# Integer Smith form with transforms grows this matrix's entries to millions of
# bits; the elimination over Z/p^e keeps every entry below p^e.
_SMITH_BLOWUP_6X6 = ((-3, -9, -4, -36, -2, -9), (-9, 27, 6, -12, -1, -27),
                     (-12, 12, -4, 4, 6, 1), (-9, 1, 3, 3, -18, 0),
                     (-4, -3, 1, -1, 9, 3), (2, -36, 1, 27, -3, -4))


def test_kernel_and_solve_mod_on_smith_blowup_matrix():
    m = IntegerMatrix.from_rows(_SMITH_BLOWUP_6X6)
    rhs = [x % 12 for x in m.apply([1, 5, 7, 0, 11, 2])]
    start = time.perf_counter()
    gens4, gens12 = kernel_mod(m, 4), kernel_mod(m, 12)
    sol4 = solve_mod(m, [b % 4 for b in rhs], 4)
    sol12 = solve_mod(m, rhs, 12)
    assert time.perf_counter() - start < 1.0
    brute = set(_brute_solutions(m, [0] * 6, 4))
    assert _span(gens4, 6, 4) == brute
    assert prod(order for _, order in gens4) == len(brute)
    for modulus, gens in ((4, gens4), (12, gens12)):
        for vec, order in gens:
            assert all(x % modulus == 0 for x in m.apply(vec))
            assert all(order * x % modulus == 0 for x in vec)
    assert all((x - b) % 4 == 0 for x, b in zip(m.apply(sol4), rhs))
    assert all((x - b) % 12 == 0 for x, b in zip(m.apply(sol12), rhs))


# ---------------------------------------------------------------------------
# the GF(2) column echelon against the dense sweep


def _assert_matches_sweep(m: IntegerMatrix, modulus: int, rhs_list) -> list[bool]:
    """kernel_mod, solve_mod and the exponents of m equal the dense sweep's
    output for output; the solvability of each right-hand side is returned."""
    assert kernel_mod(m, modulus) == sweep_kernel(m, modulus), (modulus, m.entries)
    for p, e in prime_power_factors(modulus):
        assert local_smith_exponents(m, p, e) == sweep_exponents(m, p, e)
    solvable = []
    for rhs in rhs_list:
        expected = sweep_solve(m, rhs, modulus)
        assert solve_mod(m, rhs, modulus) == expected, (modulus, m.entries, rhs)
        solvable.append(expected is not None)
    return solvable


def _rhs_pair(m, modulus: int, rng: random.Random) -> list[list[int]]:
    # one right-hand side in the image (solvable), one drawn at random; the
    # image is read off the dense entries, which an IncidenceMatrix has too
    x = [rng.randrange(modulus) for _ in range(m.cols)]
    image = [sum(a * b for a, b in zip(row, x)) % modulus for row in m.entries]
    return [image, [rng.randrange(modulus) for _ in range(m.rows)]]


_SWEEP_MODULI = (2, 6, 10)


def test_packed_route_matches_the_dense_sweep_on_random_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    outcomes = set()

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
                      modulus=st.sampled_from(_SWEEP_MODULI), data=st.data())
    def check(shape, modulus, data):
        nrows, ncols = shape
        entry = st.integers(-3, 3) | st.sampled_from((0, 0, 2, 5, 10))
        rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows), label="rows")
        m = IntegerMatrix.from_rows(rows)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        outcomes.update(_assert_matches_sweep(m, modulus, _rhs_pair(m, modulus, rng)))

    check()
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# incidence matrices against their dense rows and the dense sweep


_INCIDENCE_MODULI = (1, 2, 4, 6, 8, 9, 12, 36)


def _dense_sum(nrows: int, ncols: int, columns) -> tuple[tuple[int, ...], ...]:
    # row j adds (-1)^i at column columns[i][j], written apart from exactmat
    dense = [[0] * ncols for _ in range(nrows)]
    for i, col in enumerate(columns):
        for j, c in enumerate(col):
            dense[j][c] += (-1) ** i
    return tuple(map(tuple, dense))


def _assert_incidence_matches(m: IncidenceMatrix, modulus: int, rhs_list) -> list[bool]:
    """kernel_mod, the exponents and solve_mod of m (from an empty cache,
    then warm) equal those of its dense rows as an IntegerMatrix and the
    dense sweep's; the solvability of each right-hand side is returned."""
    dense = IntegerMatrix.from_rows(m.entries)
    where = (modulus, m.columns)
    assert kernel_mod(m, modulus) == kernel_mod(dense, modulus) \
        == sweep_kernel(dense, modulus), where
    for p, e in prime_power_factors(modulus):
        assert local_smith_exponents(m, p, e) == local_smith_exponents(dense, p, e) \
            == sweep_exponents(dense, p, e), where
    exactmat._factored.cache_clear()
    cold = [solve_mod(m, rhs, modulus) for rhs in rhs_list]
    warm = [solve_mod(m, rhs, modulus) for rhs in rhs_list]
    expected = [sweep_solve(dense, rhs, modulus) for rhs in rhs_list]
    assert cold == warm == expected == [solve_mod(dense, rhs, modulus) for rhs in rhs_list], where
    return [x is not None for x in expected]


def test_incidence_matrices_match_their_dense_rows_and_the_sweep():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    outcomes, repeats = set(), set()

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(shape=st.tuples(st.integers(1, 12), st.integers(1, 9), st.integers(1, 5)),
                      modulus=st.sampled_from(_INCIDENCE_MODULI), data=st.data())
    def check(shape, modulus, data):
        nrows, ncols, nfaces = shape
        col = st.lists(st.integers(0, ncols - 1), min_size=nrows, max_size=nrows).map(tuple)
        columns = data.draw(st.lists(col, min_size=nfaces, max_size=nfaces).map(tuple),
                            label="columns")
        m = IncidenceMatrix(nrows, ncols, columns)
        assert m.entries == _dense_sum(nrows, ncols, columns)
        # a row index met by two faces: same parity doubles, other parity cancels
        repeats.update((i - k) % 2 for j in range(nrows) for i, k in combinations(range(nfaces), 2)
                       if columns[i][j] == columns[k][j])
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        outcomes.update(_assert_incidence_matches(m, modulus, _rhs_batch(m, modulus, rng)))

    check()
    assert outcomes == {True, False}
    assert repeats == {0, 1}


# ---------------------------------------------------------------------------
# the Z/p^e lane engine, pivot for pivot, against the list-of-rows sweep


_LANE_MODULI = ((3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))


def _assert_lane_pivots_match(m, p: int, e: int) -> None:
    """`_local_eliminate` on m's lane columns, with and without the
    identity lanes that carry V, takes the sweep's pivots (c, v, inv,
    support), each at the lane of the row the sweep pivots on."""
    sweep_log: list = []
    expected = [(c, v, inv, support) for c, v, inv, _, support
                in local_eliminate(m.entries, m.cols, p, e, sweep_log)[0]]
    expected_rows = [row for row, _ in sweep_log]
    lanes = exactmat._Lanes(p ** e, m.rows)
    bare = exactmat._local_eliminate(m._lane_columns(lanes), m.rows, lanes, p, e)
    factor = exactmat._factored.__wrapped__(m, p ** e)[0][2]
    for pivots in (bare, factor[0]):
        assert [pivot[:4] for pivot in pivots] == expected, (p, e, m)
        assert [i for *_, i in pivots] == expected_rows, (p, e, m)


def test_lane_engine_takes_the_sweep_pivots_and_row_operations():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    valuations = set()

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(shape=st.tuples(st.integers(0, 9), st.integers(0, 9)),
                      pe=st.sampled_from(_LANE_MODULI), data=st.data())
    def dense(shape, pe, data):
        nrows, ncols = shape
        entry = st.sampled_from((-3, -2, -1, 0, 1, 2, 3, 5, 10, 27))
        row = st.lists(entry, min_size=ncols, max_size=ncols) | st.just([0] * ncols)
        m = IntegerMatrix(nrows, ncols, tuple(map(tuple, data.draw(
            st.lists(row, min_size=nrows, max_size=nrows), label="rows"))))
        _assert_lane_pivots_match(m, *pe)
        valuations.update(v for _, v, *_ in local_eliminate(m.entries, ncols, *pe)[0])

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(0, 5)),
                      pe=st.sampled_from(_LANE_MODULI), data=st.data())
    def incidence(shape, pe, data):
        nrows, ncols, nfaces = shape
        col = st.lists(st.integers(0, ncols - 1), min_size=nrows, max_size=nrows).map(tuple)
        _assert_lane_pivots_match(IncidenceMatrix(nrows, ncols, data.draw(
            st.lists(col, min_size=nfaces, max_size=nfaces).map(tuple), label="columns")), *pe)

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @hypothesis.given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
                      p=st.sampled_from((3, 5, 7)), data=st.data())
    def prime_field(shape, p, data):
        nrows, ncols = shape
        rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows), label="rows")
        m = PrimeFieldMatrix.from_rows(p, rows)
        assert m.rank() == len(local_eliminate(rows, ncols, p, 1)[0])
        _assert_lane_pivots_match(m, p, 1)

    dense()
    incidence()
    prime_field()
    assert valuations >= {0, 1, 2}
    for gname in sorted(_NAMED_GROUPS):
        P = group_by_name(gname)
        for degree in (1, 2):
            m = _light_coboundary_matrix(P.table, P.identity, degree)[1]
            for pe in _LANE_MODULI:
                _assert_lane_pivots_match(m, *pe)


@pytest.mark.parametrize("p", [4, 6, 1, -2])
def test_local_smith_exponents_refuses_a_p_that_is_not_prime(p):
    # a p of 4 once returned a list, one of 6 a raw error from pow
    for m in (IntegerMatrix.from_rows([[1, 2], [3, 4]]), IncidenceMatrix(2, 2, ((0, 1), (1, 1)))):
        with pytest.raises(ValueError, match=rf"^p: {p} is not prime$"):
            local_smith_exponents(m, p, 1)


def test_local_smith_exponents_refuses_a_negative_e():
    m = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=r"^e: -1 is negative$"):
        local_smith_exponents(m, 3, -1)
    assert local_smith_exponents(m, 3, 0) == []


@pytest.mark.parametrize("gname", sorted(_NAMED_GROUPS))
def test_packed_route_matches_the_dense_sweep_on_light_rows(gname):
    # Light's rows of d_1 and d_2, the incidences cocycle_space, the H^n
    # exponents and the extension solves eliminate, against their dense rows
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    P = group_by_name(gname)
    mats = [_light_coboundary_matrix(P.table, P.identity, degree)[1] for degree in (1, 2)]
    assert all(isinstance(m, IncidenceMatrix) for m in mats)
    outcomes = set()

    @hypothesis.settings(max_examples=1, derandomize=True, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        for m in mats:
            for modulus in sorted(set(_INCIDENCE_MODULI + _SWEEP_MODULI)):
                outcomes.update(_assert_incidence_matches(m, modulus, _rhs_pair(m, modulus, rng)))

    check()
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the GF(2) column echelon, judged by a test-local rank


def _gf2_rank(vectors) -> int:
    rows, rank = [list(v) for v in vectors], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows = [[a ^ b for a, b in zip(row, rows[rank])] if r != rank and row[c] else row
                for r, row in enumerate(rows)]
        rank += 1
    return rank


def _assert_gf2_normal_forms(m, rhs_list) -> None:
    """A column is free when it lies in the span of the columns before it.
    Each modulus-2 kernel generator is 1 at its own free column and 0 at
    the others (in descending free-column order, as kernel_mod lists them),
    and each solution is 0 on every free column."""
    columns = [[x % 2 for x in col] for col in zip(*m.entries)]
    ranks = [_gf2_rank(columns[:c]) for c in range(m.cols + 1)]
    free = [c for c in range(m.cols) if ranks[c + 1] == ranks[c]]
    gens = kernel_mod(m, 2)
    assert [[v[f] for f in free] for v, _ in reversed(gens)] == \
        [[int(f == g) for f in free] for g in free], (free, gens)
    assert all(order == 2 for _, order in gens)
    for rhs in rhs_list:
        x = solve_mod(m, rhs, 2)
        if x is not None:
            assert not any(x[f] for f in free)
            assert all(sum(a * b for a, b in zip(row, x)) % 2 == y % 2
                       for row, y in zip(m.entries, rhs))


def test_gf2_kernels_and_solutions_are_the_reduced_echelon_ones():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @hypothesis.given(shape=st.tuples(st.integers(1, 12), st.integers(1, 9), st.integers(1, 5)),
                      data=st.data())
    def check(shape, data):
        nrows, ncols, nfaces = shape
        col = st.lists(st.integers(0, ncols - 1), min_size=nrows, max_size=nrows).map(tuple)
        m = IncidenceMatrix(nrows, ncols, data.draw(
            st.lists(col, min_size=nfaces, max_size=nfaces).map(tuple), label="columns"))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        for matrix in (m, IntegerMatrix.from_rows(m.entries)):
            _assert_gf2_normal_forms(matrix, _rhs_batch(matrix, 2, rng))

    check()
    for gname in sorted(_NAMED_GROUPS):
        P = group_by_name(gname)
        m = _light_coboundary_matrix(P.table, P.identity, 2 if P.order <= 8 else 1)[1]
        _assert_gf2_normal_forms(m, _rhs_batch(m, 2, random.Random(gname)))


def test_modulus_two_routes_build_no_dense_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("dense rows built on a modulus-2 route")

    monkeypatch.setattr(IncidenceMatrix, "_signed_rows", refuse)
    exactmat._factored.cache_clear()
    P = group_by_name("q8")
    m = _light_coboundary_matrix(P.table, P.identity, 2)[1]
    # |Z^2(Q8, Z2)| = 2^8 and 56 = 64 - 8
    assert len(kernel_mod(m, 2)) == 8 and len(local_smith_exponents(m, 2, 1)) == 56
    assert solve_mod(m, [0] * m.rows, 2) == [0] * m.cols


# ---------------------------------------------------------------------------
# integer input contract


@pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, 2.0, "1", None])
def test_integer_matrix_refuses_an_entry_that_is_no_integer(bad):
    with pytest.raises(ValueError, match=r"^row 1, column 0: .* is not an integer$"):
        IntegerMatrix.from_rows([[1, 0], [bad, 1]])


@pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, "1"])
def test_prime_field_matrix_refuses_an_entry_that_is_no_integer(bad):
    with pytest.raises(ValueError, match=r"^row 0, column 1: .* is not an integer$"):
        PrimeFieldMatrix.from_rows(5, [[1, bad]])


def test_integer_rows_accept_index_types():
    m = IntegerMatrix.from_rows([[True, -3], (0, 7)])
    assert m.entries == ((1, -3), (0, 7))
    assert PrimeFieldMatrix.from_rows(5, [[True, -3]]).entries == ((1, 2),)


@pytest.mark.parametrize("modulus", [2, 4, 6])
def test_solve_mod_refuses_a_right_hand_side_that_is_no_integer(modulus):
    # int() would truncate 1.5 to 1 and return a solution of another system
    identity = IntegerMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"^right-hand side position 0: 1\.5 is not an integer$"):
        solve_mod(identity, [1.5, 3], modulus)
    with pytest.raises(ValueError, match=r"^right-hand side position 1: '1' is not an integer$"):
        solve_mod(identity, [1, "1"], modulus)


@pytest.mark.parametrize("bad", [4.0, "4", Fraction(4, 1)])
def test_moduli_and_exponents_that_are_no_integer_are_refused(bad):
    # 4.0 once gave float kernel generators and a raw TypeError from pow
    m = IntegerMatrix.from_rows([[1, 1], [0, 2]])
    incidence = IncidenceMatrix(2, 2, ((0, 1), (1, 1)))
    refused = rf"^modulus: {re.escape(repr(bad))} is not an integer$"
    for matrix in (m, incidence):
        with pytest.raises(ValueError, match=refused):
            kernel_mod(matrix, bad)
        with pytest.raises(ValueError, match=r"^modulus: .* is not an integer$"):
            solve_mod(matrix, [1, 1], bad)
        with pytest.raises(ValueError, match=r"^p: .* is not an integer$"):
            local_smith_exponents(matrix, bad, 1)
        with pytest.raises(ValueError, match=r"^e: .* is not an integer$"):
            local_smith_exponents(matrix, 2, bad)
    assert kernel_mod(m, 4) == [((2, 2), 2)]
    assert kernel_mod(m, True) == [] and local_smith_exponents(m, 2, True) == [0]


# ---------------------------------------------------------------------------
# solve_mod: one factorization per (matrix, modulus), each right-hand side
# reduced against its pivot columns


_REPLAY_MODULI = (2, 4, 6, 8, 9, 12, 36)


def _rhs_batch(m: IntegerMatrix, modulus: int, rng: random.Random) -> list[list[int]]:
    # six right-hand sides: three in the image, three drawn at random
    return [rhs for _ in range(3) for rhs in _rhs_pair(m, modulus, rng)]


def _assert_solves_match_sweep(m: IntegerMatrix, modulus: int, rhs_list) -> list[bool]:
    """solve_mod equals the dense sweep on every right-hand side, once from
    an empty cache and once with the factorization warm."""
    exactmat._factored.cache_clear()
    cold = [solve_mod(m, rhs, modulus) for rhs in rhs_list]
    warm = [solve_mod(m, rhs, modulus) for rhs in rhs_list]
    expected = [sweep_solve(m, rhs, modulus) for rhs in rhs_list]
    assert cold == expected, (modulus, m.entries)
    assert warm == expected, (modulus, m.entries)
    return [x is not None for x in expected]


def test_replayed_solves_match_the_dense_sweep_on_random_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    outcomes = set()

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
                      modulus=st.sampled_from(_REPLAY_MODULI), data=st.data())
    def check(shape, modulus, data):
        nrows, ncols = shape
        entry = st.integers(-4, 4) | st.sampled_from((0, 0, 3, 6, 12, 18))
        rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows), label="rows")
        m = IntegerMatrix.from_rows(rows)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        outcomes.update(_assert_solves_match_sweep(m, modulus, _rhs_batch(m, modulus, rng)))

    check()
    assert outcomes == {True, False}


@pytest.mark.parametrize("gname", sorted(_NAMED_GROUPS))
def test_replayed_solves_match_the_dense_sweep_on_light_d1(gname):
    # Light's d_1, the matrix every extension solve factors
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    P = group_by_name(gname)
    m = _light_coboundary_matrix(P.table, P.identity, 1)[1]
    outcomes = set()

    @hypothesis.settings(max_examples=2, derandomize=True, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        for modulus in _REPLAY_MODULI:
            outcomes.update(_assert_solves_match_sweep(m, modulus, _rhs_batch(m, modulus, rng)))

    check()
    assert outcomes == {True, False}


def test_factorizations_are_keyed_by_matrix_and_modulus():
    # same shape, different entries: each matrix is factored for itself
    a = IntegerMatrix.from_rows([[1, 0], [0, 2]])
    b = IntegerMatrix.from_rows([[2, 0], [0, 1]])
    exactmat._factored.cache_clear()
    assert solve_mod(a, [1, 2], 4) == sweep_solve(a, [1, 2], 4) == [1, 1]
    assert solve_mod(b, [1, 2], 4) is None
    assert sweep_solve(b, [1, 2], 4) is None
    assert solve_mod(b, [2, 1], 4) == sweep_solve(b, [2, 1], 4) == [1, 1]
    assert exactmat._factored.cache_info().currsize == 2
    # one matrix under 4 and 12 (whose 2-part is 4): two factorizations
    m = IntegerMatrix.from_rows([[2, 1], [0, 3]])
    for modulus in (4, 12, 4, 12):
        for rhs in ([1, 3], [0, 1], [2, 0]):
            assert solve_mod(m, rhs, modulus) == sweep_solve(m, rhs, modulus)
    assert exactmat._factored.cache_info().currsize == 4
    assert exactmat._factored.cache_info().misses == 4


def test_factorization_cache_is_bounded():
    exactmat._factored.cache_clear()
    for k in range(SOLVE_CACHE_SIZE + 8):
        m = IntegerMatrix.from_rows([[k + 1, 1], [0, 1]])
        assert solve_mod(m, [1, 1], 9) == sweep_solve(m, [1, 1], 9)
    info = exactmat._factored.cache_info()
    assert info.misses == SOLVE_CACHE_SIZE + 8
    assert info.currsize == SOLVE_CACHE_SIZE


@pytest.mark.parametrize("modulus", [2, 4, 9, 12])
def test_kernels_and_solves_share_one_factorization(modulus):
    # kernel_mod then solve_mod on one (matrix, modulus): one elimination
    P = group_by_name("q8")
    m = _light_coboundary_matrix(P.table, P.identity, 1)[1]
    exactmat._factored.cache_clear()
    gens = kernel_mod(m, modulus)
    assert exactmat._factored.cache_info().misses == 1
    rng = random.Random(modulus)
    for rhs in _rhs_batch(m, modulus, rng):
        assert solve_mod(m, rhs, modulus) == sweep_solve(IntegerMatrix.from_rows(m.entries),
                                                         rhs, modulus)
    assert kernel_mod(m, modulus) == gens
    info = exactmat._factored.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


@pytest.mark.parametrize("modulus", [2, 4, 6])
def test_solve_mod_checks_every_right_hand_side_on_a_cached_factorization(modulus):
    identity = IntegerMatrix.from_rows([[1, 0], [0, 1]])
    assert solve_mod(identity, [1, 1], modulus) == [1, 1]
    with pytest.raises(ValueError, match=r"^right-hand side position 0: 1\.5 is not an integer$"):
        solve_mod(identity, [1.5, 3], modulus)
    with pytest.raises(ValueError, match=r"^right-hand side position 1: '1' is not an integer$"):
        solve_mod(identity, [1, "1"], modulus)
    with pytest.raises(ValueError, match="right-hand side length"):
        solve_mod(identity, [1, 1, 1], modulus)
    with pytest.raises(ValueError, match="modulus must be positive"):
        solve_mod(identity, [1, 1], 0)


@pytest.mark.parametrize("modulus", [2, 4, 6, 36])
def test_solve_mod_on_a_matrix_with_list_rows(modulus):
    # the raw constructor stores list rows as tuples, so the matrix equals
    # its frozen copy and keys the cache as the copy does
    m = IntegerMatrix(2, 3, ([1, 2, 0], [0, 3, 1]))
    frozen = IntegerMatrix.from_rows(m.entries)
    assert m == frozen and hash(m) == hash(frozen)
    exactmat._factored.cache_clear()
    for rhs in ([1, 0], [0, 5], [3, 3]):
        assert solve_mod(m, rhs, modulus) == sweep_solve(frozen, rhs, modulus)
        assert solve_mod(m, rhs, modulus) == solve_mod(frozen, rhs, modulus)
    info = exactmat._factored.cache_info()
    assert (info.misses, info.hits) == (1, 8)
